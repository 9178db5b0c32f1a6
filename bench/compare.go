package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json, the contract this benchmark is run under.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// check reports the first difference between BENCHMARK.json and what this
// benchmark runs and emits (spec.go). Every invocation starts with it, so
// the two cannot drift apart unnoticed.
func (s *benchSpec) check() error {
	if s.RunSeconds != defaultSeconds {
		return fmt.Errorf("BENCHMARK.json: run_seconds %d, the benchmark's default is %d", s.RunSeconds, defaultSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if j := s.Workloads[i]; j.Name != w.Name || j.Why != w.Why {
			return fmt.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's %q (%q)", i, j.Name, j.Why, w.Name, w.Why)
		}
	}
	if len(s.EndToEnd) != len(endToEndMetrics) {
		return fmt.Errorf("BENCHMARK.json has %d end_to_end metrics, the benchmark %d", len(s.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if j := s.EndToEnd[i]; (metricSpec{j.Name, j.Unit, j.Better}) != m {
			return fmt.Errorf("BENCHMARK.json end_to_end[%d] is %+v, the benchmark's %+v", i, j, m)
		}
	}
	if len(s.PerLayer) != len(perLayerMetrics) {
		return fmt.Errorf("BENCHMARK.json has %d per_layer metrics, the benchmark %d", len(s.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if j := s.PerLayer[i]; (metricSpec{j.Name, j.Unit, j.Better}) != m {
			return fmt.Errorf("BENCHMARK.json per_layer[%d] is %+v, the benchmark's %+v", i, j, m)
		}
	}
	return nil
}

// compareSets prints, for every workload and end-to-end metric, each set's
// reading, the largest relative difference from the first set, and the
// bound; it reports whether every difference stayed within its bound.
func compareSets(spec *benchSpec, sets [][]*result) bool {
	fmt.Printf("\n== repeatability: %d sets of runs of the same code\n", len(sets))
	fmt.Printf("%-12s %-26s %14s %14s %8s %6s\n", "workload", "metric", "first", "furthest", "diff", "bound")
	ok := true
	for wi, first := range sets[0] {
		for _, m := range spec.EndToEnd {
			a := first.Metrics[m.Name].Value
			worst, diff := a, 0.0
			for _, set := range sets[1:] {
				b := set[wi].Metrics[m.Name].Value
				if d := math.Abs(b-a) / math.Abs(a); d > diff {
					worst, diff = b, d
				}
			}
			verdict := ""
			if diff > m.Bound {
				verdict, ok = "  BREACH", false
			}
			fmt.Printf("%-12s %-26s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", first.Workload, m.Name, a, worst, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
