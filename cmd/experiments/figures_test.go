package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperFiguresGolden pins the paper reproduction across commits: Figs.
// 4a–7 rendered at -scale 0.25 -seed 1 must match testdata/figures_q1.golden
// byte for byte. The simulator is deterministic, so any difference is a
// behaviour change in the code the figures run on (client routing, dispatcher,
// balancer, link model) and must be deliberate: regenerate the golden from the
// file this test writes on a mismatch, and name the moved rows in CHANGES.md.
// The full-scale check is `make experiments` against experiments_output.txt.
func TestPaperFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders five figures (~7 s)")
	}
	got := captureStdout(t, func() {
		const scale, seed = 0.25, 1
		runFig4a(scale, seed)
		runFig4b(scale, seed)
		runFig5(scale, seed)
		runFig6(scale, seed)
		runFig7(scale, seed)
	})
	golden := filepath.Join("testdata", "figures_q1.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	f, err := os.CreateTemp("", "figures_q1-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(got); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("figures differ from %s; this run's output is in %s (diff them; copy it over the golden only for a deliberate change)", golden, f.Name())
}

// captureStdout runs fn with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // the pipe only ends when w closes below
		out <- b
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-out
}
