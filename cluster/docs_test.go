package cluster

import (
	"os"
	"path"
	"regexp"
	"sort"
	"strings"
	"testing"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/obs"
)

// TestDocsMetricFamilies holds the metric names the docs cite to what the
// registries export. Every dynamoth_* family named in README's admin section
// or DESIGN's observability section (brace lists expanded, prefix_* a
// wildcard) must be exported by a node, the LB or a client, and every family
// they export must be named there.
func TestDocsMetricFamilies(t *testing.T) {
	c, err := Start(Options{InitialServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl, err := c.NewClient(dynamoth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	var client strings.Builder
	if err := reg.Render(&client); err != nil {
		t.Fatal(err)
	}
	node, err := c.ScrapeMetrics("pub1")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := c.ScrapeBalancerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, text := range []string{node, lb, client.String()} {
		fams, err := obs.ValidateExposition(text)
		if err != nil {
			t.Fatal(err)
		}
		for f := range fams {
			exported[f] = true
		}
	}

	var named []string
	for _, s := range []struct{ file, heading string }{
		{"../README.md", "## Admin surface"},
		{"../DESIGN.md", ". Observability"},
	} {
		src, err := os.ReadFile(s.file)
		if err != nil {
			t.Fatal(err)
		}
		section, ok := docSection(string(src), s.heading)
		if !ok {
			t.Errorf("%s has no section headed %q", s.file, s.heading)
		}
		for _, n := range metricNames(section) {
			matched := false
			for f := range exported {
				if ok, _ := path.Match(n, f); ok {
					matched = true
				}
			}
			if !matched {
				t.Errorf("%s names %s, which no registry exports", s.file, n)
			}
			named = append(named, n)
		}
	}
	var missing []string
	for f := range exported {
		covered := false
		for _, n := range named {
			if ok, _ := path.Match(n, f); ok {
				covered = true
			}
		}
		if !covered {
			missing = append(missing, f)
		}
	}
	sort.Strings(missing)
	for _, f := range missing {
		t.Errorf("%s is exported but named in neither README's admin section nor DESIGN's observability section", f)
	}
}

// docSection is the text from the "## " heading that contains heading to the
// next "## " heading, fenced code blocks left out.
func docSection(md, heading string) (string, bool) {
	var b strings.Builder
	in, fenced := false, false
	for _, l := range strings.Split(md, "\n") {
		if strings.HasPrefix(l, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if strings.HasPrefix(l, "## ") {
			if in {
				break
			}
			in = strings.Contains(l, heading)
		}
		if in {
			b.WriteString(l + "\n")
		}
	}
	return b.String(), in
}

var (
	inlineCode = regexp.MustCompile("`([^`]+)`")
	metricName = regexp.MustCompile(`dynamoth_[A-Za-z0-9_*]*(\{[^}=]*\}[A-Za-z0-9_*]*)*`)
)

// metricNames returns the dynamoth_* names in md's inline code spans, brace
// lists expanded; a label set ({server="..."}) ends a name.
func metricNames(md string) []string {
	var out []string
	for _, m := range inlineCode.FindAllStringSubmatch(md, -1) {
		code := strings.Join(strings.Fields(m[1]), "")
		for _, n := range metricName.FindAllString(code, -1) {
			out = append(out, expandBraces(n)...)
		}
	}
	return out
}

// expandBraces turns a{b,c}d into abd and acd, for every brace list.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:open+end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[open+end+1:])...)
	}
	return out
}
