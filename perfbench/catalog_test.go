package main

import (
	"regexp"
	"testing"
)

// TestBenchmarkJSON checks BENCHMARK.json, which the benchmark reads at
// start-up, against the format's limits.
func TestBenchmarkJSON(t *testing.T) {
	b, err := loadCatalog("../" + catalogFile)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range b.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("bad or repeated workload %+v", w)
		}
		seen[w.Name] = true
	}
	var setupBound, maxBound float64
	for _, d := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %+v", d)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
		maxBound = max(maxBound, d.Bound)
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s bound %v is missing or not the largest (%v)", setupBound, maxBound)
	}
	for _, d := range b.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}
