package main

import (
	"slices"
	"sort"
	"testing"
)

// TestCheapClassesFromKernelTable pins the classes -assert-cheap-p99-ms
// gates: the ones whose every kernel the table classes cheap. Ingest
// requests no kernel and the bc class requests an expensive one.
func TestCheapClassesFromKernelTable(t *testing.T) {
	rc := runConfig{scale: 4, statsQPS: 1, bfsQPS: 1, componentsQPS: 1, closedWorkers: 1,
		bcQPS: 1, ingestQPS: 1, ingestBatch: 1}
	cs, cheap := rc.classes("http://127.0.0.1:0", "test", 1)
	var covered []string
	for _, c := range cs {
		if cheap[c.Name] {
			covered = append(covered, c.Name)
		}
	}
	sort.Strings(covered)
	if want := []string{"bfs", "closed_cheap", "components", "stats"}; !slices.Equal(covered, want) {
		t.Fatalf("gated classes %v, want %v", covered, want)
	}
}
