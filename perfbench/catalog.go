package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric the benchmark publishes.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// catalog is BENCHMARK.json at the repository root, the one list of the
// benchmark's workloads and metrics. end_to_end is printed on every
// workload with --trace 0, per_layer with --trace 1. README.md says what
// each metric means on each workload.
type catalog struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// catalogFile is where the benchmark finds BENCHMARK.json: it runs from
// the repository root.
const catalogFile = "BENCHMARK.json"

func loadCatalog(path string) (catalog, error) {
	var c catalog
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return c, fmt.Errorf("%s: no workloads or metrics", path)
	}
	return c, nil
}

func (c catalog) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
