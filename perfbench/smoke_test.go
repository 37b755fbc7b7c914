package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// tinySizes shrinks every workload to run in about a second.
var tinySizes = sizes{
	CorpusScale:      0.01,
	KBCSamples:       256,
	Epsilon:          0.1,
	Delta:            0.1,
	RMATScale:        10,
	ReadQPS:          100,
	HeavyQPS:         4,
	IngestQPS:        40,
	WriteQPS:         40,
	WriteBatches:     40,
	Batch:            256,
	SetupReps:        1,
	LoadsPerPipeline: 1,
	MinPipelines:     3,
	ProbeSeconds:     0.5,
}

// workloadFigures are the figures each workload reports besides the
// gated metrics, with their units.
var workloadFigures = map[string]map[string]string{
	"analyze":      {"analyze_s": "s", "fail_ratio": "ratio"},
	"serve-read":   {"read_p50_ms": "ms", "read_p99_ms": "ms", "read_capacity_rps": "1/s", "heavy_p50_ms": "ms", "fail_ratio": "ratio"},
	"serve-ingest": {"read_p50_ms": "ms", "read_p99_ms": "ms", "ingest_p50_ms": "ms", "ingest_p99_ms": "ms", "visible_p50_ms": "ms", "fail_ratio": "ratio"},
}

// TestSmokeEveryMetric runs every workload at tiny scale, untraced and
// traced, and checks that every metric is emitted with its unit and
// that the output checks pass.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cat, err := loadCatalog("../" + catalogFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{Workload: w.Name, Seed: 1, Seconds: 1, Trace: traced, Sizes: tinySizes, WorkDir: t.TempDir()}
			rep, _, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			defs := cat.EndToEnd
			if traced {
				defs = cat.PerLayer
			}
			var out bytes.Buffer
			if err := rep.write(&out, describe(cfg), defs); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, line.Correct, line.Failed, line.Attempted, out.String())
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
			}
			for name, unit := range workloadFigures[w.Name] {
				if v, ok := rep.values[name]; !ok || v.Unit != unit || (v.N == 0 && name != "fail_ratio") {
					t.Errorf("%s trace=%v: figure %s = %+v, want unit %s with a sample count", w.Name, traced, name, v, unit)
				}
			}
		}
	}
}
