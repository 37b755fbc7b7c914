package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// value is one reported figure: the number, its unit, how many samples
// stand behind it (0 for a single measurement or a count) and where it
// came from.
type value struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report collects every figure and output check of one run.
type report struct {
	values     map[string]value
	order      []string
	checks     []checkResult
	unmeasured []string // figures without samples
	attempted  int      // operations attempted plus output checks made
	failed     int      // failed, refused or never-sent operations plus failed checks
}

func newReport() *report { return &report{values: make(map[string]value)} }

// set records a figure. A figure without samples (NaN) is listed as
// not measured instead.
func (r *report) set(name, unit string, v float64, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.unmeasured = append(r.unmeasured, name)
		return
	}
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = value{Name: name, Unit: unit, Value: v, N: n, Note: note}
}

func (r *report) has(name string) bool {
	_, ok := r.values[name]
	return ok
}

// ops counts operations: attempted ones and those that failed.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check records one output check; a failed check counts as a failure.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
	}
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) checksPassed() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the human-readable table, the full JSON report and, as
// the last line, the result object carrying exactly the metrics of defs.
func (r *report) write(w io.Writer, prov provenance, defs []metricDef) error {
	fmt.Fprintf(w, "# perfbench %s seed=%d trace=%v nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		prov.Workload, prov.Seed, prov.Trace, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.CPUModel, prov.Commit)
	for _, name := range r.order {
		v := r.values[name]
		note := ""
		if v.Note != "" {
			note = "  (" + v.Note + ")"
		}
		fmt.Fprintf(w, "%-32s %16.6g %-8s n=%d%s\n", v.Name, v.Value, v.Unit, v.N, note)
	}
	for _, name := range r.unmeasured {
		fmt.Fprintf(w, "%-32s not measured (no samples)\n", name)
	}
	for _, c := range r.checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.Name, c.Detail)
	}
	all := make([]value, 0, len(r.order))
	for _, name := range r.order {
		all = append(all, r.values[name])
	}
	full, err := json.Marshal(struct {
		Provenance provenance    `json:"provenance"`
		Values     []value       `json:"values"`
		Checks     []checkResult `json:"checks"`
	}{prov, all, r.checks})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", full)

	line := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricOut, len(defs))}
	line.Correct = true
	for _, c := range r.checks {
		line.Correct = line.Correct && c.OK
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		line.Metrics[d.Name] = metricOut{Value: v.Value, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if line.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-th (0..1) value of xs by nearest rank, or NaN
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
