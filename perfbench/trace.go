package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"graphct/internal/api"
)

// traceHeader carries a request's span ID from the benchmark's client
// through the router to the worker. Requests without it are not traced,
// which is how a traced run interleaves traced and untraced requests to
// measure its own overhead.
const traceHeader = "X-Perfbench-Span"

// span is one timed call across a layer boundary. Spans of one request
// share an ID; library calls have an empty ID.
type span struct {
	ID     string        `json:"id,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Source string        `json:"source,omitempty"` // X-Graphct-Source of a worker span
	Work   int64         `json:"work,omitempty"`   // edges the call traversed, when known
	Probe  bool          `json:"probe,omitempty"`  // the call was made only to measure the layer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
	probe bool // mark spans recorded from now on as probes
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.Probe = s.Probe || t.probe
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// setProbe marks whether subsequent library spans are probes.
func (t *tracer) setProbe(p bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.probe = p
	t.mu.Unlock()
}

// time runs f inside a span named name and returns f's duration.
func (t *tracer) time(name string, f func()) time.Duration {
	return t.timeWork(name, func() int64 { f(); return 0 })
}

// timeWork is time for a call that reports how many edges it traversed.
func (t *tracer) timeWork(name string, f func() int64) time.Duration {
	start := time.Now()
	work := f()
	d := time.Since(start)
	if t != nil {
		t.add(span{Name: name, Start: start, Dur: d, Work: work})
	}
	return d
}

// layerStat summarizes the library spans called name.
type layerStat struct {
	MedianMs float64 // median duration
	N        int     // spans
	PerSec   float64 // total work over total time (NaN without work)
	Probe    bool    // some span was a probe call
}

func (t *tracer) stat(name string) layerStat {
	st := layerStat{MedianMs: math.NaN(), PerSec: math.NaN()}
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms []float64
	var work int64
	var total time.Duration
	for _, s := range t.spans {
		if s.Name != name || s.ID != "" {
			continue
		}
		ms = append(ms, float64(s.Dur)/1e6)
		work += s.Work
		total += s.Dur
		st.Probe = st.Probe || s.Probe
	}
	st.N = len(ms)
	st.MedianMs = median(ms)
	if work > 0 && total > 0 {
		st.PerSec = float64(work) / total.Seconds()
	}
	return st
}

// byID groups the request spans (those with an ID) by request.
func (t *tracer) byID() map[string][]span {
	out := make(map[string][]span)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.ID != "" {
			out[s.ID] = append(out[s.ID], s)
		}
	}
	return out
}

// wrap records a span named name around every traced request h serves.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(traceHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{ID: id, Name: name, Start: start, Dur: time.Since(start), Source: w.Header().Get(api.HeaderSource)})
	})
}

// writeFile stores every span as JSON at path.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
