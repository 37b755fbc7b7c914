package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The benchmark's own load generator. internal/load.Run starts an
// open-loop request's clock when its goroutine fires and lets hundreds
// of requests pile up in flight, so a server stall shows up as a few
// slow requests instead of every request it delayed. Here each lane is
// one keep-alive connection that sends its requests in order on a fixed
// schedule; a request's latency runs from when it was due, so a stall is
// charged to every request queued behind it. The generator's own
// lateness (its timer waking after the due time) is not charged to the
// system: it is taken out of the latency and reported on its own as
// load.late_*. Waiting on a timer rather than spinning keeps the
// generator's CPU time, which the process CPU figures include, small.

// outcome is what one operation observed.
type outcome struct {
	OK     bool   // 2xx and a body that passed the operation's own checks
	Err    string // why OK is false
	Epoch  uint64 // X-Graphct-Epoch, when present
	Source string // X-Graphct-Source
	Worker string // X-Graphct-Worker
	Kind   string // which request of the mix
	Param  int    // the request's varying parameter (bfs source, top)
	Edges  int64  // an edge count the body reported, -1 when none
	Snap   bool   // an ingest ack that published Epoch
}

// op performs request i of a lane over client, sending the trace header
// when spanID is not empty.
type op func(ctx context.Context, client *http.Client, i int, spanID string) outcome

// sample is one finished (or never sent) operation.
type sample struct {
	Lane    string
	I       int
	Due     time.Time
	Sent    time.Time
	Done    time.Time
	Late    time.Duration // generator lateness: Sent minus the later of Due and when the lane was free
	Traced  bool
	SpanID  string
	NotSent bool
	outcome
}

// Latency is the due-time latency: Done minus Due, less the generator's
// own lateness. Time spent queued behind the lane's previous request
// stays in it.
func (s sample) Latency() time.Duration { return s.Done.Sub(s.Due) - s.Late }

// lane is one open-loop connection.
type lane struct {
	Name     string
	Interval time.Duration
	Do       op
	// Traced selects which requests carry the trace header (nil: none).
	Traced func(i int) bool
}

// newConn returns a client restricted to one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// openLoop drives every lane from start for window: request i of a lane
// is due at start + i·Interval. A lane sends its next request as soon
// as it is due and the previous one has finished. Requests still
// unsent at start+window+grace are recorded as never sent. openLoop
// returns once every request has finished.
func openLoop(ctx context.Context, start time.Time, window, grace time.Duration, lanes []lane) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	end := start.Add(window)
	hard := end.Add(grace)
	for _, l := range lanes {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			var local []sample
			free := start
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i) * l.Interval)
				if !due.Before(end) {
					break
				}
				if time.Now().After(hard) || !sleepUntil(ctx, due) {
					local = append(local, sample{Lane: l.Name, I: i, Due: due, NotSent: true,
						outcome: outcome{Err: "never sent"}})
					continue
				}
				ready := due
				if free.After(ready) {
					ready = free
				}
				s := sample{Lane: l.Name, I: i, Due: due}
				if l.Traced != nil && l.Traced(i) {
					s.Traced = true
					s.SpanID = l.Name + "/" + strconv.Itoa(i)
				}
				s.Sent = time.Now()
				s.Late = s.Sent.Sub(ready)
				s.outcome = l.Do(ctx, client, i, s.SpanID)
				s.Done = time.Now()
				free = s.Done
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients goroutines, each sending back-to-back requests
// of do until window has passed; request numbers continue from first.
// Latency is measured from send (Due == Sent).
func closedLoop(ctx context.Context, clients int, window time.Duration, first int, do op) []sample {
	var (
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
		next = first
	)
	end := time.Now().Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			for time.Now().Before(end) && ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				s := sample{Lane: "closed", I: i, Due: time.Now()}
				s.Sent = s.Due
				s.outcome = do(ctx, client, i, "")
				s.Done = time.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil waits for t, returning false if ctx ends first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// latenciesMs returns the due-time latencies (ms) of the sent samples of
// lane ("" for all) that satisfy keep (nil for all).
func latenciesMs(samples []sample, lane string, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.NotSent || (lane != "" && s.Lane != lane) || (keep != nil && !keep(s)) {
			continue
		}
		out = append(out, float64(s.Latency())/1e6)
	}
	return out
}

// countOps adds samples to the report's attempted/failed tally.
func countOps(rep *report, samples []sample) {
	failed := 0
	for _, s := range samples {
		if !s.OK {
			failed++
		}
	}
	rep.ops(len(samples), failed)
}
