package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestDueTimeChargesStall stalls one request of an open-loop lane and
// checks that every request due during the stall is charged the rest of
// it, while the generator itself stays on time.
func TestDueTimeChargesStall(t *testing.T) {
	const (
		stall    = 300 * time.Millisecond
		interval = 10 * time.Millisecond
		stalled  = 5 // index of the request the handler holds
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stalled+1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	get := func(ctx context.Context, client *http.Client, i int, spanID string) outcome {
		return do(ctx, client, http.MethodGet, srv.URL, "", nil, spanID).outcome
	}
	samples := openLoop(context.Background(), time.Now().Add(10*time.Millisecond), time.Second, 5*time.Second,
		[]lane{{Name: "t", Interval: interval, Do: get}})
	sort.Slice(samples, func(i, j int) bool { return samples[i].I < samples[j].I })
	if len(samples) != 100 {
		t.Fatalf("got %d samples, want 100", len(samples))
	}
	for _, s := range samples {
		if !s.OK || s.NotSent {
			t.Fatalf("request %d: ok=%v sent=%v err=%s", s.I, s.OK, !s.NotSent, s.Err)
		}
	}
	held := samples[stalled]
	if held.Latency() < stall {
		t.Fatalf("stalled request latency %v, want >= %v", held.Latency(), stall)
	}
	freed := held.Done
	queued := 0
	for _, s := range samples[stalled+1:] {
		if !s.Due.Before(freed) {
			break
		}
		queued++
		// Charged from its due time: at least until the stall ended.
		if want := freed.Sub(s.Due); s.Latency() < want {
			t.Errorf("request %d due %v before the stall ended: latency %v, want >= %v",
				s.I, want, s.Latency(), want)
		}
		// A send-time clock would have hidden the wait.
		if s.Done.Sub(s.Sent) >= stall/2 {
			t.Errorf("request %d took %v after it was sent; only the stalled request is slow", s.I, s.Done.Sub(s.Sent))
		}
	}
	if queued < int(stall/interval)*2/3 {
		t.Fatalf("only %d requests queued behind a %v stall at %v intervals", queued, stall, interval)
	}
	// The backlog is sent back to back as soon as the lane frees up: the
	// generator is not what made those requests late.
	if late := quantile(lateness(samples), 0.5); late > float64(interval/time.Millisecond) {
		t.Errorf("median generator lateness %.2f ms, want below the %v interval", late, interval)
	}
}
