// Package par provides the fine-grained parallel runtime GraphCT's kernels
// are written against. It substitutes goroutines scheduled over GOMAXPROCS
// workers for the Cray XMT's hardware thread streams: parallel loops are
// dynamically self-scheduled in chunks, and the only synchronization the
// kernels need is atomic fetch-and-add and compare-and-swap on integers,
// mirroring the paper's stated hardware requirements. Real-valued sums
// (betweenness scores) are never accumulated atomically: kernels sum into
// private stripes and fold them with SumSlices, whose fixed pairwise tree
// keeps the result independent of scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunk is the default number of loop iterations a worker claims at a
// time in dynamically scheduled loops. Small enough to balance the skewed
// per-vertex work of scale-free graphs, large enough to amortize the atomic
// fetch-and-add that claims it.
const DefaultChunk = 1024

// maxProcs is overridable for tests that need to pin worker counts.
var maxProcs = func() int { return runtime.GOMAXPROCS(0) }

// Workers returns the number of workers parallel loops fan out to.
func Workers() int {
	n := maxProcs()
	if n < 1 {
		return 1
	}
	return n
}

// For runs body(i) for every i in [0, n) across Workers() goroutines using
// dynamic self-scheduling with DefaultChunk-sized claims. It returns after
// all iterations complete. A zero or negative n is a no-op.
func For(n int, body func(i int)) {
	ForChunked(n, DefaultChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked runs body(lo, hi) over contiguous chunks covering [0, n).
// Chunks are claimed with an atomic fetch-and-add so workers that draw
// heavy chunks (high-degree vertices) do not stall the rest — the software
// analogue of XMT stream remapping. chunk <= 0 uses DefaultChunk.
func ForChunked(n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	workers := Workers()
	if workers == 1 || n <= chunk {
		body(0, n)
		return
	}
	if max := (n + workers - 1) / workers; chunk > max {
		chunk = max
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForGuided runs body(lo, hi) over contiguous chunks covering [0, n) using
// guided (decaying-chunk) self-scheduling: each claim takes a fixed share of
// the iterations still remaining (remaining / 2·workers), never less than
// minChunk. Early claims are large, amortizing the claiming atomic; late
// claims shrink so a worker that drew a run of heavy iterations (hub
// vertices) cannot strand a large tail behind it. minChunk <= 0 uses 64.
//
// The chunk size is computed from a racy read of the cursor; a stale read
// only makes a claim slightly larger or smaller than the ideal share, never
// incorrect, so no extra synchronization is needed.
func ForGuided(n, minChunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk <= 0 {
		minChunk = 64
	}
	workers := Workers()
	if workers == 1 || n <= minChunk {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				remaining := n - int(next.Load())
				if remaining <= 0 {
					return
				}
				chunk := remaining / (2 * workers)
				if chunk < minChunk {
					chunk = minChunk
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForEachWorker runs body(worker, workers) once per worker goroutine. It is
// the escape hatch for kernels that keep per-worker scratch (e.g. frontier
// buffers) and partition work themselves.
func ForEachWorker(body func(worker, workers int)) {
	workers := Workers()
	if workers == 1 {
		body(0, 1)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w, workers)
		}(w)
	}
	wg.Wait()
}
