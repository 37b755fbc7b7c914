// Package sssp provides weighted single-source shortest paths: a Dijkstra
// reference and the parallel delta-stepping algorithm of the Cray
// MTA/XMT kernel family GraphCT descends from. DIMACS inputs carry
// integer edge weights ("an edge list and an integer weight for each
// edge"); these kernels put them to work. Unweighted graphs are treated
// as having unit weights, where both algorithms reduce to BFS distances.
package sssp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// Inf marks unreachable vertices.
const Inf = int64(math.MaxInt64)

// Result holds one source's distances.
type Result struct {
	Source int32
	Dist   []int64 // Dist[v] = weighted distance, or Inf
}

// Reached reports whether v was reached.
func (r *Result) Reached(v int32) bool { return r.Dist[v] != Inf }

// Extent returns how many vertices were reached and the largest distance
// among them.
func (r *Result) Extent() (reached int, maxDist int64) {
	for _, d := range r.Dist {
		if d != Inf {
			reached++
			maxDist = max(maxDist, d)
		}
	}
	return reached, maxDist
}

// validateWeights returns an error if any arc has a negative weight.
func validateWeights(g *graph.Graph) error {
	if !g.Weighted() {
		return nil
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Weights(int32(v)) {
			if w < 0 {
				return fmt.Errorf("sssp: negative edge weight %d at vertex %d", w, v)
			}
		}
	}
	return nil
}

// Dijkstra computes exact shortest paths with a binary heap — the
// sequential reference the parallel kernel is verified against.
func Dijkstra(g *graph.Graph, src int32) (*Result, error) {
	if err := validateWeights(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	r := &Result{Source: src, Dist: make([]int64, n)}
	for i := range r.Dist {
		r.Dist[i] = Inf
	}
	if n == 0 || src < 0 || int(src) >= n {
		return r, nil
	}
	r.Dist[src] = 0
	pq := &distHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > r.Dist[item.v] {
			continue // stale entry
		}
		nbr := g.Neighbors(item.v)
		wts := g.Weights(item.v)
		for i, u := range nbr {
			w := int64(1)
			if wts != nil {
				w = int64(wts[i])
			}
			if nd := item.d + w; nd < r.Dist[u] {
				r.Dist[u] = nd
				heap.Push(pq, distItem{v: u, d: nd})
			}
		}
	}
	return r, nil
}

type distItem struct {
	v int32
	d int64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// DeltaStepping computes shortest paths with the parallel bucket
// algorithm: vertices are grouped into buckets of width delta; each
// bucket settles by repeated parallel relaxation of light edges
// (weight < delta), then relaxes its heavy edges once. delta <= 0 picks
// a heuristic width (mean edge weight + 1).
func DeltaStepping(g *graph.Graph, src int32, delta int64) (*Result, error) {
	return DeltaSteppingCtx(context.Background(), g, src, delta)
}

// DeltaSteppingCtx is DeltaStepping with cooperative cancellation: the
// context is checked between relaxation rounds (each round is one parallel
// sweep over a frontier), so a cancelled request stops within a round
// rather than running the full bucket schedule.
func DeltaSteppingCtx(ctx context.Context, g *graph.Graph, src int32, delta int64) (*Result, error) {
	if err := validateWeights(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	r := &Result{Source: src, Dist: make([]int64, n)}
	for i := range r.Dist {
		r.Dist[i] = Inf
	}
	if n == 0 || src < 0 || int(src) >= n {
		return r, nil
	}
	if delta <= 0 {
		delta = heuristicDelta(g)
	}
	dist := r.Dist
	dist[src] = 0
	buckets := map[int64][]int32{0: {src}}
	enqueue := func(vs []int32) {
		for _, v := range vs {
			b := atomic.LoadInt64(&dist[v]) / delta
			buckets[b] = append(buckets[b], v)
		}
	}
	for len(buckets) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Smallest non-empty bucket index.
		bi := int64(-1)
		for k := range buckets {
			if bi == -1 || k < bi {
				bi = k
			}
		}
		var settled []int32
		// Light-edge phase: relax until the bucket stops refilling.
		// Every improvement lands in bucket >= bi (distances only
		// shrink toward bi*delta), so progress is monotone and finite.
		for len(buckets[bi]) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			frontier := buckets[bi]
			delete(buckets, bi)
			// Keep only entries still belonging to this bucket: a vertex
			// may have improved into an earlier, already-settled range
			// (then its entry here is stale but it was settled there).
			live := frontier[:0]
			for _, v := range frontier {
				if dist[v]/delta == bi {
					live = append(live, v)
				}
			}
			settled = append(settled, live...)
			enqueue(relax(g, live, dist, delta, true))
		}
		delete(buckets, bi)
		// Heavy-edge phase: w >= delta guarantees targets land in
		// buckets strictly beyond bi, so one pass suffices.
		enqueue(relax(g, settled, dist, delta, false))
	}
	return r, nil
}

// relax relaxes the light (or heavy) edges of the frontier in parallel,
// returning the vertices whose distances improved. Updates use an atomic
// min CAS loop; duplicates in the returned slice are tolerated by the
// caller's staleness checks.
func relax(g *graph.Graph, frontier []int32, dist []int64, delta int64, light bool) []int32 {
	workers := par.Workers()
	improvedBufs := make([][]int32, workers)
	var cursor atomic.Int64
	const chunk = 64
	par.ForEachWorker(func(wk, _ int) {
		var improved []int32
		for {
			lo := int(cursor.Add(chunk)) - chunk
			if lo >= len(frontier) {
				break
			}
			hi := lo + chunk
			if hi > len(frontier) {
				hi = len(frontier)
			}
			for _, v := range frontier[lo:hi] {
				dv := atomic.LoadInt64(&dist[v])
				if dv == Inf {
					continue
				}
				nbr := g.Neighbors(v)
				wts := g.Weights(v)
				for i, u := range nbr {
					w := int64(1)
					if wts != nil {
						w = int64(wts[i])
					}
					if light != (w < delta) {
						continue
					}
					nd := dv + w
					for {
						du := atomic.LoadInt64(&dist[u])
						if nd >= du {
							break
						}
						if atomic.CompareAndSwapInt64(&dist[u], du, nd) {
							improved = append(improved, u)
							break
						}
					}
				}
			}
		}
		improvedBufs[wk] = improved
	})
	var out []int32
	for _, b := range improvedBufs {
		out = append(out, b...)
	}
	return out
}

// heuristicDelta picks mean edge weight + 1 (1 for unweighted graphs,
// reducing the light phase to BFS-like level sweeps).
func heuristicDelta(g *graph.Graph) int64 {
	if !g.Weighted() || g.NumArcs() == 0 {
		return 1
	}
	var sum int64
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Weights(int32(v)) {
			sum += int64(w)
		}
	}
	return sum/g.NumArcs() + 1
}
