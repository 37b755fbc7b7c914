// Package bc implements GraphCT's betweenness centrality kernels: exact
// Brandes centrality, the sampled approximation the paper evaluates at 10,
// 25, 50 and 100 percent source coverage, and k-betweenness centrality,
// which also counts paths up to k longer than the shortest so scores are
// robust to small graph perturbations.
//
// Parallelism follows the paper's coarse level: many source computations
// run at once, bounded so working memory stays O(S·(m+n)). Accumulation
// departs from the XMT idiom on purpose. The paper's hardware hides the
// latency of many sources fetch-and-adding into one shared score array; on
// cache-coherent commodity cores the same pattern turns the hubs of a
// scale-free graph into contended cache lines, and because float addition
// is not associative it makes the scores depend on scheduling. Instead,
// one driver (accumulate) splits the sources into a fixed number of
// contiguous chunks, each summing into its own score stripe in source
// order, and folds the stripes in a fixed tree. The determinism contract:
// scores are a pure function of (graph, sources, k) — bit-identical
// whatever GOMAXPROCS or Options.Concurrency is. The Brandes forward
// sweeps are direction-optimized (Beamer top-down/bottom-up, shared with
// internal/bfs) so hub-dominated levels stop scanning the whole edge list.
package bc

import (
	"context"
	"fmt"
	"math/rand"

	"graphct/internal/graph"
)

// MaxK is the largest supported k for k-betweenness centrality. Beyond
// slack 2 the exact accounting of walks revisiting a vertex stops being a
// local computation; the paper's analyses use k of at most 2.
const MaxK = 2

// Options configures a centrality run.
type Options struct {
	// K selects k-betweenness centrality; 0 is classic betweenness. The
	// kernel supports k in [0, 2] — the range the paper's analyses and
	// script examples use (kcentrality 1 and 2); see MaxK.
	K int
	// Samples is the number of randomly sampled source vertices.
	// <= 0 or >= NumVertices means every vertex (exact computation).
	Samples int
	// Seed drives source sampling.
	Seed int64
	// Concurrency bounds how many sources run at once; <= 0 means the
	// worker count. Memory grows linearly with this bound; scores do not
	// depend on it.
	Concurrency int
	// Strategy selects how sampled sources are drawn; the zero value is
	// the paper's uniform ("unguided") sampling.
	Strategy Sampling
	// Sweep selects the Brandes forward-sweep traversal. The zero value
	// SweepAuto direction-optimizes; SweepTopDown forces the classic
	// push-only reference sweep. Scores are bit-identical either way.
	Sweep Sweep
	// Adaptive switches ApproxCentralityCtx to the adaptive pair-sampling
	// estimator with an (ε,δ) absolute-error guarantee (see adaptive.go).
	// Off, it falls back bit-identically to the fixed-k sampling above.
	// Requires K == 0; Samples/Strategy/Sweep are ignored.
	Adaptive bool
	// Epsilon is the adaptive estimator's absolute-error bound on scores
	// normalized to [0,1] (score / n(n-1)); 0 means DefaultEpsilon.
	Epsilon float64
	// Delta is the adaptive estimator's failure probability: with
	// probability ≥ 1−Delta every guarantee-covered vertex is within
	// Epsilon. 0 means DefaultDelta.
	Delta float64
	// AdaptiveTopK relaxes the adaptive stopping rule to a ranked query:
	// stop when every vertex either has radius ≤ Epsilon or provably
	// cannot belong to the top-k set. 0 covers all vertices.
	AdaptiveTopK int
}

// Sweep selects the traversal strategy of the Brandes forward sweeps.
type Sweep int

const (
	// SweepAuto direction-optimizes each level: top-down push while the
	// frontier is small, bottom-up pull (frontier-sigma array) when the
	// frontier's out-edges dominate, per the thresholds shared with
	// bfs.HybridSearch.
	SweepAuto Sweep = iota
	// SweepTopDown forces the classic level-synchronous push sweep on
	// every level — the reference the equivalence tests compare against.
	SweepTopDown
)

// Result holds centrality scores. Sampled scores are scaled by n/|sources|
// so they estimate the exact scores.
type Result struct {
	Scores  []float64
	Sources []int32 // the sources actually used, in sampled order
	K       int
}

// Exact computes classic betweenness centrality from every source.
func Exact(g *graph.Graph) *Result {
	return Centrality(g, Options{})
}

// Approx computes sampled approximate betweenness centrality.
func Approx(g *graph.Graph, samples int, seed int64) *Result {
	return Centrality(g, Options{Samples: samples, Seed: seed})
}

// Centrality computes (k-)betweenness centrality per opt.
func Centrality(g *graph.Graph, opt Options) *Result {
	r, err := CentralityCtx(context.Background(), g, opt)
	if err != nil {
		// Unreachable: the background context never cancels and source
		// tasks produce no other errors.
		panic("bc: source task failed: " + err.Error())
	}
	return r
}

// CentralityCtx computes (k-)betweenness centrality per opt, observing
// cooperative cancellation between source computations — the coarse loop
// is the kernel's natural checkpoint granularity. A cancelled context
// returns ctx.Err() with no result.
func CentralityCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if opt.K < 0 || opt.K > MaxK {
		panic(fmt.Sprintf("bc: k = %d outside supported range [0, %d]", opt.K, MaxK))
	}
	if g.Directed() {
		// The paper treats mention graphs as undirected for centrality;
		// the backward sweeps likewise assume symmetric adjacency.
		g = g.Undirected()
	}
	n := g.NumVertices()
	sources := sampleWithStrategy(g, opt.Samples, opt.Seed, opt.Strategy)
	// Compact graphs decode neighbor rows into a workspace buffer sized to
	// the maximum degree, so the hot sweeps never allocate; raw graphs
	// alias CSR storage and need no buffer.
	nbufCap := 0
	if g.Compacted() {
		nbufCap = g.MaxDegree()
	}
	scores, err := accumulate(ctx, n, sources, opt.Concurrency, func() sourceFunc {
		ws := newWorkspace(n, opt.K, nbufCap)
		if opt.K == 0 {
			return func(s int32, sink scoreSink) { brandesSource(g, s, ws, sink, opt.Sweep) }
		}
		return func(s int32, sink scoreSink) { kbcSource(g, s, ws, sink) }
	})
	if err != nil {
		return nil, err
	}
	return &Result{Scores: scores, Sources: sources, K: opt.K}, nil
}

// sampleSources returns the source set: all vertices when samples is out of
// range, otherwise a uniform sample without replacement.
func sampleSources(n, samples int, seed int64) []int32 {
	if n == 0 {
		return nil
	}
	if samples <= 0 || samples >= n {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int32, samples)
	for i := 0; i < samples; i++ {
		out[i] = int32(perm[i])
	}
	return out
}

// Normalized returns the scores divided by (n-1)(n-2), the number of
// ordered vertex pairs a vertex could broker — the conventional
// normalization that makes scores comparable across graph sizes. Graphs
// with fewer than 3 vertices return zeros.
func (r *Result) Normalized() []float64 {
	n := len(r.Scores)
	out := make([]float64, n)
	if n < 3 {
		return out
	}
	denom := float64(n-1) * float64(n-2)
	for v, s := range r.Scores {
		out[v] = s / denom
	}
	return out
}

// TopK returns the indices of the k highest-scoring vertices in descending
// score order (ties broken by vertex id for determinism). Selection is a
// bounded min-heap over the k best seen so far — O(n log k) instead of
// sorting all n scores, which matters when a server request wants the top
// 10 of a multi-million-vertex graph.
func (r *Result) TopK(k int) []int32 {
	scores := r.Scores
	n := len(scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return []int32{}
	}
	// worse orders by eviction priority: lowest score first, highest id
	// first among ties, so the heap root is always the candidate to drop.
	worse := func(a, b int32) bool {
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		return a > b
	}
	heap := make([]int32, 0, k)
	siftDown := func(i, size int) {
		for {
			l := 2*i + 1
			if l >= size {
				return
			}
			m := l
			if rt := l + 1; rt < size && worse(heap[rt], heap[l]) {
				m = rt
			}
			if !worse(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if len(heap) < k {
			heap = append(heap, v)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			continue
		}
		if worse(heap[0], v) {
			heap[0] = v
			siftDown(0, k)
		}
	}
	// Heap-sort extraction: repeatedly move the worst survivor to the
	// back, leaving best-to-worst order in place.
	for size := k - 1; size > 0; size-- {
		heap[0], heap[size] = heap[size], heap[0]
		siftDown(0, size)
	}
	return heap
}
