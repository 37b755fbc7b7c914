package bc

import (
	"container/heap"
	"context"
	"fmt"

	"graphct/internal/graph"
)

// WeightedCentrality computes betweenness centrality over weighted
// shortest paths (Brandes's Dijkstra variant): the DIMACS weight column
// the loader preserves defines path lengths, and path counts follow ties
// in total weight. Unweighted graphs reduce exactly to Centrality. Only
// classic betweenness (k = 0) is supported for weighted graphs; sampling
// and concurrency behave as in Centrality. Negative weights are an error.
func WeightedCentrality(g *graph.Graph, opt Options) (*Result, error) {
	if opt.K != 0 {
		return nil, fmt.Errorf("bc: weighted k-betweenness not supported (k = %d)", opt.K)
	}
	if g.Directed() {
		g = g.Undirected() // projection drops weights: documented behavior
	}
	if !g.Weighted() {
		return Centrality(g, opt), nil
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Weights(int32(v)) {
			if w < 0 {
				return nil, fmt.Errorf("bc: negative edge weight %d at vertex %d", w, v)
			}
		}
	}
	n := g.NumVertices()
	sources := sampleWithStrategy(g, opt.Samples, opt.Seed, opt.Strategy)
	// The background context never cancels, so accumulate cannot fail.
	scores, _ := accumulate(context.Background(), n, sources, opt.Concurrency, func() sourceFunc {
		ws := newWeightedWorkspace(n)
		return func(s int32, sink scoreSink) { weightedSource(g, s, ws, sink) }
	})
	return &Result{Scores: scores, Sources: sources}, nil
}

// weightedWorkspace is the Dijkstra counterpart of workspace: reused
// across one worker's sources and reset over the vertices the last search
// settled (every vertex Dijkstra reaches is pushed, so it is settled).
type weightedWorkspace struct {
	dist         []int64
	sigma, delta []float64
	settled      []bool
	order        []int32
	pq           distHeap
}

func newWeightedWorkspace(n int) *weightedWorkspace {
	ws := &weightedWorkspace{
		dist:    make([]int64, n),
		sigma:   make([]float64, n),
		delta:   make([]float64, n),
		settled: make([]bool, n),
	}
	for i := range ws.dist {
		ws.dist[i] = -1 // -1 = unreached; weights are non-negative
	}
	return ws
}

func (ws *weightedWorkspace) reset() {
	for _, v := range ws.order {
		ws.dist[v] = -1
		ws.sigma[v] = 0
		ws.delta[v] = 0
		ws.settled[v] = false
	}
	ws.order = ws.order[:0]
}

// weightedSource is Brandes with Dijkstra: dist and sigma are settled in
// non-decreasing distance order, and the dependency sweep walks vertices
// in decreasing distance.
func weightedSource(g *graph.Graph, s int32, ws *weightedWorkspace, sink scoreSink) {
	defer ws.reset()
	dist, sigma, delta, settled := ws.dist, ws.sigma, ws.delta, ws.settled
	dist[s] = 0
	sigma[s] = 1
	ws.pq = append(ws.pq[:0], distItem{v: s, d: 0})
	pq := &ws.pq
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		// Two live entries can carry the same final distance (pushed by
		// different predecessors); settle each vertex exactly once.
		if settled[item.v] || item.d > dist[item.v] {
			continue
		}
		settled[item.v] = true
		ws.order = append(ws.order, item.v)
		nbr := g.Neighbors(item.v)
		wts := g.Weights(item.v)
		for i, u := range nbr {
			if u == item.v {
				continue // self loops never lie on shortest paths
			}
			nd := item.d + int64(wts[i])
			switch {
			case dist[u] == -1 || nd < dist[u]:
				dist[u] = nd
				sigma[u] = sigma[item.v]
				heap.Push(pq, distItem{v: u, d: nd})
			case nd == dist[u]:
				sigma[u] += sigma[item.v]
			}
		}
	}
	// Dijkstra may pop a vertex more than once only via stale entries,
	// filtered above, so ws.order holds each reached vertex once in
	// non-decreasing distance; accumulate dependencies in reverse.
	for i := len(ws.order) - 1; i > 0; i-- {
		w := ws.order[i]
		coef := (1 + delta[w]) / sigma[w]
		nbr := g.Neighbors(w)
		wts := g.Weights(w)
		for j, v := range nbr {
			if v == w {
				continue
			}
			if dist[v] != -1 && dist[v]+int64(wts[j]) == dist[w] {
				delta[v] += sigma[v] * coef
			}
		}
		sink.add(w, delta[w])
	}
}

// distHeap is shared with the SSSP-style Dijkstra above.
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
