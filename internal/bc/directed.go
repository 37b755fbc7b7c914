package bc

import (
	"context"

	"graphct/internal/graph"
)

// DirectedOptions configures directed-flow betweenness centrality — the
// paper's "directed model connecting only @foo to @bar could model
// directed flow and is of future interest". Shortest paths follow arc
// direction; the backward sweep scans the transpose graph for
// predecessors.
type DirectedOptions struct {
	Samples     int
	Seed        int64
	Concurrency int
	Strategy    Sampling
}

// DirectedCentrality computes betweenness centrality over directed
// shortest paths. The input must be a directed graph; undirected graphs
// should use Centrality, which treats each edge as bidirectional.
func DirectedCentrality(g *graph.Graph, opt DirectedOptions) *Result {
	if !g.Directed() {
		// An undirected graph already encodes both arc directions.
		return Centrality(g, Options{Samples: opt.Samples, Seed: opt.Seed,
			Concurrency: opt.Concurrency, Strategy: opt.Strategy})
	}
	n := g.NumVertices()
	rev := g.Reverse()
	sources := sampleWithStrategy(g, opt.Samples, opt.Seed, opt.Strategy)
	// The background context never cancels, so accumulate cannot fail.
	scores, _ := accumulate(context.Background(), n, sources, opt.Concurrency, func() sourceFunc {
		ws := newWorkspace(n, 0, 0)
		return func(s int32, sink scoreSink) { directedSource(g, rev, s, ws, sink) }
	})
	return &Result{Scores: scores, Sources: sources}
}

// directedSource is Brandes over directed arcs: forward BFS follows
// out-arcs; the dependency sweep finds predecessors by scanning the
// transpose adjacency.
func directedSource(g, rev *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	defer ws.reset()
	dist, sigma, delta := ws.dist, ws.sigma, ws.delta
	dist[s] = 0
	sigma[s] = 1
	ws.order = append(ws.order, s)
	frontier := ws.order[0:1]
	for len(frontier) > 0 {
		end := len(ws.order)
		for _, u := range frontier {
			du, su := dist[u], sigma[u]
			for _, v := range g.Neighbors(u) {
				if dist[v] == -1 {
					dist[v] = du + 1
					ws.order = append(ws.order, v)
				}
				if dist[v] == du+1 {
					sigma[v] += su
				}
			}
		}
		frontier = ws.order[end:]
	}
	for i := len(ws.order) - 1; i > 0; i-- {
		w := ws.order[i]
		coef := (1 + delta[w]) / sigma[w]
		dw := dist[w]
		for _, v := range rev.Neighbors(w) {
			if dist[v] == dw-1 {
				delta[v] += sigma[v] * coef
			}
		}
		sink.add(w, delta[w])
	}
}
