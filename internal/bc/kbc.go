package bc

import "graphct/internal/graph"

// kbcSource accumulates one source's k-betweenness contributions into
// sink. Following Jiang, Ediger & Bader, it counts walks of length up to
// k beyond the shortest path: after a BFS fixes distances, a forward sweep
// in path-length order computes sigma[v][j] — the number of admissible
// walks from s reaching v with slack j in [0, k] — and a backward sweep
// evaluates the generalized Brandes recurrence.
//
// With sigTot[t] = Σ_j sigma[t][j] (the paper's σ^k_st), the backward pass
// computes D[v][j] = Σ_t (walks v→t using the remaining slack)/sigTot[t],
// giving each vertex the closed-form credit Σ_j sigma[v][j]·D[v][j] − 1
// (the −1 removes v's own contribution as a path endpoint). At k = 0 this
// reduces exactly to Brandes's betweenness, which the tests verify.
//
// The source never appears as an intermediate or target vertex: walks
// re-entering s are not counted (sigma[s][j>0] stays 0 and s is skipped in
// the backward sums). Both sweeps run serially on the calling worker; the
// driver's parallelism is over sources.
func kbcSource(g *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	defer ws.reset()
	k := ws.k
	stride := k + 1
	dist, sigma, dep, sigTot := ws.dist, ws.sigma, ws.delta, ws.sigTot

	// Phase 1: BFS from s recording visitation order and level offsets.
	dist[s] = 0
	ws.order = append(ws.order, s)
	ws.levelStart = append(ws.levelStart, 0)
	frontier := ws.order[0:1]
	for len(frontier) > 0 {
		frontierEnd := len(ws.order)
		for _, u := range frontier {
			du := dist[u]
			for _, v := range g.NeighborsInto(&ws.nbuf, u) {
				if dist[v] == -1 {
					dist[v] = du + 1
					ws.order = append(ws.order, v)
				}
			}
		}
		if len(ws.order) == frontierEnd {
			break
		}
		ws.levelStart = append(ws.levelStart, frontierEnd)
		frontier = ws.order[frontierEnd:]
	}
	maxDist := len(ws.levelStart) - 1
	maxLen := maxDist + k

	// window returns the vertices a walk of length L can end on with
	// slack in [0, k]: levels L−k … L, contiguous in BFS order.
	window := func(L int) []int32 {
		lo := max(L-k, 0)
		if lo > maxDist {
			return nil
		}
		end := len(ws.order)
		if L+1 <= maxDist {
			end = ws.levelStart[L+1]
		}
		return ws.order[ws.levelStart[lo]:end]
	}

	// The sweeps gather from a dense, walk-length-indexed pair of arrays
	// rather than testing each neighbor's distance and slack: walks[L&1][u]
	// holds the length-L term of u (sigma[u][L−dist[u]] forward,
	// dep[u][L−dist[u]] backward) when that slack is in [0, k], and 0
	// everywhere else, the source included past length 0. A length is
	// zeroed on its window as soon as the next one is computed, so each
	// array is all-zero outside one window. Adding +0 leaves a
	// non-negative sum unchanged, so each sum is the admissible terms
	// added in adjacency order.
	if ws.walks[0] == nil {
		ws.walks = [2][]float64{make([]float64, ws.n), make([]float64, ws.n)}
	}
	zero := func(a []float64, vs []int32) {
		for _, v := range vs {
			a[v] = 0
		}
	}

	// Phase 2: forward sweep in increasing walk length L. A walk of
	// length L arrives at v with slack j = L − dist[v] from a neighbor
	// that a length-(L−1) walk reached.
	sigma[int(s)*stride] = 1
	prev, cur := ws.walks[0], ws.walks[1]
	prev[s] = 1
	for L := 1; L <= maxLen; L++ {
		for _, v := range window(L) {
			if v == s {
				continue
			}
			var sv float64
			for _, u := range g.NeighborsInto(&ws.nbuf, v) {
				sv += prev[u]
			}
			sigma[int(v)*stride+L-int(dist[v])] = sv
			cur[v] = sv
		}
		zero(prev, window(L-1))
		prev, cur = cur, prev
	}
	zero(prev, window(maxLen))
	for _, v := range ws.order {
		var tot float64
		base := int(v) * stride
		for j := 0; j <= k; j++ {
			tot += sigma[base+j]
		}
		sigTot[v] = tot
	}

	// Phase 3: backward sweep in decreasing walk length. dep[v][j] sums,
	// over targets t, the admissible v→t walk continuations divided by
	// sigTot[t]; the empty continuation contributes v's own target term.
	// next holds the length-(L+1) terms, never the source's: walks that
	// re-enter s are not counted.
	next := prev
	for L := maxLen; L >= 0; L-- {
		for _, v := range window(L) {
			var dv float64
			if v != s {
				dv = 1 / sigTot[v]
			}
			for _, w := range g.NeighborsInto(&ws.nbuf, v) {
				dv += next[w]
			}
			dep[int(v)*stride+L-int(dist[v])] = dv
			if v != s {
				cur[v] = dv
			}
		}
		zero(next, window(L+1))
		next, cur = cur, next
	}

	// Credit: Σ_j sigma[v][j]·dep[v][j] overcounts pairs whose target is v
	// itself. Walks ending at v contribute sigTot[v] final arrivals (the
	// constant −1 after normalization) plus, at k = 2, one interior visit
	// per walk that backtracked v→w→v at slack 0 — there are
	// sigma[v][0]·bt(v) of those, with bt(v) the reachable non-source
	// neighbor count. Slack bounds make deeper self-returns impossible
	// for k ≤ 2, which is why the kernel caps k there.
	for _, v := range ws.order {
		if v == s {
			continue
		}
		base := int(v) * stride
		var credit float64
		for j := 0; j <= k; j++ {
			credit += sigma[base+j] * dep[base+j]
		}
		credit -= 1
		if k >= 2 {
			bt := 0
			for _, w := range g.NeighborsInto(&ws.nbuf, v) {
				if w != s && w != v && dist[w] != -1 {
					bt++
				}
			}
			credit -= sigma[base] * float64(bt) / sigTot[v]
		}
		if credit > 0 {
			sink.add(v, credit)
		}
	}
}
