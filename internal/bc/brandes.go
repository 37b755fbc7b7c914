package bc

import (
	"graphct/internal/bfs"
	"graphct/internal/graph"
)

// workspace holds the per-source O(m+n) arrays. Each driver worker owns
// one and reuses it for every source it runs, so concurrent sources bound
// total memory at O(S·(m+n)) for S in-flight sources, matching the paper's
// memory model. Arrays are kept clean between runs by resetting only the
// vertices the previous search touched.
//
// The per-vertex state stays in separate dense arrays rather than an
// interleaved struct-of-one-record layout: the whole per-source state
// fits L2 at bench scales and the hot entries are the relabeled hubs,
// which dense arrays pack 16-per-cache-line into L1 — measured faster
// than interleaving, which only pays off when every field access misses.
type workspace struct {
	n, k       int
	dist       []int32
	sigma      []float64 // path counts; stride k+1 per vertex when k > 0
	delta      []float64 // dependencies; same shape as sigma
	sigTot     []float64 // per-vertex total short-path count (k > 0 only)
	order      []int32   // visitation order of the last search
	levelStart []int     // offsets into order where each BFS level begins
	nbuf       []int32   // neighbor decode buffer for compact graphs
	bottomUps  int       // levels discovered pull-style; survives reset (test sentinel)
}

func newWorkspace(n, k, nbufCap int) *workspace {
	ws := &workspace{
		n:      n,
		k:      k,
		dist:   make([]int32, n),
		sigma:  make([]float64, n*(k+1)),
		delta:  make([]float64, n*(k+1)),
		sigTot: make([]float64, n),
		order:  make([]int32, 0, n),
		nbuf:   make([]int32, 0, nbufCap),
	}
	for i := range ws.dist {
		ws.dist[i] = -1
	}
	return ws
}

// reset clears the entries touched by the last search.
func (ws *workspace) reset() {
	stride := ws.k + 1
	for _, v := range ws.order {
		ws.dist[v] = -1
		base := int(v) * stride
		for j := 0; j < stride; j++ {
			ws.sigma[base+j] = 0
			ws.delta[base+j] = 0
		}
		if ws.sigTot != nil {
			ws.sigTot[v] = 0
		}
	}
	ws.order = ws.order[:0]
	ws.levelStart = ws.levelStart[:0]
}

// brandesSource runs one source's forward and backward sweeps,
// accumulating scaled dependency contributions into sink.
//
// The forward sweep is level-synchronous and direction-optimizing: each
// level runs top-down (push from the frontier) or bottom-up (every
// unvisited vertex pulls path counts straight from the frontier-sigma
// array) by the Beamer thresholds shared with bfs.HybridSearch. On
// scale-free graphs the two or three hub-dominated middle levels hold most
// of the edges; bottom-up stops those levels from scanning the whole edge
// list through the frontier.
//
// The backward sweep pulls dependencies from successors in sorted
// adjacency order, so the resulting scores are bit-identical whichever
// forward strategy discovered each level — the property the equivalence
// tests pin down. (Path counts are integer-valued, so forward summation
// order cannot perturb them either.)
func brandesSource(g *graph.Graph, s int32, ws *workspace, sink scoreSink, sweep Sweep) {
	defer ws.reset()
	dist, sigma := ws.dist, ws.sigma
	dist[s] = 0
	sigma[s] = 1
	ws.order = append(ws.order, s)
	ws.levelStart = append(ws.levelStart, 0)
	frontier := ws.order[0:1]
	n := int64(g.NumVertices())
	remaining := g.NumArcs()
	hybrid := sweep != SweepTopDown && !g.Directed()
	for len(frontier) > 0 {
		var frontierEdges int64
		for _, u := range frontier {
			frontierEdges += int64(g.Degree(u))
		}
		remaining -= frontierEdges
		frontierEnd := len(ws.order)
		if hybrid && frontierEdges > remaining/bfs.HybridAlpha && int64(len(frontier)) > n/bfs.HybridBeta {
			ws.bottomUpLevel(g, frontier)
		} else {
			ws.topDownLevel(g, frontier)
		}
		if len(ws.order) == frontierEnd {
			break
		}
		ws.levelStart = append(ws.levelStart, frontierEnd)
		frontier = ws.order[frontierEnd:]
	}
	backwardSweep(g, s, ws, sink)
}

// topDownLevel expands the frontier push-style: the classic Brandes step,
// O(frontier out-edges). NeighborsInto keeps the raw path an aliased CSR
// subslice and decodes compact rows into the workspace buffer, so the loop
// body is identical either way and allocation-free after warmup.
func (ws *workspace) topDownLevel(g *graph.Graph, frontier []int32) {
	dist, sigma := ws.dist, ws.sigma
	for _, u := range frontier {
		du := dist[u]
		su := sigma[u]
		for _, v := range g.NeighborsInto(&ws.nbuf, u) {
			if dist[v] == -1 {
				dist[v] = du + 1
				ws.order = append(ws.order, v)
			}
			if dist[v] == du+1 {
				sigma[v] += su
			}
		}
	}
}

// bottomUpLevel discovers the next level pull-style: every unvisited
// vertex scans its own adjacency and sums frontier path counts in one
// shot. O(unvisited-vertex edges), which on hub levels is far less than
// the frontier's out-edges.
//
// Frontier membership is encoded in the values themselves: fsig holds
// sigma[u] for frontier vertices and 0 everywhere else, so the inner loop
// is an unconditional load-and-add — no membership test, no branch to
// mispredict on the hub levels where half the neighbors are frontier.
// ws.delta is dead during the forward sweep (zeroed by reset) and hosts
// fsig; the frontier entries are re-zeroed before returning, restoring
// the all-zero invariant the next bottom-up level (and reset's
// bookkeeping) relies on.
func (ws *workspace) bottomUpLevel(g *graph.Graph, frontier []int32) {
	ws.bottomUps++
	fsig := ws.delta
	sigma := ws.sigma
	for _, u := range frontier {
		fsig[u] = sigma[u]
	}
	d := ws.dist[frontier[0]] + 1
	dist := ws.dist
	for v := int32(0); int(v) < ws.n; v++ {
		if dist[v] != -1 {
			continue
		}
		var sv float64
		for _, u := range g.NeighborsInto(&ws.nbuf, v) {
			sv += fsig[u]
		}
		if sv != 0 {
			dist[v] = d
			sigma[v] = sv
			ws.order = append(ws.order, v)
		}
	}
	for _, u := range frontier {
		fsig[u] = 0
	}
}

// backwardSweep evaluates the Brandes dependency recurrence pull-style,
// deepest level first: delta[v] = sigma[v] · Σ (1+delta[w])/sigma[w] over
// v's successors w in sorted adjacency order. Pulling makes each vertex
// the only writer of its own delta entry and fixes the floating-point
// summation order independently of visitation order.
//
// The successor term (1+delta[w])/sigma[w] is materialized into coef[w]
// once per vertex, and the level structure makes the successor test
// itself free: a neighbor of a level-li vertex can only live on levels
// li-1, li or li+1, so if coef is populated for strictly deeper levels
// only — each level's coefficients are published in a second pass, after
// every delta of that level is computed — then coef[w] is nonzero exactly
// for successors and zero otherwise (unset levels and unreached vertices
// read as the cleared 0). The inner loop is one load and one add per
// edge: no dist read, no branch, no divide. ws.sigTot is dead in the
// k=0 path and hosts coef without a new allocation.
func backwardSweep(g *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	sigma, delta := ws.sigma, ws.delta
	coef := ws.sigTot
	for li := len(ws.levelStart) - 1; li >= 0; li-- {
		lo := ws.levelStart[li]
		hi := len(ws.order)
		if li+1 < len(ws.levelStart) {
			hi = ws.levelStart[li+1]
		}
		lvl := ws.order[lo:hi]
		for _, v := range lvl {
			var dsum float64
			for _, w := range g.NeighborsInto(&ws.nbuf, v) {
				dsum += coef[w]
			}
			dsum *= sigma[v]
			delta[v] = dsum
			if v != s {
				sink.add(v, dsum)
			}
		}
		// Publish this level's coefficients only now: during the pass
		// above, same-level neighbors must still read coef == 0.
		for _, v := range lvl {
			coef[v] = (1 + delta[v]) / sigma[v]
		}
	}
}
