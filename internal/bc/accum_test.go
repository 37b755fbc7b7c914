package bc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

// determinismCase is one kernel configuration whose scores must not
// depend on the machine: run returns the scores for the current
// GOMAXPROCS and the given Options.Concurrency.
type determinismCase struct {
	name string
	run  func(concurrency int) []float64
}

// determinismCases covers every kernel the driver serves — Centrality at
// k = 0, 1, 2 (exact and sampled), DirectedCentrality and
// WeightedCentrality — on one R-MAT and one Erdős–Rényi input each.
func determinismCases(t *testing.T) []determinismCase {
	families := []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"rmat", 1 << 8, gen.RMATEdges(gen.PaperRMAT(8, 5))},
		{"erdos-renyi", 300, erdosRenyiEdges(300, 1200, 3)},
	}
	var cases []determinismCase
	for _, f := range families {
		und, err := graph.FromEdges(f.n, f.edges, graph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dir, err := graph.FromEdges(f.n, f.edges, graph.Options{Directed: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		wes := make([]graph.WeightedEdge, len(f.edges))
		for i, e := range f.edges {
			wes[i] = graph.WeightedEdge{U: e.U, V: e.V, W: 1 + rng.Int31n(4)}
		}
		wtd, err := graph.FromWeightedEdges(f.n, wes, graph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, samples := range []int{0, 37} {
			mode := "exact"
			if samples > 0 {
				mode = "sampled"
			}
			for k := 0; k <= MaxK; k++ {
				opt := Options{K: k, Samples: samples, Seed: 9}
				cases = append(cases, determinismCase{fmt.Sprintf("%s/k%d-%s", f.name, k, mode), func(c int) []float64 {
					o := opt
					o.Concurrency = c
					return Centrality(und, o).Scores
				}})
			}
			cases = append(cases, determinismCase{fmt.Sprintf("%s/directed-%s", f.name, mode), func(c int) []float64 {
				return DirectedCentrality(dir, DirectedOptions{Samples: samples, Seed: 9, Concurrency: c}).Scores
			}})
			cases = append(cases, determinismCase{fmt.Sprintf("%s/weighted-%s", f.name, mode), func(c int) []float64 {
				r, err := WeightedCentrality(wtd, Options{Samples: samples, Seed: 9, Concurrency: c})
				if err != nil {
					t.Fatal(err)
				}
				return r.Scores
			}})
		}
	}
	return cases
}

func erdosRenyiEdges(n, m int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return edges
}

// TestKernelDeterminism pins the determinism contract: every kernel's
// scores are bit-identical across GOMAXPROCS 1/2/4 × Concurrency 1/3/8,
// because the driver's chunk → stripe partition and stripe fold depend
// only on the graph and the source list.
func TestKernelDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range determinismCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			want := tc.run(1)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, c := range []int{1, 3, 8} {
					got := tc.run(c)
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("GOMAXPROCS=%d Concurrency=%d: v=%d score %v, want %v (GOMAXPROCS=1 Concurrency=1)",
								procs, c, v, got[v], want[v])
						}
					}
				}
			}
		})
	}
}

// TestHybridSweepMatchesReference checks the direction-optimized forward
// sweep against the pure top-down reference on 50 seeded random graphs.
// The pull-style backward sweep fixes summation order, so the match is
// exact, not approximate.
func TestHybridSweepMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		// Dense enough that middle BFS levels trip the bottom-up
		// thresholds (frontier > n/beta vertices and > remaining/alpha
		// edges).
		g := gen.ErdosRenyi(400, 2400, seed)
		hyb := Centrality(g, Options{Sweep: SweepAuto}).Scores
		ref := Centrality(g, Options{Sweep: SweepTopDown}).Scores
		for v := range ref {
			if hyb[v] != ref[v] {
				t.Fatalf("seed %d v=%d: hybrid %v != reference %v", seed, v, hyb[v], ref[v])
			}
		}
	}
}

// TestHybridSweepTakesBottomUpLevels guards against the hybrid path
// silently degrading to top-down (which would pass the equivalence test
// while losing the optimization): on a dense random graph at least one
// level of a single-source sweep must run bottom-up.
func TestHybridSweepTakesBottomUpLevels(t *testing.T) {
	g := gen.ErdosRenyi(400, 2400, 1)
	n := g.NumVertices()
	ws := newWorkspace(n, 0, 0)
	sink := scoreSink{local: make([]float64, n), scale: 1}
	brandesSource(g, 0, ws, sink, SweepAuto)
	// brandesSource resets the workspace, but the bottom-up level counter
	// survives reset.
	if ws.bottomUps == 0 {
		t.Fatal("no level ran bottom-up on a dense graph; thresholds broken?")
	}
}

// TestAccumulatorAutoSelection pins the stripe policy: S = min(16,
// sources, budget/8n) with a floor of 1, a function of n and the source
// count only.
func TestAccumulatorAutoSelection(t *testing.T) {
	for _, tc := range []struct{ n, sources, want int }{
		{1000, 1000, maxStripes},
		{1000, 5, 5},
		{1000, 0, 1},
		{0, 0, 1},
		{stripeBudget / (8 * 4), 1000, 4}, // budget fits 4 stripes
		{stripeBudget/(8*4) + 1, 1000, 3}, // one vertex more: 3
		{stripeBudget, 1000, 1},           // past the budget: floor
	} {
		if got := stripeCount(tc.n, tc.sources); got != tc.want {
			t.Errorf("stripeCount(%d, %d) = %d, want %d", tc.n, tc.sources, got, tc.want)
		}
	}
}
