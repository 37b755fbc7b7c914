package kernel

import (
	"context"
	"math"
	"strconv"

	"graphct/internal/api"
	"graphct/internal/bc"
	"graphct/internal/stats"
)

// Expensive kernels are the ones whose single run can hold an admission
// slot for seconds to minutes (sampled betweenness, diameter estimation:
// both sweep many BFS/SSSP sources); everything else answers in
// microseconds to tens of milliseconds and must never queue behind them.
var table = []*Kernel{
	{Name: "components", Class: api.ClassCheap, run: components},
	{Name: "stats", Class: api.ClassCheap, run: graphStats},
	{Name: "degrees", Class: api.ClassCheap,
		run: func(_ context.Context, in Input, _ Call) (any, error) {
			return in.toolkit(in.Graph).DegreeStats(), nil
		}},
	{Name: "clustering", Class: api.ClassCheap,
		run: func(_ context.Context, in Input, _ Call) (any, error) {
			return map[string]any{"global_clustering": in.toolkit(in.Graph).GlobalClustering()}, nil
		}},
	{Name: "diameter", Class: api.ClassExpensive,
		run: func(ctx context.Context, in Input, _ Call) (any, error) {
			return in.toolkit(in.Graph).DiameterCtx(ctx)
		}},
	{Name: "kcores", Class: api.ClassCheap,
		Params: []Param{{Name: "k", Kind: Int, Def: "1", Min: 0, Max: math.MaxInt32}},
		run:    kcores},
	{Name: "kcentrality", Class: api.ClassExpensive,
		Params: []Param{
			{Name: "k", Kind: Int, Def: "0", Min: 0, Max: bc.MaxK},
			{Name: "samples", Kind: Int, Def: "256"},
			topParam,
		},
		run: kcentrality},
	// Adaptive (ε,δ)-guaranteed mode: epsilon selects it and delta rides
	// along, defaulting like the estimator.
	{Name: "kcentrality", Class: api.ClassExpensive,
		Params: []Param{
			{Name: "delta", Kind: Unit, Def: strconv.FormatFloat(bc.DefaultDelta, 'g', -1, 64)},
			{Name: "epsilon", Kind: Unit},
			{Name: "k", Kind: Int, Def: "0", Min: 0, Max: bc.MaxK},
			topParam,
		},
		when:  []string{"epsilon", "delta"},
		check: adaptiveRules,
		run:   adaptiveKCentrality},
	{Name: "bfs", Class: api.ClassCheap,
		Params: []Param{
			{Name: "depth", Kind: Int, Def: "-1"},
			{Name: "src", Kind: Vertex, Def: "0", Max: math.MaxInt32},
		},
		run: bfs},
	{Name: "sssp", Class: api.ClassCheap,
		Params: []Param{{Name: "src", Kind: Vertex, Def: "0", Max: math.MaxInt32}},
		run:    shortestPaths},
}

// topParam sizes a centrality ranking. It has no upper bound: rankings
// are sized by the vertices actually ranked, never by the request.
var topParam = Param{Name: "top", Kind: Int, Def: "10", Min: 1, Max: math.MaxInt}

func components(_ context.Context, in Input, _ Call) (any, error) {
	census := in.toolkit(in.Graph).ComponentCensus()
	type comp struct {
		Rank int   `json:"rank"`
		Size int64 `json:"size"`
	}
	top := make([]comp, min(len(census), 20))
	for i := range top {
		top[i] = comp{Rank: i + 1, Size: census[i].Size}
	}
	return map[string]any{"count": len(census), "largest": top}, nil
}

func graphStats(_ context.Context, in Input, _ Call) (any, error) {
	g := in.Graph
	ds := in.toolkit(g).DegreeStats()
	alpha, used := stats.PowerLawAlpha(g, 4)
	return map[string]any{
		"vertices": g.NumVertices(), "edges": g.NumEdges(),
		"degree_mean": ds.Mean, "degree_variance": ds.Variance, "degree_max": ds.Max,
		"power_law_alpha": alpha, "power_law_fit_vertices": used,
	}, nil
}

func kcores(_ context.Context, in Input, c Call) (any, error) {
	t := in.toolkit(in.Graph)
	t.KCores(int32(c.Int("k")))
	sub := t.Graph()
	return map[string]any{"k": c.Int("k"), "vertices": sub.NumVertices(), "edges": sub.NumEdges()}, nil
}

type scored struct {
	Vertex int32   `json:"vertex"`
	Score  float64 `json:"score"`
}

// ranking lists the call's top vertices in client-visible ids: a
// relabeled graph must never leak internal labels. It is sized by the
// ranking itself, which holds at most n vertices whatever top the client
// asked for.
func ranking(in Input, res *bc.Result, c Call) []scored {
	top := res.TopK(c.Int("top"))
	out := make([]scored, len(top))
	for i, v := range top {
		out[i] = scored{Vertex: in.ToExternal(v), Score: res.Scores[v]}
	}
	return out
}

// Centrality treats the graph as undirected; running on the entry's
// memoized view keeps concurrent requests on a directed graph from each
// paying (or racing to share) the symmetrization inside the kernel.
func kcentrality(ctx context.Context, in Input, c Call) (any, error) {
	k := c.Int("k")
	res, err := in.toolkit(in.Undirected()).KCentralityCtx(ctx, k, c.Int("samples"))
	if err != nil {
		return nil, err
	}
	return map[string]any{"k": k, "sources": len(res.Sources), "top": ranking(in, res, c)}, nil
}

// adaptiveRules: the guarantee covers classic betweenness only, so k
// must stay 0; samples is the fixed mode's knob and would be ignored, so
// it is rejected rather than let callers believe it did something.
func adaptiveRules(c Call, given func(string) bool) error {
	if k := c.Int("k"); k != 0 {
		return invalid("epsilon requires k=0 (adaptive mode is classic betweenness; got k=%d)", k)
	}
	if given("samples") {
		return invalid("samples and epsilon are mutually exclusive (the adaptive estimator sizes its own sample count)")
	}
	return nil
}

func adaptiveKCentrality(ctx context.Context, in Input, c Call) (any, error) {
	res, err := in.toolkit(in.Undirected()).ApproxCentralityCtx(ctx, c.Float("epsilon"), c.Float("delta"), 0)
	if err != nil {
		return nil, err
	}
	return map[string]any{"k": 0, "top": ranking(in, &res.Result, c), "guarantee": res.Guarantee}, nil
}

// bfs and sssp take src as the client's id; the kernels run on internal
// labels.
func bfs(_ context.Context, in Input, c Call) (any, error) {
	src := int32(c.Int("src"))
	res := in.toolkit(in.Graph).BFS(in.ToInternal(src), c.Int("depth"))
	return map[string]any{"src": src, "reached": res.NumReached(), "depth": res.Depth}, nil
}

func shortestPaths(ctx context.Context, in Input, c Call) (any, error) {
	src := int32(c.Int("src"))
	res, err := in.toolkit(in.Graph).SSSPCtx(ctx, in.ToInternal(src))
	if err != nil {
		return nil, err
	}
	reached, maxDist := res.Extent()
	return map[string]any{"src": src, "reached": reached, "max_distance": maxDist}, nil
}
