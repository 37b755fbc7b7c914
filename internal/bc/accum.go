package bc

import (
	"context"
	"sync"
	"sync/atomic"

	"graphct/internal/par"
)

// maxStripes caps the number of source chunks, and so of score stripes,
// one centrality run splits its sources into. Sixteen chunks keep two to
// eight workers busy to within one chunk of the tail; more would only add
// stripe memory and merge passes.
const maxStripes = 16

// stripeBudget is the memory the score stripes may take: S × n × 8 bytes
// must fit. 256 MiB keeps all 16 stripes up to ~2M vertices; past that the
// chunk count shrinks, down to one chunk past ~33M vertices.
const stripeBudget = 256 << 20

// stripeCount returns S, the number of contiguous source chunks and score
// stripes: min(maxStripes, sources, stripeBudget/(8n)), at least 1. It
// depends on n and the source count only — never on the worker count — so
// the partition, and with it every floating-point sum, is the same on any
// machine.
func stripeCount(n, sources int) int {
	s := maxStripes
	if sources < s {
		s = sources
	}
	if n > 0 && stripeBudget/(8*n) < s {
		s = stripeBudget / (8 * n)
	}
	if s < 1 {
		s = 1
	}
	return s
}

// scoreSink is the stripe one source computation adds its dependency
// contributions into, scaled by n/|sources| for sampled runs. A stripe
// belongs to one chunk and a chunk runs on one worker, so plain adds
// suffice.
type scoreSink struct {
	local []float64
	scale float64
}

func (sk scoreSink) add(v int32, x float64) {
	sk.local[v] += sk.scale * x
}

// sourceFunc runs one source's sweeps into sink.
type sourceFunc func(s int32, sink scoreSink)

// accumulate is the source-parallel driver behind every Brandes kernel.
// It splits sources into stripeCount contiguous chunks; chunk i owns
// stripe i, and whichever worker claims it runs the chunk's sources in
// source order. The stripes are then folded by par.SumSlices, whose
// pairwise tree is fixed for a given S. Every score is therefore the same
// sequence of float64 additions whatever GOMAXPROCS or concurrency is —
// the determinism contract in the package comment.
//
// At most concurrency workers (<= 0 means par.Workers()) run at once,
// each calling newWorker once for the workspace it reuses across all the
// sources it runs, so working memory stays O(workers·(m+n)) plus S·n
// stripe floats. Workers check ctx between sources; a cancelled context
// returns ctx.Err() and no scores.
func accumulate(ctx context.Context, n int, sources []int32, concurrency int, newWorker func() sourceFunc) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scale := 1.0
	if len(sources) > 0 && len(sources) < n {
		scale = float64(n) / float64(len(sources))
	}
	chunks := stripeCount(n, len(sources))
	stripes := make([][]float64, chunks)
	workers := concurrency
	if workers <= 0 {
		workers = par.Workers()
	}
	if workers > chunks {
		workers = chunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			run := newWorker()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks || ctx.Err() != nil {
					return
				}
				stripe := make([]float64, n)
				stripes[c] = stripe
				sink := scoreSink{local: stripe, scale: scale}
				for _, s := range sources[c*len(sources)/chunks : (c+1)*len(sources)/chunks] {
					if ctx.Err() != nil {
						return
					}
					run(s, sink)
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	par.SumSlices(out, stripes)
	return out, nil
}
