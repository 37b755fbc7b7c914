package bc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphct/internal/bfs"
	"graphct/internal/gen"
	"graphct/internal/graph"
)

// deepTreeLike returns a connected, mostly tree-shaped graph whose
// diameter is in the tens: each vertex hangs off one of the few vertices
// just before it, and a sprinkling of short chords closes cycles so
// walks with slack (not only backtracks) exist at many depths.
func deepTreeLike() *graph.Graph {
	const n, chords = 600, 40
	rng := rand.New(rand.NewSource(11))
	edges := make([]graph.Edge, 0, n-1+chords)
	for v := 1; v < n; v++ {
		back := 1 + rng.Intn(min(v, 6))
		edges = append(edges, graph.Edge{U: int32(v - back), V: int32(v)})
	}
	for i := 0; i < chords; i++ {
		v := 12 + rng.Intn(n-12)
		edges = append(edges, graph.Edge{U: int32(v - 2 - rng.Intn(10)), V: int32(v)})
	}
	g, err := graph.FromEdges(n, edges, graph.Options{})
	if err != nil {
		panic(err)
	}
	return g
}

// scoreHash is the SHA-256 of the scores' little-endian float64 bits.
func scoreHash(scores []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range scores {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKBCScoresPinned pins the exact bits of k-betweenness scores, so a
// rewrite of the sweeps must keep every floating-point addition in the
// same order, at any worker count and on the compact encoding too.
func TestKBCScoresPinned(t *testing.T) {
	deep := deepTreeLike()
	if ecc := bfs.Eccentricity(deep, 0); ecc < 20 {
		t.Fatalf("deep graph eccentricity(0) = %d, want >= 20", ecc)
	}
	rmat := gen.RMAT(gen.PaperRMAT(12, 7))
	const deepK1 = "294ad15c4e484dce67316d70ff5decf203a13681a8708780e125998718362fa9"
	const deepK2 = "5d3414c5a3f2e4c1a9de7f160ce8fa18512e34f13976a1f10ea032823340a55a"
	cases := []struct {
		name string
		g    *graph.Graph
		opt  Options
		want string
	}{
		{"rmat12/k1", rmat, Options{K: 1, Samples: 64, Seed: 3},
			"f2812ffaedca56251cb4c4be75c9e99a0b20d69de23112313f000c877570a8c4"},
		{"rmat12/k2", rmat, Options{K: 2, Samples: 64, Seed: 3},
			"3186f7c8dff6d81af2acc7cb70dd9d4c1c18cc2d4980798edf6a34e717a79e80"},
		{"deep/k1", deep, Options{K: 1}, deepK1},
		{"deep/k2", deep, Options{K: 2}, deepK2},
		{"deep-compact/k1", deep.Compact(), Options{K: 1}, deepK1},
		{"deep-compact/k2", deep.Compact(), Options{K: 2}, deepK2},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			if got := scoreHash(Centrality(c.g, c.opt).Scores); got != c.want {
				t.Errorf("%s at GOMAXPROCS=%d: score hash %s, want %s", c.name, procs, got, c.want)
			}
		}
	}
}
