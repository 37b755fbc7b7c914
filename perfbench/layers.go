package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"graphct/internal/bc"
	"graphct/internal/bfs"
	"graphct/internal/blob"
	"graphct/internal/core"
	"graphct/internal/graph"
	"graphct/internal/server"
	"graphct/internal/stats"
	"graphct/internal/stream"
	"graphct/internal/tweets"
	"graphct/internal/wal"
)

// Per-layer figures come from spans the benchmark records around its
// calls into each layer's public functions. Where a workload does not
// call a layer itself, the traced run calls it on the workload's own
// graph or batches after the measured phases (a probe), so every layer
// has a figure on every workload.

const (
	snapshotEvery     = 4096 // graphctd's default -snapshot-every
	maxProbeAppends   = 256  // fsync'd WAL appends timed per probe
	maxProbeSnapshots = 32   // stream snapshots timed per probe
	maxProbePersists  = 16   // blob persists timed per probe
	maxKernelReplays  = 100  // bfs reads replayed to split handler time
)

// spanMetrics maps span names to the per-layer metrics of their median
// duration, and (rate != "") of work per second in rateUnit.
var spanMetrics = []struct{ span, metric, rate, rateUnit string }{
	{"tweets.build", "tweets.build_ms", "", ""},
	{"graph.csr_build", "graph.csr_build_ms", "", ""},
	{"cc.components", "cc.components_ms", "", ""},
	{"cc.lwcc_extract", "cc.lwcc_extract_ms", "", ""},
	{"stats.degrees", "stats.degrees_ms", "", ""},
	{"stats.diameter", "stats.diameter_ms", "", ""},
	{"cluster.global", "cluster.global_ms", "cluster.edges_per_s", "edges/s"},
	{"bfs.depth4", "bfs.depth4_ms", "bfs.edges_per_s", "edges/s"},
	{"bc.kbc", "bc.kbc_ms", "bc.kbc_edges_per_s", "edges/s"},
	{"bc.adaptive", "bc.adaptive_ms", "", ""},
	{"stream.apply", "stream.apply_ms", "stream.apply_updates_per_s", "1/s"},
	{"stream.snapshot", "stream.snapshot_ms", "", ""},
	{"wal.append", "wal.append_ms", "", ""},
	{"blob.persist", "blob.persist_ms", "", ""},
}

func layerMetrics(rep *report, tr *tracer) {
	for _, m := range spanMetrics {
		st := tr.stat(m.span)
		note := "median of in-run calls"
		if st.Probe {
			note = "median of probe calls on the workload's data"
		}
		rep.set(m.metric, "ms", st.MedianMs, st.N, note)
		if m.rate != "" {
			rep.set(m.rate, m.rateUnit, st.PerSec, st.N, "work units (edges or updates) per second over the same calls")
		}
	}
}

// kernelProbes calls every kernel layer that has no span yet on g, the
// way graphctd's handlers call it. It returns the k-betweenness result
// it computed (nil when the workload already had one).
func kernelProbes(rep *report, tr *tracer, g *graph.Graph) *bc.Result {
	missing := func(name string) bool { return tr.stat(name).N == 0 }
	tk := func() *core.Toolkit { return core.New(g, core.WithSeed(1)) }
	edges := edgesOf(g)
	if missing("tweets.build") {
		ts := mentionTweets(edges)
		tr.time("tweets.build", func() { tweets.Build(ts) })
	}
	tr.timeWork("graph.csr_build", func() int64 {
		if _, err := graph.FromEdges(g.NumVertices(), edges, graph.Options{Directed: g.Directed()}); err != nil {
			panic("rebuilding a valid graph failed: " + err.Error())
		}
		return int64(len(edges))
	})
	if missing("cc.components") {
		t := tk()
		tr.timeWork("cc.components", func() int64 { t.ComponentCensus(); return g.NumArcs() })
	}
	if missing("cc.lwcc_extract") {
		t := tk()
		t.ComponentCensus()
		tr.time("cc.lwcc_extract", func() { _ = t.ExtractComponent(1) })
	}
	if missing("stats.degrees") {
		tr.time("stats.degrees", func() { tk().DegreeStats(); stats.PowerLawAlpha(g, 4) })
	}
	if missing("stats.diameter") {
		tr.time("stats.diameter", func() { tk().Diameter() })
	}
	if missing("cluster.global") {
		tr.timeWork("cluster.global", func() int64 { tk().GlobalClustering(); return g.NumArcs() })
	}
	if missing("bfs.depth4") {
		for i := 0; i < 16; i++ {
			bfsProbe(tr, g, int32(mix(1, i)%uint64(g.NumVertices())))
		}
	}
	var kbc *bc.Result
	if missing("bc.kbc") {
		tr.timeWork("bc.kbc", func() int64 {
			kbc = tk().KCentrality(1, heavyKBCSamples)
			return int64(len(kbc.Sources)) * g.NumArcs()
		})
	}
	if missing("bc.adaptive") {
		var ar *bc.ApproxResult
		tr.time("bc.adaptive", func() { ar = tk().ApproxCentrality(heavyEpsilon, bc.DefaultDelta, 0) })
		adaptiveCounts(rep, ar.Guarantee)
	}
	return kbc
}

func adaptiveCounts(rep *report, g bc.Guarantee) {
	note := fmt.Sprintf("epsilon=%g delta=%g stopped=%v", g.Epsilon, g.Delta, g.Stopped)
	rep.set("bc.adaptive_samples", "count", float64(g.SamplesUsed), 0, note)
	rep.set("bc.adaptive_rounds", "count", float64(g.Rounds), 0, note)
}

// bfsProbe times one depth-4 search and returns its duration (ms).
func bfsProbe(tr *tracer, g *graph.Graph, src int32) float64 {
	d := tr.timeWork("bfs.depth4", func() int64 {
		r := bfs.SearchBounded(g, src, 4)
		var scanned int64
		for _, v := range r.Order {
			if r.Level[v] < 4 {
				scanned += int64(g.Degree(v))
			}
		}
		return scanned
	})
	return timeMs(d)
}

// mentionTweets renders edges as mention tweets, so the tweets layer
// can be measured on a graph that did not come from a corpus.
func mentionTweets(edges []graph.Edge) []tweets.Tweet {
	ts := make([]tweets.Tweet, len(edges))
	for i, e := range edges {
		ts[i] = tweets.Tweet{ID: int64(i), Author: "u" + strconv.Itoa(int(e.U)), Text: "@u" + strconv.Itoa(int(e.V))}
	}
	return ts
}

// speedupVs1Proc reruns the k-betweenness call that produced ref at
// GOMAXPROCS=1 and reports the speedup of the workload's median bc.kbc
// span, and whether the scores match bit for bit (the known 1-ULP
// defect: stripe assignment depends on scheduling).
func speedupVs1Proc(rep *report, tr *tracer, g *graph.Graph, samples int, ref *bc.Result) error {
	if ref == nil {
		return fmt.Errorf("no k-betweenness result to compare at GOMAXPROCS=1")
	}
	prev := runtime.GOMAXPROCS(1)
	var one *bc.Result
	d := tr.time("bc.kbc_1proc", func() { one = core.New(g, core.WithSeed(1)).KCentrality(1, samples) })
	runtime.GOMAXPROCS(prev)
	multi := tr.stat("bc.kbc").MedianMs
	rep.set("bc.speedup_vs_1proc", "x", timeMs(d)/multi, 1,
		fmt.Sprintf("KCentrality(1,%d) GOMAXPROCS=1 %.1f ms vs GOMAXPROCS=%d median %.1f ms", samples, timeMs(d), prev, multi))
	differ := 0
	if len(one.Scores) != len(ref.Scores) {
		differ = len(ref.Scores)
	} else {
		for i := range one.Scores {
			if math.Float64bits(one.Scores[i]) != math.Float64bits(ref.Scores[i]) {
				differ++
			}
		}
	}
	same := 0.0
	if differ == 0 {
		same = 1
	}
	rep.set("bc.bit_identical_vs_1proc", "bool", same, len(ref.Scores),
		fmt.Sprintf("%d of %d scores differ bit-for-bit from GOMAXPROCS=%d", differ, len(ref.Scores), prev))
	return nil
}

// storageProbe replays batches through the ingest layers as a durable
// leader applies them: setup batches untimed, then per run batch a
// timed stream apply and fsync'd WAL append, and at graphctd's snapshot
// threshold a timed snapshot and blob persist. It returns the replayed
// stream.
func storageProbe(rep *report, tr *tracer, workDir string, n int, setup, run [][]stream.Update) (*stream.Stream, error) {
	dir := filepath.Join(workDir, "probe")
	defer os.RemoveAll(dir)
	st := stream.New(n)
	for _, b := range setup {
		if _, err := st.ApplyBatch(b); err != nil {
			return nil, err
		}
	}
	if len(setup) > 0 {
		st.Snapshot() // the leader published the prefill
	}
	wl, err := wal.Create(filepath.Join(dir, "wal", "probe.wal"), 0)
	if err != nil {
		return nil, err
	}
	defer wl.Close()
	store := blob.NewFS(filepath.Join(dir, "blobs"))
	var appends, snaps, persists, bytes int
	snapshot := func() error {
		var g *graph.Graph
		tr.time("stream.snapshot", func() { g = st.Snapshot() })
		snaps++
		if persists >= maxProbePersists {
			return nil
		}
		var err error
		tr.time("blob.persist", func() {
			var data []byte
			if data, err = blob.EncodeSnapshot(blob.Snapshot{Epoch: uint64(snaps), LastTime: st.LastTime(), Graph: g}); err == nil {
				bytes = len(data)
				err = store.Put("probe/snap-"+strconv.Itoa(snaps), data)
			}
		})
		persists++
		return err
	}
	for i, b := range run {
		var err error
		tr.timeWork("stream.apply", func() int64 { _, err = st.ApplyBatch(b); return int64(len(b)) })
		if err != nil {
			return nil, err
		}
		if appends < maxProbeAppends {
			tr.time("wal.append", func() { err = wl.Append("probe-"+strconv.Itoa(i), b) })
			if err != nil {
				return nil, err
			}
			appends++
		}
		if snaps < maxProbeSnapshots && st.SnapshotDue(snapshotEvery) {
			if err := snapshot(); err != nil {
				return nil, err
			}
		}
	}
	if persists == 0 {
		if err := snapshot(); err != nil {
			return nil, err
		}
	}
	if !rep.has("stream.snapshots") {
		rep.set("stream.snapshots", "count", float64(snaps), 0, "snapshots the replay published")
	}
	if !rep.has("wal.appends") {
		rep.set("wal.appends", "count", float64(appends), 0, "WAL appends the replay made")
	}
	rep.set("blob.snapshot_bytes", "bytes", float64(bytes), persists, "size of the last persisted snapshot")
	return st, nil
}

// servingMetrics splits the traced requests' time across the client,
// router and worker spans and reads the workers' counters. g is the
// graph the requests were served from; computed reads are replayed on it
// to split handler time into kernel time and the rest.
func servingMetrics(rep *report, tr *tracer, samples []sample, g *graph.Graph, workers []server.MetricsSnapshot, failovers int64, followerURL string) {
	byID := tr.byID()
	tk := core.New(g, core.WithSeed(1))
	kernelMs := map[string]float64{}
	replays := 0
	kernel := func(kind string, src int) (float64, bool) {
		if kind == "bfs" {
			if replays >= maxKernelReplays {
				return 0, false
			}
			replays++
			return bfsProbe(tr, g, int32(src)), true
		}
		if ms, ok := kernelMs[kind]; ok {
			return ms, true
		}
		// Timed without a span: the layer figures come from the
		// workload's own calls or from kernelProbes, one definition each.
		start := time.Now()
		switch kind {
		case "stats":
			tk.DegreeStats()
			stats.PowerLawAlpha(g, 4)
		case "degrees":
			tk.DegreeStats()
		case "components":
			core.New(g).ComponentCensus()
		case "clustering":
			tk.GlobalClustering()
		default:
			return 0, false // heavy reads are not replayed
		}
		kernelMs[kind] = timeMs(time.Since(start))
		return kernelMs[kind], true
	}
	var clientUs, hopUs, cacheUs, computedMs, queueMs []float64
	reads, onReplica := 0, 0
	for _, s := range samples {
		if !s.OK || s.Lane == "ingest" || s.Kind == "ingest" {
			continue
		}
		reads++
		if followerURL != "" && s.Worker == followerURL {
			onReplica++
		}
		if !s.Traced {
			continue
		}
		var router, worker time.Duration
		source, hops := "", 0
		for _, sp := range byID[s.SpanID] {
			switch sp.Name {
			case "router":
				router += sp.Dur
			case "leader", "follower":
				worker += sp.Dur
				source = sp.Source
				hops++
			}
		}
		if router == 0 || hops == 0 {
			continue
		}
		clientUs = append(clientUs, float64(s.Done.Sub(s.Sent)-router)/1e3)
		hopUs = append(hopUs, float64(router-worker)/1e3)
		switch source {
		case "cache":
			cacheUs = append(cacheUs, float64(worker)/1e3)
		case "computed":
			computedMs = append(computedMs, timeMs(worker))
			if k, ok := kernel(s.Kind, s.Param); ok {
				queueMs = append(queueMs, timeMs(worker)-k)
			}
		}
	}
	rep.set("http.client_us", "us", median(clientUs), len(clientUs), "client send-to-done minus router span")
	rep.set("router.hop_us", "us", median(hopUs), len(hopUs), "router span minus worker span")
	rep.set("server.handler_cache_us", "us", median(cacheUs), len(cacheUs), "worker span of cache hits")
	rep.set("server.handler_computed_ms", "ms", median(computedMs), len(computedMs), "worker span of computed reads")
	rep.set("server.queue_wait_ms", "ms", median(queueMs), len(queueMs), "worker span minus the same kernel call replayed alone")
	var hits, misses, coalesced, rejected int64
	for _, w := range workers {
		hits += w.CacheHits
		misses += w.CacheMiss
		coalesced += w.Coalesced
		rejected += w.Rejected + w.RateLimited + w.IngestRejected
	}
	rep.set("server.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), fmt.Sprintf("%d hits of %d kernel requests", hits, hits+misses))
	rep.set("server.coalesced_ratio", "ratio", ratio(coalesced, misses), int(misses), fmt.Sprintf("%d coalesced of %d cache misses", coalesced, misses))
	rep.set("server.rejected", "count", float64(rejected), 0, "429s: kernel queue full, rate limited, ingest queue full")
	rep.set("router.replica_share", "ratio", ratio(int64(onReplica), int64(reads)), reads, fmt.Sprintf("%d of %d reads served by a replica", onReplica, reads))
	rep.set("router.failovers", "count", float64(failovers), 0, "member attempts that fell through to another member")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serveProbe serves the analyze workload's graph from a router and one
// worker and drives the interactive mix at it, every request traced, so
// the serving layers have figures on the paper's graph too.
func serveProbe(ctx context.Context, cfg config, rep *report, tr *tracer, g *graph.Graph) error {
	c, err := startCluster("", false, tr)
	if err != nil {
		return err
	}
	e := c.leaderReg.Add("lwcc", g)
	s := &serveRun{seed: cfg.Seed, n: g.NumVertices(), t: c.target("lwcc")}
	before := metricsOf(c.leader)
	window := time.Duration(cfg.Sizes.ProbeSeconds * float64(time.Second))
	samples := openLoop(ctx, time.Now().Add(10*time.Millisecond), window, grace,
		[]lane{{Name: "read", Interval: rateInterval(cfg.Sizes.ReadQPS), Do: s.readOp, Traced: func(int) bool { return true }}})
	w := delta(metricsOf(c.leader), before)
	failovers := c.router.Metrics().Failovers.Load()
	c.close()
	countOps(rep, samples)
	reportFailures(rep, samples)
	checkStatsEdges(rep, samples, map[uint64]int64{e.Epoch: g.NumEdges()})
	late := lateness(samples)
	rep.set("load.late_p99_ms", "ms", quantile(late, 0.99), len(late), "generator lateness (serving probe)")
	servingMetrics(rep, tr, samples, g, []server.MetricsSnapshot{w}, failovers, "")
	rep.set("server.replica_float_mismatch", "count", 0, 0, "no follower on this workload")
	replicaMetrics(rep, server.MetricsSnapshot{}, samples)
	return nil
}
