package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/load"
	"graphct/internal/server"
	"graphct/internal/stream"
)

// The serve workloads drive an in-process graphctd cluster over loopback
// HTTP from this process, on at most nproc connections at once:
//
//	serve-read    router -> one worker; interactive reads on lane "read"
//	              and heavy centrality reads on lane "heavy", then a
//	              closed loop of nproc clients on the interactive mix.
//	serve-ingest  router -> durable leader + follower; ingest batches on
//	              lane "ingest" and interactive reads on lane "read",
//	              then a paced write phase on lane "write".

const (
	liveName = "live"
	// Heavy reads alternate these two; distinct top values miss the cache.
	heavyKBCSamples = 16
	heavyEpsilon    = 0.05
	// grace bounds how long a lane may keep draining its backlog after
	// the window before its remaining requests count as never sent.
	grace = 30 * time.Second
)

// readKinds is the interactive mix, one kind per request in turn: the
// first four repeat at a fixed epoch and hit the cache, bfs from a
// seeded random source always misses.
var readKinds = [...]string{"stats", "degrees", "components", "clustering", "bfs"}

type serveRun struct {
	seed  int64
	n     int
	batch int
	t     load.Target
}

// mix hashes (seed, i) into a well-spread 64-bit value.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// readOp is request i of the interactive mix.
func (s *serveRun) readOp(ctx context.Context, client *http.Client, i int, spanID string) outcome {
	kind := readKinds[i%len(readKinds)]
	url := s.t.Base + "/graphs/" + s.t.Graph + "/" + kind
	src := 0
	if kind == "bfs" {
		src = int(mix(s.seed, i) % uint64(s.n))
		url += "?src=" + strconv.Itoa(src) + "&depth=4"
	}
	r := do(ctx, client, http.MethodGet, url, "", nil, spanID)
	r.Kind, r.Param = kind, src
	// Only the checked fields are decoded; the body must still be valid
	// JSON.
	var body struct {
		Vertices, Edges, Count, Src, Reached, Depth *float64
		Clustering                                  *float64 `json:"global_clustering"`
	}
	if !r.decode(&body) {
		return r.outcome
	}
	num := func(field string, v *float64) float64 {
		if v == nil {
			r.fail("%s: field %q missing", kind, field)
			return 0
		}
		return *v
	}
	switch kind {
	case "stats":
		if v := num("vertices", body.Vertices); int(v) != s.n {
			r.fail("stats: %v vertices, want %d", v, s.n)
		}
		r.Edges = int64(num("edges", body.Edges))
	case "components":
		if c := num("count", body.Count); c < 1 || c > float64(s.n) {
			r.fail("components: count %v", c)
		}
	case "clustering":
		if c := num("global_clustering", body.Clustering); c < 0 || c > 1 {
			r.fail("clustering: %v outside [0,1]", c)
		}
	case "bfs":
		reached := num("reached", body.Reached)
		if int(num("src", body.Src)) != src || reached < 1 || reached > float64(s.n) || num("depth", body.Depth) > 4 {
			r.fail("bfs: unexpected body %s", r.Body)
		}
	}
	return r.outcome
}

// heavyOp is request i of the heavy lane.
func (s *serveRun) heavyOp(ctx context.Context, client *http.Client, i int, spanID string) outcome {
	top := 10 + i
	q := fmt.Sprintf("k=1&samples=%d&top=%d", heavyKBCSamples, top)
	kind := "kbc"
	if i%2 == 1 {
		q = fmt.Sprintf("epsilon=%g&top=%d", heavyEpsilon, top)
		kind = "adaptive"
	}
	r := do(ctx, client, http.MethodGet, s.t.Base+"/graphs/"+s.t.Graph+"/kcentrality?"+q, "", nil, spanID)
	r.Kind, r.Param = kind, top
	var body struct {
		Top       []json.RawMessage `json:"top"`
		Guarantee *struct {
			Epsilon     float64 `json:"epsilon"`
			SamplesUsed int     `json:"samples_used"`
		} `json:"guarantee"`
	}
	if !r.decode(&body) {
		return r.outcome
	}
	if want := min(top, s.n); len(body.Top) != want {
		r.fail("kcentrality: %d ranked vertices, want %d", len(body.Top), want)
	}
	if kind == "adaptive" && (body.Guarantee == nil || body.Guarantee.Epsilon != heavyEpsilon || body.Guarantee.SamplesUsed < 1) {
		r.fail("kcentrality: adaptive guarantee missing or wrong: %s", r.Body)
	}
	return r.outcome
}

// batchUpdates is ingest batch i: uniform random edges from a generator
// seeded by (seed, i), so batches do not depend on send order.
func (s *serveRun) batchUpdates(i int) []stream.Update {
	rng := rand.New(rand.NewSource(int64(mix(s.seed, -1-i))))
	b := make([]stream.Update, s.batch)
	for j := range b {
		u := int32(rng.Intn(s.n))
		v := int32(rng.Intn(s.n))
		if u == v {
			v = (v + 1) % int32(s.n)
		}
		b[j] = stream.Update{U: u, V: v, Time: int64(i)*int64(s.batch) + int64(j) + 1}
	}
	return b
}

func (s *serveRun) ingestOp(ctx context.Context, client *http.Client, i int, spanID string) outcome {
	r, _ := postBatch(ctx, client, s.t, "run-"+strconv.Itoa(i), s.batchUpdates(i), spanID)
	r.Param = i
	return r.outcome
}

// rmatUpdates is the prefill: R-MAT scale edges (edge factor 16) as
// inserts.
func rmatUpdates(scale int, seed int64) []stream.Update {
	edges := gen.RMATEdges(gen.PaperRMAT(scale, seed))
	ups := make([]stream.Update, len(edges))
	for i, e := range edges {
		ups[i] = stream.Update{U: e.U, V: e.V, Time: int64(i) + 1}
	}
	return ups
}

// setUp boots the topology, creates the live graph, prefills it in one
// batch (one snapshot) and, with a follower, waits until the follower
// serves that snapshot.
func setUp(ctx context.Context, dataDir string, withFollower bool, n int, prefill []stream.Update, tr *tracer) (*cluster, load.IngestReply, error) {
	c, err := startCluster(dataDir, withFollower, tr)
	if err != nil {
		return nil, load.IngestReply{}, err
	}
	t := c.target(liveName)
	if err := createLive(ctx, t, n); err != nil {
		c.close()
		return nil, load.IngestReply{}, err
	}
	r, ack := postBatch(ctx, http.DefaultClient, t, "prefill", prefill, "")
	if !r.OK || !ack.Snapshotted {
		c.close()
		return nil, load.IngestReply{}, fmt.Errorf("prefill: %s (snapshotted=%v)", r.Err, ack.Snapshotted)
	}
	if withFollower {
		if err := waitEpoch(ctx, c.followerReg, liveName, ack.Epoch, time.Minute); err != nil {
			c.close()
			return nil, load.IngestReply{}, fmt.Errorf("follower bootstrap: %w", err)
		}
	}
	return c, ack, nil
}

func metricsOf(s *server.Server) server.MetricsSnapshot {
	if s == nil {
		return server.MetricsSnapshot{}
	}
	return s.Metrics().Snapshot(nil, nil, nil, nil, nil)
}

func runServe(ctx context.Context, cfg config, rep *report, tr *tracer) error {
	sz := cfg.Sizes
	ingest := cfg.Workload == "serve-ingest"
	s := &serveRun{seed: cfg.Seed, n: 1 << sz.RMATScale, batch: sz.Batch}
	prefill := rmatUpdates(sz.RMATScale, cfg.Seed) // input generation: not part of set-up

	var (
		c          *cluster
		prefillAck load.IngestReply
		setups     []float64
		dataDir    string
	)
	for i := 0; i < sz.SetupReps; i++ {
		if c != nil {
			c.close()
			os.RemoveAll(dataDir)
		}
		if ingest {
			dataDir = filepath.Join(cfg.WorkDir, "leader-"+strconv.Itoa(i))
		}
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		var err error
		if c, prefillAck, err = setUp(ctx, dataDir, ingest, s.n, prefill, tr); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	note := "median of boot + create + prefill + first snapshot"
	if ingest {
		note += " (durable) + follower bootstrap"
	}
	rep.set("setup_s", "s", median(setups), len(setups), fmt.Sprintf("%s %.3f", note, setups))
	closed := false
	defer func() {
		if !closed {
			c.close()
		}
	}()
	s.t = c.target(liveName)

	// The measured phases: three quarters open loop, then a second phase.
	nproc := runtime.GOMAXPROCS(0)
	openWin := time.Duration(cfg.Seconds * 0.75 * float64(time.Second))
	closedWin := time.Duration(cfg.Seconds*float64(time.Second)) - openWin
	traced := func(i int) bool { return tr != nil && i%2 == 0 }
	lanes := []lane{{Name: "read", Interval: rateInterval(sz.ReadQPS), Do: s.readOp, Traced: traced}}
	if ingest {
		lanes = append(lanes, lane{Name: "ingest", Interval: rateInterval(sz.IngestQPS), Do: s.ingestOp, Traced: traced})
	} else {
		lanes = append(lanes, lane{Name: "heavy", Interval: rateInterval(sz.HeavyQPS), Do: s.heavyOp, Traced: traced})
	}
	// Warm the cache: the fixed-epoch kinds of the mix are computed once
	// before the window, so on serve-read they are cache hits throughout.
	for i := 0; i < len(readKinds)-1; i++ {
		if o := s.readOp(ctx, http.DefaultClient, i, ""); !o.OK {
			return fmt.Errorf("warm-up %s: %s", o.Kind, o.Err)
		}
	}
	runtime.GC()
	before := [2]server.MetricsSnapshot{metricsOf(c.leader), metricsOf(c.follower)}
	failoversBefore := c.router.Metrics().Failovers.Load()
	openStart, cpu0 := time.Now().Add(10*time.Millisecond), cpuTime()
	open := openLoop(ctx, openStart, openWin, grace, lanes)
	openCPU := cpuTime() - cpu0
	endEntry, ok := c.leaderReg.Get(liveName)
	if !ok {
		return fmt.Errorf("live graph vanished")
	}
	// The second phase: on serve-read, nproc closed-loop clients on the
	// interactive mix; on serve-ingest, a paced write phase of a fixed
	// number of batches (so the final graph, and the memory it takes, is
	// the same on every run) with no reads in flight. Its rate leaves the
	// follower, polling every 200 ms, well inside the leader's retained
	// WAL segments, so it replays every epoch rather than re-bootstrapping
	// at timing-dependent moments, and the write path's CPU time per batch
	// is the same work on every run.
	closedStart := time.Now()
	var (
		closedSamples []sample
		flushAck      load.IngestReply
		writeCPU      time.Duration
		writeNote     string
	)
	if ingest {
		sent := len(latenciesMs(open, "ingest", nil))
		write := func(ctx context.Context, client *http.Client, i int, spanID string) outcome {
			return s.ingestOp(ctx, client, sent+i, spanID)
		}
		interval := rateInterval(sz.WriteQPS)
		f0 := metricsOf(c.follower)
		cpu0 := cpuTime()
		closedSamples = openLoop(ctx, time.Now(), interval*time.Duration(sz.WriteBatches), grace,
			[]lane{{Name: "write", Interval: interval, Do: write}})
		// The flush and the follower catching up to it count too, so the
		// follower's share of the replication work is in the figure.
		var err error
		if flushAck, err = s.flush(ctx, c); err != nil {
			return err
		}
		writeCPU = cpuTime() - cpu0
		f1 := metricsOf(c.follower)
		writeNote = fmt.Sprintf("; follower replayed %d epochs, re-bootstrapped %d times",
			f1.ReplicaEpochs-f0.ReplicaEpochs, f1.ReplicaBootstraps-f0.ReplicaBootstraps)
	} else {
		closedSamples = closedLoop(ctx, nproc, closedWin, 1<<20, s.readOp)
	}
	after := [2]server.MetricsSnapshot{metricsOf(c.leader), metricsOf(c.follower)}
	failovers := c.router.Metrics().Failovers.Load() - failoversBefore
	countOps(rep, open)
	countOps(rep, closedSamples)
	reportFailures(rep, append(append([]sample(nil), open...), closedSamples...))

	// End-to-end figures. op_p50_ms is the interactive read on both serve
	// workloads: an ingest ack waits for an fsync, and on a shared disk
	// fsync latency swings several-fold between runs, so ack latency is
	// reported but not gated. op_p50_ms is the median of the p50s of
	// three equal slices of the open-loop window, so a hiccup confined to
	// one slice does not move it. cpu_ms_per_op is the process CPU time
	// per completed request of the open-loop mix on serve-read, and per
	// acked batch of the write phase on serve-ingest, which time spent
	// waiting for fsync does not inflate.
	okOnly := func(s sample) bool { return s.OK }
	opP50, opN, slices := slicedP50(open, "read", openStart, openWin, 3)
	opsDone := len(latenciesMs(open, "", okOnly))
	closedOK := len(latenciesMs(closedSamples, "", okOnly))
	rep.set("op_p50_ms", "ms", opP50, opN, fmt.Sprintf("op = one interactive read; median of the window slices' p50s %.3f", slices))
	if ingest {
		rep.set("cpu_ms_per_op", "ms", timeMs(writeCPU)/float64(closedOK), closedOK, "op = one acked batch; process CPU time (user+sys) of the write phase, final flush and follower catch-up per batch"+writeNote)
	} else {
		rep.set("cpu_ms_per_op", "ms", timeMs(openCPU)/float64(opsDone), opsDone, "op = one request of the open-loop mix; process CPU time (user+sys) of the window per completed request")
	}
	reads := latenciesMs(open, "read", okOnly)
	rep.set("read_p50_ms", "ms", median(reads), len(reads), "interactive reads, open loop, from due time")
	rep.set("read_p99_ms", "ms", quantile(reads, 0.99), len(reads), "interactive reads, open loop, from due time")
	if ingest {
		ing := latenciesMs(open, "ingest", okOnly)
		rep.set("ingest_p50_ms", "ms", median(ing), len(ing), "batch ack, open loop, from due time")
		rep.set("ingest_p99_ms", "ms", quantile(ing, 0.99), len(ing), "batch ack, open loop, from due time")
		vis := visibility(open)
		rep.set("visible_p50_ms", "ms", median(vis), len(vis), "ack publishing epoch E to first routed read at >= E")
	} else {
		heavy := latenciesMs(open, "heavy", okOnly)
		rep.set("heavy_p50_ms", "ms", median(heavy), len(heavy), "kcentrality reads, open loop, from due time")
		capacity, chunks := chunkedRate(closedSamples, closedStart, 4)
		rep.set("read_capacity_rps", "1/s", capacity, closedOK, fmt.Sprintf("%d closed-loop clients, median of %d chunk rates", nproc, chunks))
	}
	late := lateness(open)
	rep.set("load.late_p50_ms", "ms", median(late), len(late), "generator lateness")
	rep.set("load.late_p99_ms", "ms", quantile(late, 0.99), len(late), "generator lateness")

	// Output checks.
	acks := ackedBatches(append(append([]sample(nil), open...), closedSamples...))
	setupBatches := [][]stream.Update{prefill}
	var runBatches [][]stream.Update
	for _, a := range acks {
		runBatches = append(runBatches, s.batchUpdates(a.Param))
	}
	epochEdges := map[uint64]int64{prefillAck.Epoch: prefillAck.Edges}
	for _, a := range acks {
		if a.Snap {
			epochEdges[a.Epoch] = a.Edges
		}
	}
	checkStatsEdges(rep, open, epochEdges)
	var finalEdges int64
	floatMismatch := 0
	if ingest {
		fin, mism, err := s.checkFinal(ctx, c, rep, flushAck)
		if err != nil {
			return err
		}
		finalEdges, floatMismatch = fin, mism
	}
	c.close()
	closed = true

	if tr == nil {
		// Untraced runs still replay the batches to check the final state.
		st := replayEdges(s.n, setupBatches, runBatches)
		checkReplay(rep, ingest, st, finalEdges, prefillAck.Edges)
		return nil
	}

	// Per-layer figures.
	workers := []server.MetricsSnapshot{delta(after[0], before[0]), delta(after[1], before[1])}
	all := append(append([]sample(nil), open...), closedSamples...)
	rep.set("trace.overhead_ratio", "ratio", overheadRatio(open, "read"), len(reads),
		"median client time of traced / untraced interactive reads (every other request traced)")
	tr.setProbe(true)
	servingMetrics(rep, tr, all, endEntry.Graph, workers, failovers, c.followerURL)
	rep.set("server.replica_float_mismatch", "count", float64(floatMismatch), 0, "float fields differing between leader and follower at one epoch")
	replicaMetrics(rep, workers[1], open)
	if !ingest {
		runBatches = chunk(prefill, sz.Batch)
		setupBatches = nil
	}
	rep.set("stream.snapshots", "count", float64(workers[0].Snapshots), 0, "snapshots the leader published over both measured phases")
	rep.set("wal.appends", "count", float64(workers[0].WALAppends), 0, "WAL appends the leader made over both measured phases")
	st, err := storageProbe(rep, tr, cfg.WorkDir, s.n, setupBatches, runBatches)
	if err != nil {
		return err
	}
	checkReplay(rep, ingest, st, finalEdges, prefillAck.Edges)
	kbc := kernelProbes(rep, tr, endEntry.Graph)
	if err := speedupVs1Proc(rep, tr, endEntry.Graph, heavyKBCSamples, kbc); err != nil {
		return err
	}
	layerMetrics(rep, tr)
	return nil
}

func rateInterval(qps float64) time.Duration { return time.Duration(float64(time.Second) / qps) }

// slicedP50 splits the window into n equal slices by due time and
// returns the median of the slices' p50 latencies of lane's successful
// samples, and how many samples stand behind them.
func slicedP50(samples []sample, laneName string, start time.Time, window time.Duration, n int) (float64, int, []float64) {
	var p50s []float64
	total := 0
	for k := 0; k < n; k++ {
		lo := start.Add(window * time.Duration(k) / time.Duration(n))
		hi := start.Add(window * time.Duration(k+1) / time.Duration(n))
		lat := latenciesMs(samples, laneName, func(s sample) bool { return s.OK && !s.Due.Before(lo) && s.Due.Before(hi) })
		total += len(lat)
		if len(lat) > 0 {
			p50s = append(p50s, median(lat))
		}
	}
	return median(p50s), total, p50s
}

// chunkedRate splits the successful closed-loop samples, in completion
// order, into n equal runs and returns the median of their completion
// rates (per second), so one stall moves at most one chunk.
func chunkedRate(samples []sample, start time.Time, n int) (float64, int) {
	var done []time.Time
	for _, s := range samples {
		if s.OK {
			done = append(done, s.Done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	if len(done) < n {
		n = 1
	}
	var rates []float64
	prev := start
	for c := 0; c < n && len(done) > 0; c++ {
		lo, hi := c*len(done)/n, (c+1)*len(done)/n
		end := done[hi-1]
		if d := end.Sub(prev).Seconds(); d > 0 {
			rates = append(rates, float64(hi-lo)/d)
		}
		prev = end
	}
	return median(rates), len(rates)
}

// reportFailures records one check per distinct failure reason, so a
// failed operation both counts in fail_ratio and explains itself.
func reportFailures(rep *report, samples []sample) {
	reasons := map[string]int{}
	for _, s := range samples {
		if !s.OK {
			reasons[s.Lane+"/"+s.Kind+": "+s.Err]++
		}
	}
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i == 5 {
			break
		}
		rep.check("serve.operation", false, "%d× %s", reasons[k], k)
	}
	if len(keys) == 0 {
		rep.check("serve.operations", true, "%d operations answered 2xx with bodies that decode and pass their checks", len(samples))
	}
}

// visibility returns, per ingest ack that published an epoch E, the time
// until the first read served at an epoch >= E finished (ms).
func visibility(samples []sample) []float64 {
	var acks, reads []sample
	for _, s := range samples {
		switch {
		case !s.OK:
		case s.Lane == "ingest" && s.Snap:
			acks = append(acks, s)
		case s.Lane == "read":
			reads = append(reads, s)
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].Done.Before(reads[j].Done) })
	var out []float64
	for _, a := range acks {
		for _, r := range reads {
			if !r.Done.Before(a.Done) && r.Epoch >= a.Epoch {
				out = append(out, timeMs(r.Done.Sub(a.Done)))
				break
			}
		}
	}
	return out
}

func lateness(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.NotSent {
			out = append(out, timeMs(s.Late))
		}
	}
	return out
}

// ackedBatches returns the successful ingest samples in ack order.
func ackedBatches(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if s.OK && s.Kind == "ingest" {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Done.Before(out[j].Done) })
	return out
}

// checkStatsEdges checks every stats read against the edge count the
// ingest acks (or the prefill ack) reported for the epoch it was served
// at.
func checkStatsEdges(rep *report, samples []sample, epochEdges map[uint64]int64) {
	checked, bad := 0, 0
	detail := ""
	for _, s := range samples {
		if !s.OK || s.Kind != "stats" {
			continue
		}
		want, ok := epochEdges[s.Epoch]
		if !ok {
			continue
		}
		checked++
		if s.Edges != want {
			bad++
			detail = fmt.Sprintf("; epoch %d served %d edges, acked %d", s.Epoch, s.Edges, want)
		}
	}
	rep.check("serve.stats_edges", bad == 0, "%d stats reads matched their epoch's acked edge count, %d did not%s", checked-bad, bad, detail)
}

// flush publishes the leader's pending updates as an epoch and waits
// until the follower serves it.
func (s *serveRun) flush(ctx context.Context, c *cluster) (load.IngestReply, error) {
	r := do(ctx, http.DefaultClient, http.MethodPost, s.t.Base+"/graphs/"+liveName+"/snapshot", "", nil, "")
	var ack load.IngestReply
	if !r.decode(&ack) {
		return ack, fmt.Errorf("final flush: %s", r.Err)
	}
	if err := waitEpoch(ctx, c.followerReg, liveName, ack.Epoch, time.Minute); err != nil {
		return ack, fmt.Errorf("follower catch-up: %w", err)
	}
	return ack, nil
}

// checkFinal compares both members' answers at the flushed epoch of
// ack: integer fields must be identical, float fields that differ are
// counted (the known 1-ULP nondeterminism). It returns the final edge
// count.
func (s *serveRun) checkFinal(ctx context.Context, c *cluster, rep *report, ack load.IngestReply) (int64, int, error) {
	floats := 0
	var edges [2]int64
	for _, kind := range []string{"stats", "degrees", "components", "clustering"} {
		var bodies [2]any
		for m, base := range []string{c.leaderURL, c.followerURL} {
			url := fmt.Sprintf("%s/graphs/%s/%s?epoch=%d", base, liveName, kind, ack.Epoch)
			r := do(ctx, http.DefaultClient, http.MethodGet, url, "", nil, "")
			if !r.OK {
				return 0, 0, fmt.Errorf("final %s from %s: %s", kind, base, r.Err)
			}
			dec := json.NewDecoder(bytes.NewReader(r.Body))
			dec.UseNumber()
			if err := dec.Decode(&bodies[m]); err != nil {
				rep.check("serve.final_decode", false, "%s from %s: %v", kind, base, err)
				return 0, 0, nil
			}
			if obj, ok := bodies[m].(map[string]any); ok && kind == "stats" {
				if n, ok := obj["edges"].(json.Number); ok {
					edges[m], _ = n.Int64() // a malformed count stays 0 and fails the check below
				}
			}
		}
		ints, fl := compareJSON(bodies[0], bodies[1])
		floats += fl
		rep.check("serve.replica_integers", ints == 0, "%s at epoch %d: %d integer fields differ between leader and follower", kind, ack.Epoch, ints)
	}
	rep.check("serve.final_edges_agree", edges[0] == edges[1] && edges[0] == ack.Edges,
		"leader %d, follower %d, flush ack %d edges at epoch %d", edges[0], edges[1], ack.Edges, ack.Epoch)
	return edges[0], floats, nil
}

// compareJSON walks two decoded bodies (numbers as json.Number) and
// counts differing integer and float leaves; a structural difference
// counts as an integer difference.
func compareJSON(a, b any) (ints, floats int) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return 1, 0
		}
		for k, x := range av {
			i, f := compareJSON(x, bv[k])
			ints, floats = ints+i, floats+f
		}
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return 1, 0
		}
		for k := range av {
			i, f := compareJSON(av[k], bv[k])
			ints, floats = ints+i, floats+f
		}
	case json.Number:
		bv, ok := b.(json.Number)
		switch {
		case !ok:
			return 1, 0
		case av == bv:
		case strings.ContainsAny(string(av)+string(bv), ".eE"):
			return 0, 1
		default:
			return 1, 0
		}
	default:
		if a != b {
			return 1, 0
		}
	}
	return ints, floats
}

// replayEdges applies the batches to a fresh stream of n vertices.
func replayEdges(n int, setup, run [][]stream.Update) *stream.Stream {
	st := stream.New(n)
	for _, b := range append(append([][]stream.Update(nil), setup...), run...) {
		if _, err := st.ApplyBatch(b); err != nil {
			panic("replay of generated batches failed: " + err.Error())
		}
	}
	return st
}

// checkReplay compares the served graph with a stream replay of the
// same batches: the final flushed edge count on serve-ingest, the
// prefill ack on serve-read.
func checkReplay(rep *report, ingest bool, st *stream.Stream, finalEdges, prefillEdges int64) {
	if ingest {
		rep.check("serve.final_edges_replay", finalEdges == st.NumEdges(), "leader and follower %d edges, stream replay %d", finalEdges, st.NumEdges())
		return
	}
	rep.check("serve.prefill_edges_replay", prefillEdges == st.NumEdges(), "prefill ack %d edges, stream replay %d", prefillEdges, st.NumEdges())
}

func chunk(ups []stream.Update, size int) [][]stream.Update {
	var out [][]stream.Update
	for lo := 0; lo < len(ups); lo += size {
		out = append(out, ups[lo:min(lo+size, len(ups))])
	}
	return out
}

// chunkEdges turns g's edges into insert batches of size updates.
func chunkEdges(g *graph.Graph, size int) [][]stream.Update {
	edges := edgesOf(g)
	ups := make([]stream.Update, len(edges))
	for i, e := range edges {
		ups[i] = stream.Update{U: e.U, V: e.V, Time: int64(i) + 1}
	}
	return chunk(ups, size)
}

// edgesOf lists g's edges (each undirected edge once).
func edgesOf(g *graph.Graph) []graph.Edge {
	rp, adj := g.RowPtr(), g.AdjArray()
	var out []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range adj[rp[u]:rp[u+1]] {
			if g.Directed() || int32(u) < v {
				out = append(out, graph.Edge{U: int32(u), V: v})
			}
		}
	}
	return out
}

// delta is after minus before for the counters the report uses.
func delta(a, b server.MetricsSnapshot) server.MetricsSnapshot {
	return server.MetricsSnapshot{
		CacheHits:      a.CacheHits - b.CacheHits,
		CacheMiss:      a.CacheMiss - b.CacheMiss,
		Coalesced:      a.Coalesced - b.Coalesced,
		Rejected:       a.Rejected - b.Rejected,
		RateLimited:    a.RateLimited - b.RateLimited,
		IngestRejected: a.IngestRejected - b.IngestRejected,
		Snapshots:      a.Snapshots - b.Snapshots,
		WALAppends:     a.WALAppends - b.WALAppends,
		ReplicaBatches: a.ReplicaBatches - b.ReplicaBatches,
		ReplicaEpochs:  a.ReplicaEpochs - b.ReplicaEpochs,
		ReplicaErrors:  a.ReplicaErrors - b.ReplicaErrors,
	}
}

// overheadRatio is the median client time (send to done) of traced
// requests of a lane over that of its untraced requests.
func overheadRatio(samples []sample, laneName string) float64 {
	var tr, plain []float64
	for _, s := range samples {
		if !s.OK || s.Lane != laneName {
			continue
		}
		if s.Traced {
			tr = append(tr, timeMs(s.Done.Sub(s.Sent)))
		} else {
			plain = append(plain, timeMs(s.Done.Sub(s.Sent)))
		}
	}
	return median(tr) / median(plain)
}

// replicaMetrics reports the follower's replication counters over the
// window and how many published epochs reads were behind.
func replicaMetrics(rep *report, follower server.MetricsSnapshot, samples []sample) {
	rep.set("replica.batches", "count", float64(follower.ReplicaBatches), 0, "WAL records the follower applied over both measured phases")
	rep.set("replica.epochs", "count", float64(follower.ReplicaEpochs), 0, "epochs the follower pinned over both measured phases")
	rep.set("replica.errors", "count", float64(follower.ReplicaErrors), 0, "failed follower sync passes over both measured phases")
	var acks []sample
	for _, s := range samples {
		if s.OK && s.Lane == "ingest" && s.Snap {
			acks = append(acks, s)
		}
	}
	var behind []float64
	for _, s := range samples {
		if !s.OK || s.Lane != "read" {
			continue
		}
		n := 0
		for _, a := range acks {
			if !a.Done.After(s.Sent) && a.Epoch > s.Epoch {
				n++
			}
		}
		behind = append(behind, float64(n))
	}
	mean := 0.0
	for _, b := range behind {
		mean += b
	}
	if len(behind) > 0 {
		mean /= float64(len(behind))
	}
	rep.set("replica.epochs_behind", "count", mean, len(behind), "mean acked epochs newer than the one each read was served at")
}
