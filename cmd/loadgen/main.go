// Command loadgen is the mixed-workload SLO harness for graphctd: it
// drives a configurable blend of cheap kernel reads (open-loop at target
// QPS and closed-loop workers), sparse expensive betweenness-centrality
// requests and streaming ingest against a daemon, and records per-class
// p50/p95/p99 latencies, error/429/503 rates and achieved throughput into
// a machine-readable BENCH_LOAD.json. The paper's serving premise —
// interactive social-network analysis while the graph keeps changing —
// lives or dies on exactly this contention, so the harness is how the
// repo measures it and how CI gates on it.
//
// Usage:
//
//	loadgen                                  # self-hosted ablation: lanes off vs on
//	loadgen -base http://localhost:8423 -prep -config lanes_on
//	loadgen -mult 1,2,4 -duration 10s        # saturation curve
//	loadgen -check BENCH_LOAD.json           # schema-validate an existing report
//
// With no -base, loadgen starts an in-process graphctd server on a
// loopback listener, creates and R-MAT-prefills a live graph through the
// public HTTP API, and runs the workload against it — by default twice,
// once with QoS lanes off and once with -cheap-reserved slots on, so one
// invocation produces the lanes ablation the repo commits. With -base it
// drives an external daemon instead (whose lane configuration is whatever
// the daemon was started with; label the row via -config).
//
// Every workload decision is deterministic from -seed: the prefill graph,
// the ingest stream (batch IDs included, so reruns dedupe server-side
// rather than double-apply), and each read class's parameter sequence.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"graphct/internal/api"
	"graphct/internal/gen"
	"graphct/internal/kernel"
	"graphct/internal/load"
	"graphct/internal/server"
	"graphct/internal/stream"
)

func main() {
	base := flag.String("base", "", "drive an external graphctd at this base URL (empty = self-host an in-process server)")
	graphName := flag.String("graph", "live", "live graph to drive")
	scale := flag.Int("scale", 13, "R-MAT scale of the prefilled live graph (2^scale vertices, 16x edges)")
	prep := flag.Bool("prep", false, "external mode: create and prefill the live graph before driving (self-host always preps)")
	waitReady := flag.Duration("wait-ready", 10*time.Second, "external mode: poll the daemon's /healthz this long before giving up")
	seed := flag.Int64("seed", 1, "seed for the prefill graph, ingest stream and read-parameter sequences")
	duration := flag.Duration("duration", 8*time.Second, "measured window per row")
	warmup := flag.Duration("warmup", 2*time.Second, "ramp time before measurement starts (samples discarded)")

	statsQPS := flag.Float64("stats-qps", 150, "open-loop stats reads per second")
	bfsQPS := flag.Float64("bfs-qps", 60, "open-loop bfs reads per second (random sources defeat the result cache)")
	componentsQPS := flag.Float64("components-qps", 20, "open-loop connected-components reads per second")
	closedWorkers := flag.Int("closed-workers", 2, "closed-loop workers cycling stats/degrees/clustering back-to-back (0 disables)")
	bcQPS := flag.Float64("bc-qps", 2, "open-loop k-betweenness-centrality requests per second (the expensive class)")
	bcK := flag.Int("bc-k", 1, "kcentrality k parameter")
	bcSamples := flag.Int("bc-samples", 256, "kcentrality sample count (the expensiveness dial)")
	ingestQPS := flag.Float64("ingest-qps", 10, "ingest batches per second")
	ingestBatch := flag.Int("ingest-batch", 256, "updates per ingest batch")
	multSpec := flag.String("mult", "1", "comma-separated open-loop rate multipliers; several produce a saturation curve")

	lanes := flag.String("lanes", "ablate", "self-host lane configs to measure: off | on | ablate (both)")
	maxConcurrent := flag.Int("max-concurrent", 2, "self-host: kernels executing at once")
	maxQueued := flag.Int("max-queued", 32, "self-host: kernel queue bound per lane")
	cheapReserved := flag.Int("cheap-reserved", 1, "self-host: slots reserved for cheap kernels in the lanes-on config")
	clientRate := flag.Float64("client-rate", 0, "self-host: per-client kernel rate limit (0 disables)")
	clientName := flag.String("client", "loadgen", "X-Graphct-Client identity prefix (per-class suffixes are appended; empty sends no header)")

	configLabel := flag.String("config", "", "row label for external runs (default \"default\")")
	out := flag.String("out", "BENCH_LOAD.json", "report path")
	appendOut := flag.Bool("append", false, "append rows to an existing report instead of replacing it")
	check := flag.String("check", "", "validate FILE against the report schema and exit (nonzero on malformed)")
	assertCheapP99 := flag.Float64("assert-cheap-p99-ms", 0, "fail unless every cheap class's p99 in every new row is under this bound (0 disables)")
	flag.Parse()

	if *check != "" {
		r, err := load.ReadReport(*check)
		if err == nil {
			err = r.Validate()
		}
		if err != nil {
			fatal(fmt.Errorf("check %s: %w", *check, err))
		}
		fmt.Printf("loadgen: %s: valid (%d rows)\n", *check, len(r.Rows))
		return
	}

	mults, err := parseMults(*multSpec)
	if err != nil {
		fatal(err)
	}

	run := runConfig{
		graph: *graphName, scale: *scale, seed: *seed,
		duration: *duration, warmup: *warmup,
		statsQPS: *statsQPS, bfsQPS: *bfsQPS, componentsQPS: *componentsQPS,
		closedWorkers: *closedWorkers,
		bcQPS:         *bcQPS, bcK: *bcK, bcSamples: *bcSamples,
		ingestQPS: *ingestQPS, ingestBatch: *ingestBatch,
		clientName: *clientName,
	}

	report := &load.Report{
		Generator:  "loadgen " + strings.Join(os.Args[1:], " "),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Target:     "self",
	}
	if *base != "" {
		report.Target = *base
	} else {
		report.Scale = *scale
	}
	if *appendOut {
		if prev, err := load.ReadReport(*out); err == nil {
			report.Rows = prev.Rows
		}
	}
	firstNew := len(report.Rows)

	ctx := context.Background()
	if *base != "" {
		label := *configLabel
		if label == "" {
			label = "default"
		}
		if err := waitHealthy(*base, *waitReady); err != nil {
			fatal(err)
		}
		if *prep {
			if err := prepGraph(*base, run.graph, run.scale, run.seed); err != nil {
				fatal(err)
			}
		}
		for _, m := range mults {
			report.Rows = append(report.Rows, run.measure(ctx, *base, label, m))
		}
	} else {
		var configs []selfConfig
		srvCfg := server.Config{
			MaxConcurrent: *maxConcurrent,
			MaxQueued:     *maxQueued,
			CacheBytes:    64 << 20,
			ClientRate:    *clientRate,
			Seed:          *seed,
			SnapshotEvery: 4096, IngestConcurrent: 2, IngestQueued: 64, MaxBatch: 1 << 20,
			BreakerThreshold: 5, BreakerCooldown: time.Second,
		}
		switch *lanes {
		case "off":
			configs = []selfConfig{{"lanes_off", srvCfg}}
		case "on":
			on := srvCfg
			on.CheapReserved = *cheapReserved
			configs = []selfConfig{{"lanes_on", on}}
		case "ablate":
			on := srvCfg
			on.CheapReserved = *cheapReserved
			configs = []selfConfig{{"lanes_off", srvCfg}, {"lanes_on", on}}
		default:
			fatal(fmt.Errorf("unknown -lanes %q (want off, on or ablate)", *lanes))
		}
		for _, sc := range configs {
			rows, err := run.measureSelf(ctx, sc, mults)
			if err != nil {
				fatal(err)
			}
			report.Rows = append(report.Rows, rows...)
		}
	}

	if err := report.WriteReport(*out); err != nil {
		fatal(err)
	}
	if err := report.Validate(); err != nil {
		fatal(fmt.Errorf("generated report is malformed: %w", err))
	}
	printRows(report.Rows[firstNew:])
	fmt.Fprintf(os.Stderr, "loadgen: wrote %s (%d rows)\n", *out, len(report.Rows))

	if *assertCheapP99 > 0 {
		_, cheap := run.classes("", "", 1)
		if err := assertCheap(report.Rows[firstNew:], cheap, *assertCheapP99); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: cheap p99 under %.0fms in every new row\n", *assertCheapP99)
	}
}

// runConfig is the workload shape, independent of which daemon runs it.
type runConfig struct {
	graph                           string
	scale                           int
	seed                            int64
	duration, warmup                time.Duration
	statsQPS, bfsQPS, componentsQPS float64
	closedWorkers                   int
	bcQPS                           float64
	bcK, bcSamples                  int
	ingestQPS                       float64
	ingestBatch                     int
	clientName                      string
}

type selfConfig struct {
	label string
	cfg   server.Config
}

// classes builds the per-row workload. Each row gets fresh Ops (so
// sequence counters restart) and a row-unique ingest run ID (so batch IDs
// never collide with a previous row's and dedup cannot eat the stream).
// cheap names the classes the -assert-cheap-p99-ms SLO covers: those
// whose every request is a kernel the kernel table classes cheap (ingest
// requests none, so it is never covered).
func (rc runConfig) classes(base, label string, mult float64) (cs []load.Class, cheap map[string]bool) {
	n := 1 << uint(rc.scale)
	cheap = map[string]bool{}
	kernelOp := func(class string, t load.Target, name string, params func() string) load.Op {
		k, ok := kernel.Lookup(name)
		prev, seen := cheap[class]
		cheap[class] = ok && k.Class == api.ClassCheap && (prev || !seen)
		return t.Kernel(name, params)
	}
	target := func(class string) load.Target {
		t := load.Target{Base: base, Graph: rc.graph}
		if rc.clientName != "" {
			t.Client = rc.clientName + "-" + class
		}
		return t
	}
	if rc.statsQPS > 0 {
		cs = append(cs, load.Class{Name: "stats", QPS: rc.statsQPS * mult,
			Do: kernelOp("stats", target("stats"), "stats", nil)})
	}
	if rc.bfsQPS > 0 {
		rng := rand.New(rand.NewSource(rc.seed + 101))
		cs = append(cs, load.Class{Name: "bfs", QPS: rc.bfsQPS * mult,
			Do: kernelOp("bfs", target("bfs"), "bfs", func() string {
				return "src=" + strconv.Itoa(rng.Intn(n)) + "&depth=4"
			})})
	}
	if rc.componentsQPS > 0 {
		cs = append(cs, load.Class{Name: "components", QPS: rc.componentsQPS * mult,
			Do: kernelOp("components", target("components"), "components", nil)})
	}
	if rc.closedWorkers > 0 {
		t := target("closed")
		ops := []load.Op{
			kernelOp("closed_cheap", t, "stats", nil),
			kernelOp("closed_cheap", t, "degrees", nil),
			kernelOp("closed_cheap", t, "clustering", nil),
		}
		var seq atomic.Int64
		cs = append(cs, load.Class{Name: "closed_cheap", Workers: rc.closedWorkers,
			Do: func(ctx context.Context) (int, error) {
				i := seq.Add(1) - 1
				return ops[i%int64(len(ops))](ctx)
			}})
	}
	if rc.bcQPS > 0 {
		var seq atomic.Int64
		cs = append(cs, load.Class{Name: "bc", QPS: rc.bcQPS * mult,
			Do: kernelOp("bc", target("bc"), "kcentrality", func() string {
				// Vary top so successive requests miss the result cache and
				// actually run the kernel; top barely changes the cost.
				return fmt.Sprintf("k=%d&samples=%d&top=%d", rc.bcK, rc.bcSamples, 10+seq.Add(1)%8)
			})})
	}
	if rc.ingestQPS > 0 {
		runID := fmt.Sprintf("loadgen-%d-%s-m%g", rc.seed, label, mult)
		cs = append(cs, load.Class{Name: "ingest", QPS: rc.ingestQPS * mult,
			Do: target("ingest").Ingest(runID, n, rc.ingestBatch, rc.seed)})
	}
	return cs, cheap
}

// measure runs one row against an already-prepared daemon.
func (rc runConfig) measure(ctx context.Context, base, label string, mult float64) load.Row {
	fmt.Fprintf(os.Stderr, "loadgen: %s x%g: %v warmup + %v measured against %s\n",
		label, mult, rc.warmup, rc.duration, base)
	cs, _ := rc.classes(base, label, mult)
	reports := load.Run(ctx, cs, load.Options{
		Duration: rc.duration, Warmup: rc.warmup,
	})
	return load.Row{
		Config:      label,
		Multiplier:  mult,
		DurationSec: rc.duration.Seconds(),
		WarmupSec:   rc.warmup.Seconds(),
		Classes:     reports,
	}
}

// measureSelf boots an in-process server with cfg, preps the live graph
// through its HTTP API, runs every multiplier, and tears the server down.
func (rc runConfig) measureSelf(ctx context.Context, sc selfConfig, mults []float64) ([]load.Row, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.NewRegistry(), sc.cfg)
	httpSrv := &http.Server{Handler: srv}
	done := make(chan struct{})
	go func() { _ = httpSrv.Serve(ln); close(done) }()
	base := "http://" + ln.Addr().String()
	defer func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
		<-done
	}()

	if err := prepGraph(base, rc.graph, rc.scale, rc.seed); err != nil {
		return nil, err
	}
	var rows []load.Row
	for _, m := range mults {
		rows = append(rows, rc.measure(ctx, base, sc.label, m))
	}
	return rows, nil
}

// prepGraph creates the live graph (tolerating one that already exists)
// and prefills it with the seed-deterministic R-MAT edge list, then
// force-publishes an epoch so kernels have a graph to read.
func prepGraph(base, name string, scale int, seed int64) error {
	n := 1 << uint(scale)
	rng := rand.New(rand.NewSource(seed))
	resp, err := http.Post(base+"/graphs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":%q,"format":"live","vertices":%d}`, name, n)))
	if err != nil {
		return err
	}
	if err := load.Drain(resp, http.StatusCreated); err != nil {
		// A daemon that already has the graph (restarted loadgen, warm
		// daemon) is fine; anything else is fatal.
		if !graphExists(base, name) {
			return fmt.Errorf("create live graph %q: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: live graph %q already exists; prefilling anyway\n", name)
	}

	edges := gen.RMATEdges(gen.PaperRMAT(scale, seed))
	const batch = 8192
	start := time.Now()
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		ups := make([]stream.Update, 0, hi-lo)
		for i, e := range edges[lo:hi] {
			if e.U == e.V {
				continue
			}
			ups = append(ups, stream.Update{U: e.U, V: e.V, Time: int64(lo + i)})
		}
		id := fmt.Sprintf("loadgen-prefill-%d/%d", seed, lo)
		if _, err := load.PostBatch(base, name, id, ups, true, rng); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	if err := load.WithRetry(rng, func() (int, error) {
		resp, err := http.Post(base+"/graphs/"+name+"/snapshot", "application/json", nil)
		if err != nil {
			return 0, err
		}
		code := resp.StatusCode
		if err := load.Drain(resp, http.StatusOK); err != nil && !load.RetryableStatus(code) {
			return code, fmt.Errorf("snapshot: %w", err)
		}
		return code, nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: prefilled %q with %d R-MAT edges (scale %d) in %v\n",
		name, len(edges), scale, time.Since(start).Round(time.Millisecond))
	return nil
}

// waitHealthy polls /healthz until the daemon answers, so the smoke
// script can start graphctd and loadgen back-to-back without a sleep.
func waitHealthy(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			load.DrainBody(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v (last: %v)", base, budget, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func graphExists(base, name string) bool {
	resp, err := http.Get(base + "/graphs/" + name + "/epochs")
	if err != nil {
		return false
	}
	load.DrainBody(resp)
	return resp.StatusCode == http.StatusOK
}

func parseMults(spec string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		m, err := strconv.ParseFloat(f, 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("bad -mult element %q", f)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-mult lists no multipliers")
	}
	return out, nil
}

// assertCheap enforces the CI SLO: every cheap class that measured
// anything stays under the p99 bound, in every newly produced row.
func assertCheap(rows []load.Row, cheap map[string]bool, boundMs float64) error {
	for _, row := range rows {
		for _, c := range row.Classes {
			if !cheap[c.Name] || c.Requests == 0 {
				continue
			}
			if c.P99Ms > boundMs {
				return fmt.Errorf("%s x%g: cheap class %s p99 %.1fms exceeds bound %.0fms",
					row.Config, row.Multiplier, c.Name, c.P99Ms, boundMs)
			}
		}
	}
	return nil
}

func printRows(rows []load.Row) {
	w := os.Stderr
	fmt.Fprintf(w, "%-12s %5s  %-12s %-6s %8s %9s %7s %7s %9s %9s %9s\n",
		"config", "mult", "class", "mode", "reqs", "qps", "ok%", "429%", "p50ms", "p95ms", "p99ms")
	for _, row := range rows {
		for _, c := range row.Classes {
			fmt.Fprintf(w, "%-12s %5g  %-12s %-6s %8d %9.1f %6.1f%% %6.1f%% %9.2f %9.2f %9.2f\n",
				row.Config, row.Multiplier, c.Name, c.Mode, c.Requests, c.AchievedQPS,
				100*c.Rate("200"), 100*c.Rate("429"), c.P50Ms, c.P95Ms, c.P99Ms)
		}
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "loadgen:", v)
	os.Exit(1)
}
