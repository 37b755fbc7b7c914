// Command perfbench is graphct's benchmark: one command that runs a
// workload against the toolkit or an in-process graphctd cluster, checks
// the outputs, and prints every metric by name with its unit and sample
// count. The last line of standard output is a JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload analyze|serve-read|serve-ingest \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// sizes fixes the input sizes and rates of every workload; tests shrink
// them.
type sizes struct {
	CorpusScale      float64 `json:"corpus_scale"`       // Sept-1 corpus scale (0.05: ~115k tweets)
	KBCSamples       int     `json:"kbc_samples"`        // analyze KCentrality(1, samples)
	Epsilon          float64 `json:"epsilon"`            // analyze ApproxCentrality epsilon
	Delta            float64 `json:"delta"`              // analyze ApproxCentrality delta
	RMATScale        int     `json:"rmat_scale"`         // serve graph: R-MAT scale, edge factor 16
	ReadQPS          float64 `json:"read_qps"`           // interactive reads per second
	HeavyQPS         float64 `json:"heavy_qps"`          // serve-read heavy reads per second
	IngestQPS        float64 `json:"ingest_qps"`         // serve-ingest batches per second
	WriteQPS         float64 `json:"write_qps"`          // serve-ingest write phase batches per second
	WriteBatches     int     `json:"write_batches"`      // serve-ingest write phase batches
	Batch            int     `json:"batch"`              // updates per ingest batch
	SetupReps        int     `json:"setup_reps"`         // serve set-ups per run; setup_s is their median
	LoadsPerPipeline int     `json:"loads_per_pipeline"` // analyze corpus loads before each pipeline; setup_s is their median
	MinPipelines     int     `json:"min_pipelines"`      // analyze pipelines per run at least
	ProbeSeconds     float64 `json:"probe_seconds"`      // traced analyze: serving probe length
}

var fullSizes = sizes{
	CorpusScale:      0.05,
	KBCSamples:       256,
	Epsilon:          0.01,
	Delta:            0.1,
	RMATScale:        14,
	ReadQPS:          50,
	HeavyQPS:         0.5,
	IngestQPS:        2,
	WriteQPS:         25,
	WriteBatches:     200,
	Batch:            512,
	SetupReps:        5,
	LoadsPerPipeline: 4,
	MinPipelines:     3,
	ProbeSeconds:     2,
}

type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Sizes    sizes
	WorkDir  string // scratch space for durable data and the span file
}

// provenance says what produced a result.
type provenance struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Sizes        sizes   `json:"sizes"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "analyze", "analyze, serve-read or serve-ingest")
	seed := fl.Int64("seed", 1, "workload seed; inputs are a pure function of it")
	seconds := fl.Float64("seconds", 25, "measured seconds")
	trace := fl.Int("trace", 0, "1 records per-layer spans and prints the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cat, err := loadCatalog(catalogFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !cat.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (%s lists the workloads)\n", *workload, catalogFile)
		return 2
	}
	workDir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Sizes: fullSizes, WorkDir: workDir}
	rep, tr, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
		}
	}
	defs := cat.EndToEnd
	if cfg.Trace {
		defs = cat.PerLayer
	}
	if err := rep.write(stdout, describe(cfg), defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.checksPassed() {
		fmt.Fprintln(stderr, "perfbench: output checks failed")
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its report and, for a traced
// run, its spans.
func runWorkload(ctx context.Context, cfg config) (*report, *tracer, error) {
	var tr *tracer
	if cfg.Trace {
		tr = &tracer{}
	}
	rep := newReport()
	var err error
	switch cfg.Workload {
	case "analyze":
		err = runAnalyze(ctx, cfg, rep, tr)
	case "serve-read", "serve-ingest":
		err = runServe(ctx, cfg, rep, tr)
	default:
		err = fmt.Errorf("unknown workload %q (want analyze, serve-read or serve-ingest)", cfg.Workload)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.set("peak_rss_mb", "MB", peakRSSMB(), 0, "getrusage maxrss of the whole process")
	if rep.attempted > 0 {
		rep.set("fail_ratio", "ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted, "failed/attempted incl. output checks")
	}
	return rep, tr, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func describe(cfg config) provenance {
	p := provenance{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Trace:      cfg.Trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Sizes:      cfg.Sizes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	p.SourceSHA256 = sourceDigest(".")
	return p
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// hidden directories: the commit of a checkout that is not a git
// repository.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timeMs is a duration in milliseconds.
func timeMs(d time.Duration) float64 { return float64(d) / 1e6 }
