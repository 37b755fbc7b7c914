// Package script implements GraphCT's prototype scripting interface: a
// line-oriented command language executed sequentially, with the first
// line reading a graph from disk and following lines invoking one kernel
// each. Per-vertex results can be redirected to files with "=> path"; all
// other kernels print to the interpreter's output. A stack-based memory —
// "similar to that of a basic calculator" — saves and restores graphs so a
// subgraph can be analyzed and the original recalled. The language has no
// loops; an external process can monitor results and drive execution.
// Scripts are not limited to local files: "connect URL" targets a running
// graphctd daemon or router, and "fetch NAME" pulls one of its graphs
// down for local analysis (see remote.go).
package script

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"graphct/internal/bc"
	"graphct/internal/blob"
	"graphct/internal/core"
	"graphct/internal/dimacs"
	"graphct/internal/graph"
	"graphct/internal/kernel"
	"graphct/internal/rank"
	"graphct/internal/sssp"
	"graphct/internal/stats"
)

// Error annotates a script failure with its provenance — the script file
// (when known), the 1-based line of the failing command, and whether the
// failure was a parse/usage error or a runtime (kernel or I/O) failure —
// so drivers can report "file:line" and exit with distinct codes.
type Error struct {
	Path  string // script file; "" for inline input
	Line  int
	Parse bool // command could not be parsed vs failed while running
	Err   error
}

func (e *Error) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("%s:%d: %v", e.Path, e.Line, e.Err)
	}
	return fmt.Sprintf("script line %d: %v", e.Line, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// parseError marks usage and argument errors so Run can classify them.
type parseError struct{ error }

func (p parseError) Unwrap() error { return p.error }

// parseErrf builds a parse-class error; command handlers use it for
// anything wrong with the command text itself (unknown commands, bad
// usage, malformed arguments) as opposed to failures of valid commands.
func parseErrf(format string, args ...any) error {
	return parseError{fmt.Errorf(format, args...)}
}

// Interp executes GraphCT scripts.
type Interp struct {
	tk     *core.Toolkit
	remote *remote // connected daemon or router (nil = local only)
	out    io.Writer
	dir    string // base for relative file paths
	file   string // script path for error provenance ("" when inline)
	seed   int64
	line   int
}

// New returns an interpreter writing kernel output to out. Relative paths
// in scripts resolve against dir ("" = current directory).
func New(out io.Writer, dir string) *Interp {
	return &Interp{out: out, dir: dir, seed: 1}
}

// SetSeed fixes the sampling seed used by kernels the interpreter runs.
func (in *Interp) SetSeed(seed int64) { in.seed = seed }

// Toolkit exposes the current toolkit (nil before any read command).
func (in *Interp) Toolkit() *core.Toolkit { return in.tk }

// Run executes a script line by line, stopping at the first error, which
// is returned as a *Error annotated with the failing line.
func (in *Interp) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	in.line = 0
	for sc.Scan() {
		in.line++
		if err := in.Exec(sc.Text()); err != nil {
			var pe parseError
			return &Error{Path: in.file, Line: in.line, Parse: errors.As(err, &pe), Err: err}
		}
	}
	return sc.Err()
}

// RunFile executes the script in the named file; errors carry the file
// name and line of the failing command.
func (in *Interp) RunFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if in.dir == "" {
		in.dir = filepath.Dir(path)
	}
	in.file = path
	return in.Run(f)
}

// Exec executes one script line: ParseLine does the static validation
// (so malformed commands are rejected before any kernel state is touched
// or mutated), then the parsed step runs with the interpreter's graph
// and adds the graph-dependent checks parsing cannot do.
func (in *Interp) Exec(line string) error {
	c, err := ParseLine(line)
	if err != nil {
		return err
	}
	if c.Name == "" { // blank or comment
		return nil
	}
	switch cmd := commands[c.Name]; {
	case cmd.needsGraph && in.tk == nil:
		return parseErrf("no graph loaded (missing read command)")
	case cmd.needsRemote && in.remote == nil:
		return parseErrf("not connected (missing connect command)")
	}
	return c.run(in)
}

// cmdSSSP runs weighted single-source shortest paths via delta-stepping;
// "=> file" writes per-vertex distances (-1 for unreachable).
func (in *Interp) cmdSSSP(c kernel.Call, redirect string) error {
	src := c.Int("src")
	res, err := in.tk.SSSP(int32(src))
	if err != nil {
		return err
	}
	if redirect != "" {
		scores := make([]float64, len(res.Dist))
		for v, d := range res.Dist {
			if d == sssp.Inf {
				scores[v] = -1
			} else {
				scores[v] = float64(d)
			}
		}
		return writeScores(in.path(redirect), scores)
	}
	reached, maxDist := res.Extent()
	fmt.Fprintf(in.out, "sssp from %d: reached %d vertices, max distance %d\n", src, reached, maxDist)
	return nil
}

// cmdStats prints the distribution characterization of Section III-C: the
// power-law exponent fit, the share of links held by the top 20% of
// vertices (the 80/20 observation), and the Gini concentration.
func (in *Interp) cmdStats() error {
	g := in.tk.Graph()
	alpha, used := stats.PowerLawAlpha(g, 4)
	fmt.Fprintf(in.out, "power-law alpha %.3f (fit over %d vertices with degree >= 4)\n", alpha, used)
	fmt.Fprintf(in.out, "top-20%% of vertices hold %.1f%% of links\n", 100*stats.TopShare(g, 0.2))
	fmt.Fprintf(in.out, "degree gini coefficient %.3f\n", stats.GiniCoefficient(g))
	return nil
}

// cmdCompare implements the analyst's accuracy workflow over saved score
// files: "compare exact.txt approx.txt 5" prints the overlap of the top
// 5% of vertices between the two rankings (the paper's normalized set
// Hamming comparison).
func (in *Interp) cmdCompare(file1, file2 string, pct float64) error {
	a, err := readScores(in.path(file1))
	if err != nil {
		return err
	}
	b, err := readScores(in.path(file2))
	if err != nil {
		return err
	}
	if len(a) != len(b) {
		return fmt.Errorf("score files disagree on vertex count: %d vs %d", len(a), len(b))
	}
	frac := pct / 100
	overlap := rank.TopAccuracy(a, b, frac)
	hamming := rank.NormalizedHamming(rank.TopFraction(a, frac), rank.TopFraction(b, frac))
	fmt.Fprintf(in.out, "top %.4g%%: overlap %.4f, normalized set hamming %.4f\n", pct, overlap, hamming)
	return nil
}

// readScores reads a per-vertex score file written by writeScores. Lines
// must be "vertex value" with vertices forming a dense 0..n-1 range in
// any order.
func readScores(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var scores []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: malformed score line", path, line)
		}
		v, err := strconv.Atoi(fields[0])
		if err != nil || v < 0 {
			return nil, fmt.Errorf("%s:%d: bad vertex %q", path, line, fields[0])
		}
		s, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad score %q", path, line, fields[1])
		}
		for len(scores) <= v {
			scores = append(scores, 0)
		}
		scores[v] = s
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return scores, nil
}

func (in *Interp) path(p string) string {
	if filepath.IsAbs(p) || in.dir == "" {
		return p
	}
	return filepath.Join(in.dir, p)
}

func (in *Interp) cmdRead(kind, file string) error {
	file = in.path(file)
	var err error
	switch kind {
	case "dimacs":
		in.tk, err = core.LoadDIMACS(file, false, core.WithSeed(in.seed))
	case "edgelist":
		in.tk, err = core.LoadEdgeList(file, false, core.WithSeed(in.seed))
	case "binary":
		in.tk, err = core.LoadBinary(file, core.WithSeed(in.seed))
	case "snapshot":
		var snap blob.Snapshot
		if snap, err = blob.ReadSnapshotFile(file); err == nil {
			in.tk = core.New(snap.Graph, core.WithSeed(in.seed))
		}
	}
	if err != nil {
		return err
	}
	return in.sized("read %s", filepath.Base(file))
}

// sized prints what a command did to the current graph and its new size.
func (in *Interp) sized(format string, args ...any) error {
	g := in.tk.Graph()
	fmt.Fprintf(in.out, "%s: %d vertices, %d edges\n", fmt.Sprintf(format, args...), g.NumVertices(), g.NumEdges())
	return nil
}

// printDiameter estimates the diameter from pct percent of the vertices
// (0 = the toolkit's 256-source default).
func (in *Interp) printDiameter(pct int) error {
	d := in.tk.Diameter()
	if pct > 0 {
		samples := in.tk.Graph().NumVertices() * pct / 100
		if samples < 1 {
			samples = 1
		}
		d = stats.EstimateDiameter(in.tk.Graph(), samples, 4, in.seed)
	}
	fmt.Fprintf(in.out, "diameter estimate %d (longest sampled path %d from %d sources)\n",
		d.Estimate, d.LongestPath, d.Sources)
	return nil
}

func (in *Interp) printDegrees() error {
	s := in.tk.DegreeStats()
	fmt.Fprintf(in.out, "degrees: n %d, mean %.4f, variance %.4f, max %d\n", s.N, s.Mean, s.Variance, s.Max)
	return nil
}

// saveSnapshot writes the current graph in graphctd's durable snapshot
// format (the same bytes the daemon persists), so a script can hand a
// graph to — or pick one up from — a daemon data dir. "save graph", the
// other memory, pushes onto the in-memory stack.
func (in *Interp) saveSnapshot(file string) error {
	file = in.path(file)
	if err := blob.WriteSnapshotFile(file, blob.Snapshot{Graph: in.tk.Graph()}); err != nil {
		return err
	}
	return in.sized("saved snapshot %s", filepath.Base(file))
}

func (in *Interp) cmdExtract(rank int, redirect string) error {
	if err := in.tk.ExtractComponent(rank); err != nil {
		return err
	}
	in.sized("extracted component %d", rank)
	if redirect != "" {
		return dimacs.SaveBinary(in.path(redirect), in.tk.Graph())
	}
	return nil
}

// cmdKCentrality runs fixed-k sampled betweenness, or the adaptive
// (ε,δ)-guaranteed estimator when the call carries an epsilon.
func (in *Interp) cmdKCentrality(c kernel.Call, redirect string) error {
	var res *bc.Result
	var header string
	if eps := c.Float("epsilon"); eps > 0 {
		ar := in.tk.ApproxCentrality(eps, c.Float("delta"), 0)
		g := ar.Guarantee
		res = &ar.Result
		header = fmt.Sprintf("adaptive eps=%g delta=%g samples=%d rounds=%d", g.Epsilon, g.Delta, g.SamplesUsed, g.Rounds)
	} else {
		res = in.tk.KCentrality(c.Int("k"), c.Int("samples"))
		header = fmt.Sprintf("k=%d samples=%d", c.Int("k"), len(res.Sources))
	}
	if redirect != "" {
		return writeScores(in.path(redirect), res.Scores)
	}
	fmt.Fprintf(in.out, "kcentrality %s top vertices:\n", header)
	for i, v := range res.TopK(10) {
		fmt.Fprintf(in.out, "%2d. vertex %d score %.2f\n", i+1, in.tk.OrigID(v), res.Scores[v])
	}
	return nil
}

// cmdReorder relabels the current graph for cache locality. Vertex ids in
// later per-vertex output still refer to the loaded graph (the toolkit
// composes the inverse permutation into its orig-id mapping), so the
// command changes kernel speed, not kernel answers.
func (in *Interp) cmdReorder(kind graph.ReorderKind) error {
	if err := in.tk.Reorder(kind); err != nil {
		return err
	}
	return in.sized("reordered %s", kind)
}

func (in *Interp) cmdComponents() error {
	census := in.tk.ComponentCensus()
	fmt.Fprintf(in.out, "components: %d\n", len(census))
	for i, c := range census {
		if i >= 10 {
			fmt.Fprintf(in.out, "... %d more\n", len(census)-10)
			break
		}
		fmt.Fprintf(in.out, "component %d: %d vertices\n", i+1, c.Size)
	}
	return nil
}

func (in *Interp) cmdKCores(c kernel.Call, _ string) error {
	in.tk.KCores(int32(c.Int("k")))
	return in.sized("%d-core", c.Int("k"))
}

func (in *Interp) cmdClustering(redirect string) error {
	coef := in.tk.ClusteringCoefficients()
	if redirect != "" {
		return writeScores(in.path(redirect), coef)
	}
	fmt.Fprintf(in.out, "global clustering coefficient %.6f\n", in.tk.GlobalClustering())
	return nil
}

func (in *Interp) cmdBFS(c kernel.Call, _ string) error {
	src := c.Int("src")
	r := in.tk.BFS(int32(src), c.Int("depth"))
	fmt.Fprintf(in.out, "bfs from %d: reached %d vertices, depth %d\n", src, r.NumReached(), r.Depth)
	return nil
}

// writeScores writes one score per line, "vertex value".
func writeScores(path string, scores []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for v, s := range scores {
		fmt.Fprintf(w, "%d %.10g\n", v, s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
