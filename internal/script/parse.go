package script

import (
	"net/url"
	"strconv"
	"strings"

	"graphct/internal/graph"
	"graphct/internal/kernel"
)

// Command is one parsed script line: the lower-cased command word, its
// raw argument fields and the "=> file" redirect target (empty when
// absent). Blank and comment lines parse to the zero Command.
type Command struct {
	Name     string
	Args     []string
	Redirect string

	run step // the command with its arguments already parsed
}

// step is a parsed command, ready to run against the interpreter.
type step func(in *Interp) error

// command is one entry of the script's command table. parse validates
// everything knowable without a graph — arity, argument syntax, static
// ranges — and returns the step holding the typed arguments, so each
// line is parsed exactly once.
type command struct {
	needsGraph, needsRemote bool
	parse                   func(args []string, redirect string) (step, error)
}

// ParseLine is the static half of script interpretation: it splits a line
// into command, arguments and redirect, and validates everything knowable
// without a loaded graph. Graph-dependent checks (a BFS source within the
// loaded vertex count, a component rank that exists) stay with execution.
//
// Every error ParseLine returns is parse-class, and ParseLine never
// panics on arbitrary input — the property FuzzScriptParse enforces.
func ParseLine(line string) (Command, error) {
	redirect := ""
	hasRedirect := false
	if idx := strings.Index(line, "=>"); idx >= 0 {
		hasRedirect = true
		redirect = strings.TrimSpace(line[idx+2:])
		line = line[:idx]
	}
	fields := strings.Fields(line)
	if len(fields) > 0 && strings.HasPrefix(fields[0], "#") {
		return Command{}, nil
	}
	if hasRedirect && redirect == "" {
		return Command{}, parseErrf("missing file after \"=>\"")
	}
	if len(fields) == 0 {
		if hasRedirect {
			return Command{}, parseErrf("\"=>\" redirect without a command")
		}
		return Command{}, nil
	}
	cmd := Command{Name: strings.ToLower(fields[0]), Args: fields[1:], Redirect: redirect}
	c, ok := commands[cmd.Name]
	if !ok {
		return Command{}, parseErrf("unknown command %q", cmd.Name)
	}
	run, err := c.parse(cmd.Args, redirect)
	if err != nil {
		return Command{}, err
	}
	cmd.run = run
	return cmd, nil
}

// commands is the script's one command table: membership decides
// "unknown command", needsGraph and needsRemote decide "no graph loaded"
// and "not connected", and parse turns the arguments into the step.
var commands = map[string]command{
	"read": {parse: func(args []string, _ string) (step, error) {
		if len(args) != 2 {
			return nil, parseErrf("usage: read dimacs|binary|snapshot FILE")
		}
		kind, file := strings.ToLower(args[0]), args[1]
		switch kind {
		case "dimacs", "edgelist", "binary", "snapshot":
			return func(in *Interp) error { return in.cmdRead(kind, file) }, nil
		}
		return nil, parseErrf("unknown graph format %q", kind)
	}},
	"connect":    {parse: exactly(1, "usage: connect URL", (*Interp).cmdConnect)},
	"disconnect": {needsRemote: true, parse: exactly(0, "usage: disconnect", (*Interp).cmdDisconnect)},
	"graphs":     {needsRemote: true, parse: exactly(0, "usage: graphs", (*Interp).cmdGraphs)},
	"fetch":      {needsRemote: true, parse: exactly(1, "usage: fetch NAME", (*Interp).cmdFetch)},
	"compare": {parse: func(args []string, _ string) (step, error) {
		if len(args) != 3 {
			return nil, parseErrf("usage: compare FILE1 FILE2 TOP_PERCENT")
		}
		pct, err := strconv.ParseFloat(args[2], 64)
		if err != nil || pct <= 0 || pct > 100 {
			return nil, parseErrf("bad top percent %q", args[2])
		}
		return func(in *Interp) error { return in.cmdCompare(args[0], args[1], pct) }, nil
	}},
	"print": {needsGraph: true, parse: func(args []string, _ string) (step, error) {
		if len(args) == 0 {
			return nil, parseErrf("usage: print diameter|degrees|components [...]")
		}
		switch strings.ToLower(args[0]) {
		case "diameter":
			// "print diameter 10" estimates from 10 percent of the
			// vertices; no argument uses the 256-source default.
			pct := 0
			if len(args) >= 2 {
				var err error
				if pct, err = strconv.Atoi(args[1]); err != nil || pct <= 0 || pct > 100 {
					return nil, parseErrf("bad diameter sample percent %q", args[1])
				}
			}
			return func(in *Interp) error { return in.printDiameter(pct) }, nil
		case "degrees":
			return (*Interp).printDegrees, nil
		case "components":
			return (*Interp).cmdComponents, nil
		}
		return nil, parseErrf("unknown print target %q", args[0])
	}},
	"save": {needsGraph: true, parse: func(args []string, _ string) (step, error) {
		switch {
		case len(args) == 1 && strings.ToLower(args[0]) == "graph":
			return func(in *Interp) error { in.tk.Save(); return nil }, nil
		case len(args) == 2 && strings.ToLower(args[0]) == "snapshot":
			return func(in *Interp) error { return in.saveSnapshot(args[1]) }, nil
		}
		return nil, parseErrf("usage: save graph | save snapshot FILE")
	}},
	"restore": {needsGraph: true, parse: func(args []string, _ string) (step, error) {
		if len(args) != 1 || strings.ToLower(args[0]) != "graph" {
			return nil, parseErrf("usage: restore graph")
		}
		return func(in *Interp) error { return in.tk.Restore() }, nil
	}},
	"extract": {needsGraph: true, parse: func(args []string, redirect string) (step, error) {
		if len(args) != 2 || strings.ToLower(args[0]) != "component" {
			return nil, parseErrf("usage: extract component N [=> file.bin]")
		}
		rank, err := strconv.Atoi(args[1])
		if err != nil {
			return nil, parseErrf("bad component rank %q", args[1])
		}
		return func(in *Interp) error { return in.cmdExtract(rank, redirect) }, nil
	}},
	"reorder": {needsGraph: true, parse: func(args []string, _ string) (step, error) {
		if len(args) != 1 {
			return nil, parseErrf("usage: reorder degree|bfs")
		}
		kind, err := graph.ParseReorder(strings.ToLower(args[0]))
		if err != nil || kind == graph.ReorderNone {
			return nil, parseErrf("unknown reorder %q (want degree or bfs)", args[0])
		}
		return func(in *Interp) error { return in.cmdReorder(kind) }, nil
	}},
	"clustering": {needsGraph: true, parse: func(_ []string, redirect string) (step, error) {
		return func(in *Interp) error { return in.cmdClustering(redirect) }, nil
	}},
	"components": {needsGraph: true, parse: anyArgs((*Interp).cmdComponents)},
	"stats":      {needsGraph: true, parse: anyArgs((*Interp).cmdStats)},
	"undirected": {needsGraph: true, parse: anyArgs(func(in *Interp) error { in.tk.ToUndirected(); return nil })},
	"reciprocal": {needsGraph: true, parse: anyArgs(func(in *Interp) error { in.tk.ReciprocalCore(); return nil })},

	// Kernel commands: arguments bind to the served kernel's parameter
	// names and validate through internal/kernel's table.
	"kcentrality": {needsGraph: true, parse: func(args []string, redirect string) (step, error) {
		// With eps=/delta= the SAMPLES slot is a placeholder that must be
		// zero ("kcentrality 0 0 eps=E") and binds to no parameter: the
		// estimator sizes its own sample count.
		params := []string{"k", "samples"}
		if len(args) > 2 {
			if n, err := strconv.Atoi(args[1]); err == nil && n == 0 {
				params[1] = ""
			}
		}
		return kernelCommand("kcentrality", "usage: kcentrality K SAMPLES [eps=E [delta=D]] [=> file]",
			params, map[string]string{"eps": "epsilon", "delta": "delta"}, (*Interp).cmdKCentrality)(args, redirect)
	}},
	"kcores": {needsGraph: true, parse: kernelCommand("kcores", "usage: kcores K", []string{"k"}, nil, (*Interp).cmdKCores)},
	"bfs":    {needsGraph: true, parse: kernelCommand("bfs", "usage: bfs SOURCE DEPTH", []string{"src", "depth"}, nil, (*Interp).cmdBFS)},
	"sssp":   {needsGraph: true, parse: kernelCommand("sssp", "usage: sssp SOURCE [=> dist.txt]", []string{"src"}, nil, (*Interp).cmdSSSP)},
}

// exactly accepts exactly n arguments, which run receives.
func exactly(n int, usage string, run func(in *Interp, args []string) error) func([]string, string) (step, error) {
	return func(args []string, _ string) (step, error) {
		if len(args) != n {
			return nil, parseErrf("%s", usage)
		}
		return func(in *Interp) error { return run(in, args) }, nil
	}
}

// anyArgs ignores the arguments of a command that takes none.
func anyArgs(run step) func([]string, string) (step, error) {
	return func([]string, string) (step, error) { return run, nil }
}

// kernelCommand parses a kernel command: it binds the arguments to the
// kernel's parameter names — the first len(params) in order (a "" name
// binds none), then optional NAME=V suffixes whose script NAME opts
// translates — and validates them through the kernel table. There is no
// graph yet, so the step checks vertex ids against the loaded graph
// before it runs.
func kernelCommand(name, usage string, params []string, opts map[string]string,
	run func(in *Interp, c kernel.Call, redirect string) error) func([]string, string) (step, error) {
	return func(args []string, redirect string) (step, error) {
		if len(args) < len(params) || len(args) > len(params)+len(opts) {
			return nil, parseErrf("%s", usage)
		}
		q := url.Values{}
		for i, p := range params {
			if p != "" {
				q.Set(p, args[i])
			}
		}
		for _, a := range args[len(params):] {
			opt, v, _ := strings.Cut(a, "=")
			p, ok := opts[opt]
			if !ok || v == "" || q.Has(p) {
				return nil, parseErrf("%s", usage)
			}
			q.Set(p, v)
		}
		c, err := kernel.Parse(name, q, -1)
		if err != nil {
			return nil, parseError{err}
		}
		return func(in *Interp) error {
			if err := c.InGraph(in.tk.Graph().NumVertices()); err != nil {
				return parseError{err}
			}
			return run(in, c, redirect)
		}, nil
	}
}
