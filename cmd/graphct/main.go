// Command graphct runs GraphCT analysis scripts: line-oriented commands
// over one in-memory graph, in the style of the paper's scripting
// interface.
//
// Usage:
//
//	graphct [-seed N] SCRIPT.gct
//	graphct [-seed N] -e 'read dimacs g.txt' -e 'print degrees'
//
// Script commands:
//
//	read dimacs FILE | read edgelist FILE | read binary FILE | read snapshot FILE
//	print diameter [PERCENT] | print degrees | print components
//	save graph | save snapshot FILE | restore graph
//	extract component N [=> comp.bin]
//	kcentrality K SAMPLES [eps=E [delta=D]] [=> scores.txt]
//	kcores K
//	clustering [=> coef.txt]
//	stats | components | undirected | reciprocal | bfs SRC DEPTH
//	sssp SRC [=> dist.txt]
//	compare FILE1 FILE2 TOP_PERCENT
//	connect URL | graphs | fetch NAME | disconnect
//
// "read snapshot" and "save snapshot" use graphctd's durable snapshot
// format, so scripts can pick up a graph from — or hand one to — a
// daemon data directory. "connect" targets a running graphctd daemon or
// router instead (the URL is environment-expanded, so scripts can say
// "connect $GRAPHCT_URL"); "graphs" lists what it serves and
// "fetch NAME" pulls a graph's newest durable snapshot down as the
// current graph for local analysis.
//
// Script errors are reported with the file and line of the failing
// command. Exit codes distinguish failure classes: 2 for parse/usage
// errors (of the command line or a script command), 1 for runtime
// failures of well-formed commands (missing graph files, kernel errors).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graphct/internal/script"
)

// Exit codes: parse/usage errors and kernel/runtime failures are
// distinct so driving processes (the paper's "external monitoring
// process") can tell a broken script from a failed analysis.
const (
	exitOK      = 0
	exitRuntime = 1 // well-formed command failed (I/O, kernel)
	exitParse   = 2 // flag misuse or script parse/usage error
)

type lines []string

func (l *lines) String() string     { return strings.Join(*l, "; ") }
func (l *lines) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed for sampling kernels")
	var exprs lines
	fs.Var(&exprs, "e", "execute one script line (repeatable)")
	if err := fs.Parse(args); err != nil {
		return exitParse
	}

	in := script.New(stdout, "")
	in.SetSeed(*seed)

	if len(exprs) > 0 {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "graphct: cannot mix -e lines with a script file")
			return exitParse
		}
		return report(stderr, in.Run(strings.NewReader(strings.Join(exprs, "\n"))))
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: graphct [-seed N] SCRIPT | graphct -e LINE [-e LINE...]")
		return exitParse
	}
	return report(stderr, in.RunFile(fs.Arg(0)))
}

// report prints err (already carrying file:line provenance from the
// interpreter) and maps it to an exit code.
func report(stderr io.Writer, err error) int {
	if err == nil {
		return exitOK
	}
	fmt.Fprintln(stderr, "graphct:", err)
	var se *script.Error
	if errors.As(err, &se) && se.Parse {
		return exitParse
	}
	return exitRuntime
}
