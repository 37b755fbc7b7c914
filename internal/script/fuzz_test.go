package script

import (
	"errors"
	"strings"
	"testing"
)

// FuzzScriptParse hardens the script front end: arbitrary input lines
// must parse to a command, a blank, or a parse-class error — never a
// panic, and never a runtime-class error (the parser has no graph to
// fail against). Successfully parsed commands must survive a canonical
// re-parse, so the parse result is a faithful representation of the line.
// Beyond the f.Add seeds, a committed corpus lives under
// testdata/fuzz/FuzzScriptParse; CI runs a short -fuzz smoke over it.
func FuzzScriptParse(f *testing.F) {
	seeds := []string{
		"read dimacs graph.txt",
		"read binary graph.bin",
		"kcentrality 1 256 => scores.txt",
		"extract component 1 => sub.bin",
		"print diameter 10",
		"compare exact.txt approx.txt 5",
		"bfs 0 4",
		"sssp 0 => dist.txt",
		"save graph",
		"restore graph",
		"kcores 2",
		"clustering => coef.txt",
		"undirected",
		"# a comment => not a redirect",
		"   ",
		"=> orphan.txt",
		"clustering =>",
		"kcentrality 9 1",
		"kcentrality 0 0 eps=0.01 delta=0.1",
		"kcentrality 0 0 eps=2",
		"kcentrality 1 4 eps=0.01",
		"bfs -1 2",
		"print diameter 0x10",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, err := ParseLine(line)
		if err != nil {
			var pe parseError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseLine returned a non-parse error: %v (input %q)", err, line)
			}
			if cmd.Name != "" || len(cmd.Args) != 0 || cmd.Redirect != "" {
				t.Fatalf("error with non-zero command %+v (input %q)", cmd, line)
			}
			return
		}
		if cmd.Name == "" {
			return // blank or comment
		}
		if _, known := commands[cmd.Name]; !known {
			t.Fatalf("parsed unknown command %q (input %q)", cmd.Name, line)
		}
		// The canonical rendering of a parsed command must re-parse to the
		// same command.
		rebuilt := cmd.Name
		if len(cmd.Args) > 0 {
			rebuilt += " " + strings.Join(cmd.Args, " ")
		}
		if cmd.Redirect != "" {
			rebuilt += " => " + cmd.Redirect
		}
		again, err := ParseLine(rebuilt)
		if err != nil {
			t.Fatalf("canonical form rejected: %q: %v (input %q)", rebuilt, err, line)
		}
		if again.Name != cmd.Name || again.Redirect != cmd.Redirect || len(again.Args) != len(cmd.Args) {
			t.Fatalf("re-parse diverged: %+v != %+v (input %q)", again, cmd, line)
		}
	})
}
