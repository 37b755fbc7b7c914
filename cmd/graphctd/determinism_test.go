package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"graphct/internal/dimacs"
	"graphct/internal/gen"
)

// TestKCentralityBodiesIdenticalAcrossProcs is the server half of the
// determinism contract, against the real binary: two daemons load the
// same graph file, one at GOMAXPROCS=1 and one at GOMAXPROCS=4, and the
// same k-betweenness requests must come back as byte-identical bodies.
// Result caching, coalescing and replica reads all rely on this.
func TestKCentralityBodiesIdenticalAcrossProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts real daemons; skipped in -short")
	}
	g := gen.RMAT(gen.PaperRMAT(10, 7))
	path := filepath.Join(t.TempDir(), "rmat10.dimacs")
	var buf bytes.Buffer
	if err := dimacs.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildDaemon(t)

	// top=n returns every vertex's score, not only the default ten.
	queries := []string{
		fmt.Sprintf("kcentrality?k=0&samples=32&top=%d", g.NumVertices()),
		fmt.Sprintf("kcentrality?k=1&samples=16&top=%d", g.NumVertices()),
	}
	bodies := make(map[string][]string)
	for _, procs := range []string{"1", "4"} {
		addr := freeAddr(t)
		base := "http://" + addr
		daemon := startDaemon(t, bin, []string{"-addr", addr, "-graph", "g=dimacs:" + path}, "GOMAXPROCS="+procs)
		waitReady(t, base)
		for _, q := range queries {
			resp, err := http.Get(base + "/graphs/g/" + q)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%s %s: %v", procs, q, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GOMAXPROCS=%s %s: HTTP %d, %v: %s", procs, q, resp.StatusCode, err, body)
			}
			bodies[q] = append(bodies[q], string(body))
		}
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}
	for _, q := range queries {
		if b := bodies[q]; b[0] != b[1] {
			t.Errorf("%s: GOMAXPROCS=1 and GOMAXPROCS=4 bodies differ:\n%s\n%s", q, b[0], b[1])
		}
	}
}
