package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func sampleServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Load("g", "dimacs", "../../testdata/sample.dimacs", false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Config{}))
	t.Cleanup(ts.Close)
	return ts
}

// TestKernelBadParams rejects every row of the shared bad-parameter table
// with 400 (the script front end rejects the same rows).
func TestKernelBadParams(t *testing.T) {
	ts := sampleServer(t)
	for _, row := range badParams(t) {
		path := "/graphs/g/" + row[0] + "?" + row[1]
		if status, _, body := get(t, ts.URL+path); status != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", path, status, body)
		}
	}
}

// TestKCentralityTopBeyondN asks both centrality modes for a ranking far
// longer than the graph: the answer ranks all n vertices, and the ranking
// is never sized by the client's top.
func TestKCentralityTopBeyondN(t *testing.T) {
	ts := sampleServer(t)
	for _, q := range []string{"top=1000000000", "epsilon=0.2&top=1000000000"} {
		status, _, body := get(t, ts.URL+"/graphs/g/kcentrality?"+q)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d body %s", q, status, body)
		}
		var res struct{ Top []struct{ Vertex int32 } }
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Top) != 10 {
			t.Errorf("%s: %d ranked vertices, want all 10", q, len(res.Top))
		}
	}
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz %d after oversized top", status)
	}
}

// badParams loads the bad-parameter table shared by the graphctd and
// script tests: rows of kernel | query | script line ("-": no spelling).
func badParams(t *testing.T) [][3]string {
	t.Helper()
	data, err := os.ReadFile("../kernel/testdata/bad_params.txt")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][3]string
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Split(line, "|"); len(f) == 3 && !strings.HasPrefix(line, "#") {
			rows = append(rows, [3]string{strings.TrimSpace(f[0]), strings.TrimSpace(f[1]), strings.TrimSpace(f[2])})
		}
	}
	if len(rows) == 0 {
		t.Fatal("bad-parameter table is empty")
	}
	return rows
}
