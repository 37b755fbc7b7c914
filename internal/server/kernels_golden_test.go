package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphct/internal/api"
	"graphct/internal/graph"
)

// TestKernelBodiesGolden pins, for every served kernel on
// testdata/sample.dimacs, the exact response body, the X-Graphct-Class
// lane and the canonical cache key, with default and explicit params.
// Graph "g" is loaded as-is; "r" is degree-reordered, so its bodies also
// pin the internal↔external id translation. Any change to a kernel's
// parsing, key canonicalization, class or result shape fails here.
func TestKernelBodiesGolden(t *testing.T) {
	reg := NewRegistry()
	g, err := reg.Load("g", "dimacs", "../../testdata/sample.dimacs", false)
	if err != nil {
		t.Fatal(err)
	}
	reg.Layout = graph.Layout{Reorder: graph.ReorderDegree, Compact: graph.CompactOff}
	r, err := reg.Load("r", "dimacs", "../../testdata/sample.dimacs", false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	epochs := map[string]uint64{"g": g.Epoch, "r": r.Epoch}

	for _, tc := range []struct {
		graph, kernel, query string
		class, params, body  string
	}{
		{"g", "components", "", api.ClassCheap, "",
			`{"count":3,"largest":[{"rank":1,"size":6},{"rank":2,"size":3},{"rank":3,"size":1}]}`},
		{"g", "stats", "", api.ClassCheap, "",
			`{"degree_max":4,"degree_mean":2.2,"degree_variance":1.1599999999999993,"edges":11,"power_law_alpha":8.48887568941862,"power_law_fit_vertices":1,"vertices":10}`},
		{"g", "degrees", "", api.ClassCheap, "",
			`{"N":10,"Min":0,"Max":4,"Mean":2.2,"Variance":1.1599999999999993}`},
		{"g", "clustering", "", api.ClassCheap, "",
			`{"global_clustering":0.7894736842105263}`},
		{"g", "diameter", "", api.ClassExpensive, "",
			`{"Estimate":12,"LongestPath":3,"Sources":10}`},
		{"g", "kcores", "", api.ClassCheap, "k=1",
			`{"edges":11,"k":1,"vertices":9}`},
		{"g", "kcores", "k=2", api.ClassCheap, "k=2",
			`{"edges":9,"k":2,"vertices":7}`},
		{"g", "kcores", "k=3", api.ClassCheap, "k=3",
			`{"edges":6,"k":3,"vertices":4}`},
		{"g", "kcores", "k=03", api.ClassCheap, "k=3",
			`{"edges":6,"k":3,"vertices":4}`},
		{"g", "kcentrality", "", api.ClassExpensive, "k=0&samples=256&top=10",
			`{"k":0,"sources":10,"top":[{"vertex":3,"score":12},{"vertex":4,"score":8},{"vertex":0,"score":0},{"vertex":1,"score":0},{"vertex":2,"score":0},{"vertex":5,"score":0},{"vertex":6,"score":0},{"vertex":7,"score":0},{"vertex":8,"score":0},{"vertex":9,"score":0}]}`},
		{"g", "kcentrality", "k=1&samples=4&top=3", api.ClassExpensive, "k=1&samples=4&top=3",
			`{"k":1,"sources":4,"top":[{"vertex":3,"score":14.166666666666666},{"vertex":0,"score":4.999999999999999},{"vertex":1,"score":4.999999999999999}]}`},
		{"g", "kcentrality", "k=2&samples=0&top=5", api.ClassExpensive, "k=2&samples=0&top=5",
			`{"k":2,"sources":10,"top":[{"vertex":3,"score":19.91948051948052},{"vertex":4,"score":10.01439393939394},{"vertex":0,"score":7.4225829725829735},{"vertex":1,"score":7.4225829725829735},{"vertex":2,"score":7.4225829725829735}]}`},
		{"g", "kcentrality", "epsilon=0.1", api.ClassExpensive, "delta=0.1&epsilon=0.1&k=0&top=10",
			`{"guarantee":{"epsilon":0.1,"delta":0.1,"samples_used":473,"rounds":2,"stopped":false},"k":0,"top":[{"vertex":3,"score":13.699788583509513},{"vertex":4,"score":10.274841437632135},{"vertex":0,"score":0},{"vertex":1,"score":0},{"vertex":2,"score":0},{"vertex":5,"score":0},{"vertex":6,"score":0},{"vertex":7,"score":0},{"vertex":8,"score":0},{"vertex":9,"score":0}]}`},
		{"g", "kcentrality", "epsilon=.05&delta=0.2&top=3", api.ClassExpensive, "delta=0.2&epsilon=0.05&k=0&top=3",
			`{"guarantee":{"epsilon":0.05,"delta":0.2,"samples_used":1753,"rounds":4,"stopped":false},"k":0,"top":[{"vertex":3,"score":12.373074729035938},{"vertex":4,"score":8.830576155162579},{"vertex":0,"score":0}]}`},
		{"g", "kcentrality", "epsilon=5e-2&delta=2e-1&top=3&k=0", api.ClassExpensive, "delta=0.2&epsilon=0.05&k=0&top=3",
			`{"guarantee":{"epsilon":0.05,"delta":0.2,"samples_used":1753,"rounds":4,"stopped":false},"k":0,"top":[{"vertex":3,"score":12.373074729035938},{"vertex":4,"score":8.830576155162579},{"vertex":0,"score":0}]}`},
		{"g", "bfs", "", api.ClassCheap, "depth=-1&src=0",
			`{"depth":3,"reached":6,"src":0}`},
		{"g", "bfs", "src=4&depth=2", api.ClassCheap, "depth=2&src=4",
			`{"depth":2,"reached":6,"src":4}`},
		{"g", "bfs", "src=9", api.ClassCheap, "depth=-1&src=9",
			`{"depth":0,"reached":1,"src":9}`},
		{"g", "bfs", "depth=1", api.ClassCheap, "depth=1&src=0",
			`{"depth":1,"reached":4,"src":0}`},
		{"g", "sssp", "", api.ClassCheap, "src=0",
			`{"max_distance":3,"reached":6,"src":0}`},
		{"g", "sssp", "src=5", api.ClassCheap, "src=5",
			`{"max_distance":3,"reached":6,"src":5}`},
		{"r", "components", "", api.ClassCheap, "",
			`{"count":3,"largest":[{"rank":1,"size":6},{"rank":2,"size":3},{"rank":3,"size":1}]}`},
		{"r", "kcentrality", "top=4", api.ClassExpensive, "k=0&samples=256&top=4",
			`{"k":0,"sources":10,"top":[{"vertex":3,"score":12},{"vertex":4,"score":8},{"vertex":0,"score":0},{"vertex":1,"score":0}]}`},
		{"r", "kcentrality", "epsilon=0.2&top=4", api.ClassExpensive, "delta=0.1&epsilon=0.2&k=0&top=4",
			`{"guarantee":{"epsilon":0.2,"delta":0.1,"samples_used":119,"rounds":1,"stopped":false},"k":0,"top":[{"vertex":3,"score":14.369747899159663},{"vertex":4,"score":8.319327731092436},{"vertex":0,"score":0},{"vertex":1,"score":0}]}`},
		{"r", "bfs", "src=3&depth=1", api.ClassCheap, "depth=1&src=3",
			`{"depth":1,"reached":5,"src":3}`},
		{"r", "sssp", "src=5", api.ClassCheap, "src=5",
			`{"max_distance":3,"reached":6,"src":5}`},
		{"r", "kcores", "k=3", api.ClassCheap, "k=3",
			`{"edges":6,"k":3,"vertices":4}`},
	} {
		path := fmt.Sprintf("/graphs/%s/%s", tc.graph, tc.kernel)
		if tc.query != "" {
			path += "?" + tc.query
		}
		status, hdr, body := get(t, ts.URL+path)
		if status != http.StatusOK {
			t.Errorf("%s: status %d body %s", path, status, body)
			continue
		}
		if string(body) != tc.body {
			t.Errorf("%s: body\n got %s\nwant %s", path, body, tc.body)
		}
		if got := hdr.Get(api.HeaderClass); got != tc.class {
			t.Errorf("%s: class %q, want %q", path, got, tc.class)
		}
		key := fmt.Sprintf("%s@%d/%s?%s", tc.graph, epochs[tc.graph], tc.kernel, tc.params)
		if cached, ok := s.cache.Get(key); !ok || string(cached) != string(body) {
			t.Errorf("%s: cache key %q holds %q (present %v), want the body", path, key, cached, ok)
		}
	}
}
