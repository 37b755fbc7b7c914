package kernel

import (
	"errors"
	"net/url"
	"slices"
	"sort"
	"testing"

	"graphct/internal/api"
)

// TestTableShape checks the invariants the rest of the table relies on:
// params listed in cache-key order, one class per name, and mode entries
// kept next to their default.
func TestTableShape(t *testing.T) {
	class := map[string]string{}
	for i, k := range table {
		names := make([]string, len(k.Params))
		for j, p := range k.Params {
			names[j] = p.Name
		}
		if !sort.StringsAreSorted(names) {
			t.Errorf("%s: params %v not in key order", k.Name, names)
		}
		if k.Class != api.ClassCheap && k.Class != api.ClassExpensive {
			t.Errorf("%s: class %q", k.Name, k.Class)
		}
		if c, seen := class[k.Name]; seen && (c != k.Class || table[i-1].Name != k.Name) {
			t.Errorf("%s: mode entry has another class or is not next to its default", k.Name)
		}
		class[k.Name] = k.Class
		if k.run == nil {
			t.Errorf("%s: no run", k.Name)
		}
	}
	want := []string{"components", "stats", "degrees", "clustering", "diameter", "kcores", "kcentrality", "bfs", "sssp"}
	if got := tableNames(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// tableNames lists every kernel name once, in table order.
func tableNames() []string {
	var names []string
	for i, k := range table {
		if i == 0 || table[i-1].Name != k.Name {
			names = append(names, k.Name)
		}
	}
	return names
}

func TestParseModesAndKeys(t *testing.T) {
	for _, tc := range []struct{ kernel, query, key string }{
		{"components", "", ""},
		{"kcores", "", "k=1"},
		{"kcores", "k=2147483647", "k=2147483647"},
		{"kcentrality", "", "k=0&samples=256&top=10"},
		{"kcentrality", "epsilon=&delta=", "k=0&samples=256&top=10"},
		{"kcentrality", "epsilon=.05&top=3", "delta=0.1&epsilon=0.05&k=0&top=3"},
		{"kcentrality", "delta=2e-1&epsilon=5e-2", "delta=0.2&epsilon=0.05&k=0&top=10"},
		{"bfs", "src=9&depth=2", "depth=2&src=9"},
		{"sssp", "", "src=0"},
	} {
		q, _ := url.ParseQuery(tc.query)
		c, err := Parse(tc.kernel, q, 10)
		if err != nil {
			t.Errorf("%s?%s: %v", tc.kernel, tc.query, err)
			continue
		}
		if c.Key() != tc.key {
			t.Errorf("%s?%s: key %q, want %q", tc.kernel, tc.query, c.Key(), tc.key)
		}
	}
	if _, err := Parse("nosuch", nil, 10); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown kernel: %v", err)
	}
	// Without a graph, vertex ids are checked only statically; InGraph
	// applies the bound later.
	c, err := Parse("bfs", url.Values{"src": {"10"}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	var ve *Error
	if err := c.InGraph(10); !errors.As(err, &ve) {
		t.Errorf("InGraph(10) for src=10: %v", err)
	}
}

// FuzzKernelParams drives every table kernel with an arbitrary raw query:
// Parse must never panic, every error must be a validation error, and a
// canonical key must re-parse to itself.
func FuzzKernelParams(f *testing.F) {
	names := tableNames()
	for i, q := range []string{
		"", "k=2", "k=4294967298", "k=99&samples=abc", "epsilon=0.05&delta=0.2&top=3",
		"epsilon=NaN", "delta=0.5", "epsilon=0.05&k=1", "epsilon=0.05&samples=16",
		"src=9&depth=-4", "src=10", "top=0", "epsilon=1e-300", "%zz&k=1",
	} {
		f.Add(uint8(i), q, uint16(10))
	}
	f.Fuzz(func(t *testing.T, pick uint8, raw string, n uint16) {
		name := names[int(pick)%len(names)]
		q, _ := url.ParseQuery(raw)
		c, err := Parse(name, q, int(n))
		if err != nil {
			var ve *Error
			if !errors.As(err, &ve) {
				t.Fatalf("%s?%s: non-validation error %v", name, raw, err)
			}
			return
		}
		key := c.Key()
		kq, err := url.ParseQuery(key)
		if err != nil {
			t.Fatalf("%s?%s: key %q does not parse as a query: %v", name, raw, key, err)
		}
		again, err := Parse(name, kq, int(n))
		if err != nil {
			t.Fatalf("%s?%s: key %q rejected: %v", name, raw, key, err)
		}
		if again.Key() != key {
			t.Fatalf("%s?%s: key %q re-parsed to %q", name, raw, key, again.Key())
		}
	})
}
