// Package kernel is the table of kernels graphctd serves. Each entry
// defines one kernel once: its name, typed parameters (syntax, default,
// static range), the rules between parameters, the canonical cache key,
// the QoS cost class and the run. graphctd's handler and admission lanes,
// the graphct script front end (which binds positional arguments to the
// same parameter names) and cmd/loadgen all read this table, so adding a
// kernel means one entry in table.go plus its tests. The model is
// NetworKit's uniform algorithm interface: parameters, a run, a result —
// here the value graphctd encodes as the response body.
package kernel

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"graphct/internal/core"
	"graphct/internal/graph"
)

// Kind is a parameter's value type.
type Kind int

const (
	Int    Kind = iota // decimal integer (strconv.Atoi) in [Min, Max]
	Vertex             // Int that must also be a vertex of the graph run on
	Unit               // real (strconv.ParseFloat) strictly inside (0, 1)
)

// Param is one typed parameter. An absent or empty value takes Def, so a
// Param whose Def is "" is required. Min == Max == 0 leaves an Int
// unbounded.
type Param struct {
	Name     string
	Kind     Kind
	Def      string
	Min, Max int
}

// Kernel is one table entry. A kernel with several modes has one entry
// per mode under the same name, next to each other: the first is the
// default, and a later one is selected when a request gives any of its
// when params.
type Kernel struct {
	Name   string
	Class  string  // api.ClassCheap or api.ClassExpensive: the admission lane
	Params []Param // in cache-key order: sorted by name

	when  []string
	check func(c Call, given func(string) bool) error // rules between params
	run   func(ctx context.Context, in Input, c Call) (any, error)
}

// Input is what a kernel runs over: a graph, its memoized undirected
// view, the translation between the internal labels kernels see and the
// ids clients use, and the sampling seed.
type Input struct {
	Graph                  *graph.Graph
	Undirected             func() *graph.Graph
	ToExternal, ToInternal func(int32) int32
	Seed                   int64
}

func (in Input) toolkit(g *graph.Graph) *core.Toolkit {
	return core.New(g, core.WithSeed(in.Seed))
}

// Error is a parameter validation failure: the request is at fault
// (HTTP 400 from graphctd, a parse error in a script).
type Error struct{ msg string }

func (e *Error) Error() string { return e.msg }

func invalid(format string, args ...any) error { return &Error{fmt.Sprintf(format, args...)} }

// ErrUnknown is Parse's error for a name no entry has.
var ErrUnknown = errors.New("unknown kernel")

// Lookup returns the named kernel's default entry.
func Lookup(name string) (*Kernel, bool) {
	for _, k := range table {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// Call is a validated request: the selected entry and a typed value for
// each of its params.
type Call struct {
	*Kernel
	vals map[string]value
}

type value struct {
	i int
	f float64
}

// Parse validates a request for the named kernel and selects its mode.
// n is the vertex count of the graph the call will run on; n < 0 skips
// vertex upper bounds, for front ends that validate before a graph is
// loaded and call InGraph later. Every error but ErrUnknown is an *Error.
func Parse(name string, q url.Values, n int) (Call, error) {
	given := func(p string) bool { return q.Get(p) != "" }
	var k *Kernel
	for _, e := range table {
		if e.Name == name && (k == nil || slices.ContainsFunc(e.when, given)) {
			k = e
		}
	}
	if k == nil {
		return Call{}, ErrUnknown
	}
	c := Call{Kernel: k, vals: make(map[string]value, len(k.Params))}
	for _, p := range k.Params {
		raw := q.Get(p.Name)
		if raw == "" {
			raw = p.Def
		}
		v, err := p.parse(raw)
		if err != nil {
			return Call{}, err
		}
		c.vals[p.Name] = v
	}
	if k.check != nil {
		if err := k.check(c, given); err != nil {
			return Call{}, err
		}
	}
	if n >= 0 {
		if err := c.InGraph(n); err != nil {
			return Call{}, err
		}
	}
	return c, nil
}

func (p Param) parse(raw string) (value, error) {
	if p.Kind == Unit {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil || !(f > 0 && f < 1) { // also rejects NaN
			return value{}, invalid("bad %s %q (need 0 < %s < 1)", p.Name, raw, p.Name)
		}
		return value{f: f}, nil
	}
	v, err := strconv.Atoi(raw)
	bounded := p.Min != 0 || p.Max != 0
	if err != nil || bounded && (v < p.Min || v > p.Max) {
		if bounded {
			return value{}, invalid("bad %s %q (supported range %d..%d)", p.Name, raw, p.Min, p.Max)
		}
		return value{}, invalid("bad %s %q (want an integer)", p.Name, raw)
	}
	return value{i: v}, nil
}

// InGraph checks the call's Vertex params against a graph of n vertices.
func (c Call) InGraph(n int) error {
	for _, p := range c.Params {
		if v := c.vals[p.Name].i; p.Kind == Vertex && v >= n {
			return invalid("bad %s %d (graph has %d vertices)", p.Name, v, n)
		}
	}
	return nil
}

// Int returns an Int or Vertex param's value, Float a Unit param's; both
// return 0 for a param the selected entry does not have.
func (c Call) Int(name string) int { return c.vals[name].i }

func (c Call) Float(name string) float64 { return c.vals[name].f }

// Key is the canonical parameter string and the cache-key suffix: every
// param as name=value in Params order, reals in shortest %g form, so
// equal requests spelled differently ("0.05", ".05", "5e-2") share one
// key. Parsing a Key yields the same Key.
func (c Call) Key() string {
	kv := make([]string, len(c.Params))
	for i, p := range c.Params {
		if v := c.vals[p.Name]; p.Kind == Unit {
			kv[i] = p.Name + "=" + strconv.FormatFloat(v.f, 'g', -1, 64)
		} else {
			kv[i] = p.Name + "=" + strconv.Itoa(v.i)
		}
	}
	return strings.Join(kv, "&")
}

// Run executes the call over in and returns the response value.
func (c Call) Run(ctx context.Context, in Input) (any, error) { return c.run(ctx, in, c) }
