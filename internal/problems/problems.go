// Package problems is the catalog of the concrete locally checkable
// problems studied in Brandt (PODC 2019): sinkless coloring and sinkless
// orientation (Section 4.4), k-coloring (Section 4.5), the pointer version
// of weak 2-coloring (Section 4.6), and superweak k-coloring (Section 5.1).
//
// All constructors follow the paper's formal definitions verbatim,
// instantiated at a fixed Δ (the problems are defined on Δ-regular
// graphs).
package problems

import (
	"fmt"
	"strconv"

	"repro/internal/core"
)

// SinklessColoring returns the sinkless coloring problem on Δ-regular
// graphs (Section 4.4): each node picks one incident edge ("its color");
// on every edge, at least one endpoint must not pick it. Encoded with one
// output per node-edge pair: label "1" at (v, e) means v chooses e.
//
//	f(Δ) = {0, 1},  g(Δ) = {{0,0}, {0,1}},  h(Δ) = {{0^(Δ-1), 1}}.
func SinklessColoring(delta int) *core.Problem {
	mustDelta(delta, 1)
	alpha := core.MustAlphabet("0", "1")
	zero, one := core.Label(0), core.Label(1)

	edge := core.NewConstraint(2)
	edge.MustAdd(core.NewConfig(zero, zero))
	edge.MustAdd(core.NewConfig(zero, one))

	node := core.NewConstraint(delta)
	counts := map[core.Label]int{one: 1}
	if delta > 1 {
		counts[zero] = delta - 1
	}
	node.MustAdd(mustConfig(counts))

	return mustProblem(alpha, edge, node)
}

// SinklessOrientation returns the sinkless orientation problem on
// Δ-regular graphs (Section 4.4): orient every edge, endpoints agreeing,
// such that every node has at least one outgoing edge. Label "1" at (v, e)
// means v orients e away from itself.
//
//	f(Δ) = {0, 1},  g(Δ) = {{0,1}},
//	h(Δ) = {multisets with at least one 1}.
func SinklessOrientation(delta int) *core.Problem {
	mustDelta(delta, 1)
	alpha := core.MustAlphabet("0", "1")
	zero, one := core.Label(0), core.Label(1)

	edge := core.NewConstraint(2)
	edge.MustAdd(core.NewConfig(zero, one))

	node := core.NewConstraint(delta)
	for out := 1; out <= delta; out++ {
		counts := map[core.Label]int{one: out}
		if delta-out > 0 {
			counts[zero] = delta - out
		}
		node.MustAdd(mustConfig(counts))
	}

	return mustProblem(alpha, edge, node)
}

// KColoring returns the proper k-coloring problem on Δ-regular graphs
// (Section 4.5 uses it on rings, Δ = 2): every node outputs the same color
// on all its ports, adjacent nodes differ.
//
//	f(Δ) = {1..k},  g(Δ) = {{c1,c2} : c1 ≠ c2},  h(Δ) = {{c^Δ}}.
func KColoring(k, delta int) *core.Problem {
	mustDelta(delta, 1)
	if k < 1 {
		panic("problems: k-coloring needs k >= 1")
	}
	names := make([]string, k)
	for i := range names {
		names[i] = strconv.Itoa(i + 1)
	}
	alpha := core.MustAlphabet(names...)

	edge := core.NewConstraint(2)
	for c1 := 0; c1 < k; c1++ {
		for c2 := c1 + 1; c2 < k; c2++ {
			edge.MustAdd(core.NewConfig(core.Label(c1), core.Label(c2)))
		}
	}

	node := core.NewConstraint(delta)
	for c := 0; c < k; c++ {
		node.MustAdd(mustConfig(map[core.Label]int{core.Label(c): delta}))
	}

	return mustProblem(alpha, edge, node)
}

// Pointer-kind suffixes for the weak/superweak coloring label names:
// ">" demanding pointer, "<" accepting pointer, "." no pointer.
const (
	SuffixDemanding = ">"
	SuffixAccepting = "<"
	SuffixNone      = "."
)

// WeakTwoColoringPointer returns the pointer version of weak 2-coloring on
// Δ-regular graphs (Section 4.6): each node outputs a color in {1, 2} on
// all ports and marks exactly one port with a pointer ">"; the pointed-to
// neighbor must have a different color.
//
//	f(Δ) = {1,2} × {>, .},
//	g(Δ) = {{(y,y'),(z,z')} : y ≠ z or y' = "." = z'},
//	h(Δ) = {{(c,>), (c,.)^(Δ-1)} : c ∈ {1,2}}.
func WeakTwoColoringPointer(delta int) *core.Problem {
	mustDelta(delta, 1)
	// Labels: "1>", "1.", "2>", "2." in this order.
	alpha := core.MustAlphabet("1"+SuffixDemanding, "1"+SuffixNone, "2"+SuffixDemanding, "2"+SuffixNone)
	color := func(l core.Label) int { return int(l) / 2 }
	pointer := func(l core.Label) bool { return int(l)%2 == 0 }

	edge := core.NewConstraint(2)
	for a := 0; a < 4; a++ {
		for b := a; b < 4; b++ {
			la, lb := core.Label(a), core.Label(b)
			if color(la) != color(lb) || (!pointer(la) && !pointer(lb)) {
				edge.MustAdd(core.NewConfig(la, lb))
			}
		}
	}

	node := core.NewConstraint(delta)
	for c := 0; c < 2; c++ {
		point := core.Label(2 * c)
		plain := core.Label(2*c + 1)
		counts := map[core.Label]int{point: 1}
		if delta > 1 {
			counts[plain] = delta - 1
		}
		node.MustAdd(mustConfig(counts))
	}

	return mustProblem(alpha, edge, node)
}

// SuperweakLabelName renders a superweak label: color (1-based) plus
// pointer-kind suffix.
func SuperweakLabelName(color int, kind string) string {
	return strconv.Itoa(color) + kind
}

// Superweak returns the superweak k-coloring problem on Δ-regular graphs
// (Section 5.1): each node outputs one color c ∈ {1..k} on all ports, a
// set of demanding pointers ">" and a set of accepting pointers "<" on
// distinct ports, with strictly more demanding than accepting pointers and
// at most k accepting pointers. On every edge: different colors, or no
// demanding pointer, or a demanding pointer met by an accepting one.
//
//	f(Δ) = {1..k} × {>, <, .},
//	g(Δ) = {{(y,y'),(z,z')} : y ≠ z or y' = "." = z' or "<" ∈ {y',z'}},
//	h(Δ) = {same color c, a demanding, b accepting, Δ−a−b plain :
//	        min(k+1, a) > b}.
func Superweak(k, delta int) *core.Problem {
	mustDelta(delta, 1)
	if k < 2 {
		panic("problems: superweak coloring needs k >= 2")
	}
	names := make([]string, 0, 3*k)
	for c := 1; c <= k; c++ {
		names = append(names,
			SuperweakLabelName(c, SuffixDemanding),
			SuperweakLabelName(c, SuffixAccepting),
			SuperweakLabelName(c, SuffixNone))
	}
	alpha := core.MustAlphabet(names...)
	label := func(c int, kind int) core.Label { return core.Label(3*(c-1) + kind) }
	const (
		kindDemanding = 0
		kindAccepting = 1
		kindNone      = 2
	)

	edge := core.NewConstraint(2)
	for c1 := 1; c1 <= k; c1++ {
		for k1 := 0; k1 < 3; k1++ {
			for c2 := 1; c2 <= k; c2++ {
				for k2 := 0; k2 < 3; k2++ {
					l1, l2 := label(c1, k1), label(c2, k2)
					if l2 < l1 {
						continue
					}
					ok := c1 != c2 ||
						(k1 == kindNone && k2 == kindNone) ||
						k1 == kindAccepting || k2 == kindAccepting
					if ok {
						edge.MustAdd(core.NewConfig(l1, l2))
					}
				}
			}
		}
	}

	node := core.NewConstraint(delta)
	for c := 1; c <= k; c++ {
		for a := 1; a <= delta; a++ { // demanding count
			for b := 0; a+b <= delta; b++ { // accepting count
				if b >= min(k+1, a) || b > k {
					continue
				}
				counts := map[core.Label]int{label(c, kindDemanding): a}
				if b > 0 {
					counts[label(c, kindAccepting)] = b
				}
				if rest := delta - a - b; rest > 0 {
					counts[label(c, kindNone)] = rest
				}
				node.MustAdd(mustConfig(counts))
			}
		}
	}

	return mustProblem(alpha, edge, node)
}

// Entry is one catalog problem together with its known round-elimination
// behavior, for table-driven tests and the fixpoint driver.
type Entry struct {
	// Name identifies the entry, "family/parameters".
	Name string
	// Problem is the instantiated problem.
	Problem *core.Problem
	// FixedPoint records whether one speedup step is known to map the
	// problem back into its own isomorphism class (the paper's
	// lower-bound fixed points of Section 4.4).
	FixedPoint bool
}

// Catalog returns every problem of the paper at representative
// parameters, each small enough for an exact Speedup run in tests. The
// FixedPoint flags encode Section 4.4: sinkless coloring is a speedup
// fixed point at every Δ ≥ 3. Sinkless orientation is not flagged —
// one speedup step turns it into sinkless coloring, so it enters the
// fixed-point class only at the second step.
func Catalog() []Entry {
	return []Entry{
		{Name: "sinkless-coloring/delta=3", Problem: SinklessColoring(3), FixedPoint: true},
		{Name: "sinkless-coloring/delta=5", Problem: SinklessColoring(5), FixedPoint: true},
		{Name: "sinkless-orientation/delta=3", Problem: SinklessOrientation(3)},
		{Name: "3-coloring/delta=2", Problem: KColoring(3, 2)},
		{Name: "4-coloring/delta=2", Problem: KColoring(4, 2)},
		{Name: "weak2-pointer/delta=3", Problem: WeakTwoColoringPointer(3)},
		{Name: "weak2-pointer/delta=4", Problem: WeakTwoColoringPointer(4)},
		{Name: "superweak/k=2,delta=3", Problem: Superweak(2, 3)},
	}
}

func mustDelta(delta, minDelta int) {
	if delta < minDelta {
		panic(fmt.Sprintf("problems: Δ=%d below minimum %d", delta, minDelta))
	}
}

func mustConfig(counts map[core.Label]int) core.Config {
	cfg, err := core.NewConfigCounts(counts)
	if err != nil {
		panic(err)
	}
	return cfg
}

func mustProblem(alpha *core.Alphabet, edge, node core.Constraint) *core.Problem {
	p, err := core.NewProblem(alpha, edge, node)
	if err != nil {
		panic(err)
	}
	return p
}
