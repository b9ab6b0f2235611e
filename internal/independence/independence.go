// Package independence implements the t-independence property of Section
// 3 of Brandt (PODC 2019) — the structural requirement on input-labeled
// graph classes under which the speedup theorem holds (illustrated by the
// paper's Figure 1) — and verifies it exhaustively on explicitly
// enumerated graph classes.
//
// Informally, a class is t-independent if fixing the radius-t extension of
// a neighborhood along one edge never constrains the possible extensions
// along the other edges. Inputs like edge orientations or colorings
// satisfy it; globally unique identifiers do not (an identifier seen in
// one extension excludes it from the others), which is why lifting the
// bounds to the LOCAL model needs the extra machinery of Sections 2.2
// and 4.3.
//
// Neighborhoods are compared by their port-numbered view serializations —
// exactly the indistinguishability relation available to an algorithm in
// the model, which is the relation the speedup proof manipulates.
package independence

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Labeled is one input-labeled graph of a class.
type Labeled struct {
	G  *graph.Graph
	In sim.Inputs
}

// Violation describes a failed independence check.
type Violation struct {
	Property int    // 1 (edge extensions) or 2 (node extensions)
	Detail   string // human-readable description
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("independence: property %d violated: %s", v.Property, v.Detail)
}

// CheckTIndependence exhaustively verifies both defining properties of
// t-independence over the given (finite, explicitly enumerated) class.
// It returns nil if the class is t-independent, a *Violation otherwise:
// the first failing neighborhood in class order, the same on every run.
//
//   - Property 1: for every equivalence class of radius-t edge
//     neighborhoods, every combination of one observed extension per
//     endpoint is realized by a single graph of the class.
//   - Property 2: for every equivalence class of radius-(t−1) node
//     neighborhoods, every combination of one observed extension per
//     incident edge is realized by a single graph of the class.
func CheckTIndependence(class []Labeled, t int) error {
	if t < 1 {
		return fmt.Errorf("independence: t must be positive")
	}
	if err := checkProperty1(class, t); err != nil {
		return err
	}
	return checkProperty2(class, t)
}

// checkProperty1 verifies the edge-neighborhood property. The radius-t
// neighborhood of an edge {u, v} on the relevant (high-girth) classes is
// determined by the radius-(t−1) views of u and v plus the edge's own
// port pair and inputs; the extension along v is then determined by v's
// radius-t view.
func checkProperty1(class []Labeled, t int) error {
	type sides struct {
		a, b map[string]bool // observed extension keys per side
		both map[string]bool // observed joint keys
		desc string          // example description for error messages
	}
	groups := map[string]*sides{}
	var order []*sides // groups in first-seen order, so the reported violation is deterministic
	for gi, lg := range class {
		builder := sim.NewViewBuilder(lg.G, lg.In)
		for id := 0; id < lg.G.M(); id++ {
			u, v, portU, portV := lg.G.EdgeEndpoints(id)
			baseU := builder.View(u, t-1).Key()
			baseV := builder.View(v, t-1).Key()
			extU := builder.View(u, t).Key()
			extV := builder.View(v, t).Key()
			// Orient the representation canonically so isomorphic edge
			// neighborhoods group together regardless of endpoint order.
			kA := sideKey(baseU, portU)
			kB := sideKey(baseV, portV)
			xA, xB := extU, extV
			if kB < kA {
				kA, kB = kB, kA
				xA, xB = xB, xA
			}
			groupKey := kA + "//" + kB + "//" + edgeInputKey(lg, id)
			s, ok := groups[groupKey]
			if !ok {
				s = &sides{
					a:    map[string]bool{},
					b:    map[string]bool{},
					both: map[string]bool{},
					desc: fmt.Sprintf("graph %d edge (%d,%d)", gi, u, v),
				}
				groups[groupKey] = s
				order = append(order, s)
			}
			s.a[xA] = true
			s.b[xB] = true
			s.both[xA+"||"+xB] = true
			if kA == kB {
				// Symmetric neighborhood: the swapped reading is equally
				// valid and must be recorded too.
				s.a[xB] = true
				s.b[xA] = true
				s.both[xB+"||"+xA] = true
			}
		}
	}
	for _, s := range order {
		if len(s.both) != len(s.a)*len(s.b) {
			return &Violation{
				Property: 1,
				Detail: fmt.Sprintf("%s: %d×%d endpoint extensions but only %d joint realizations",
					s.desc, len(s.a), len(s.b), len(s.both)),
			}
		}
	}
	return nil
}

// checkProperty2 verifies the node-neighborhood property: per class of
// radius-(t−1) node views, the observed per-port extension tuples must
// form the full product of the per-port extension sets.
func checkProperty2(class []Labeled, t int) error {
	type tuples struct {
		perPort []map[string]bool
		joint   map[string]bool
		desc    string
	}
	groups := map[string]*tuples{}
	var order []*tuples // groups in first-seen order, so the reported violation is deterministic
	for gi, lg := range class {
		builder := sim.NewViewBuilder(lg.G, lg.In)
		for v := 0; v < lg.G.N(); v++ {
			base := builder.View(v, t-1).Key()
			d := lg.G.Degree(v)
			exts := make([]string, d)
			full := builder.View(v, t)
			for port := 0; port < d; port++ {
				exts[port] = portExtensionKey(full, port)
			}
			groupKey := base
			s, ok := groups[groupKey]
			if !ok {
				s = &tuples{
					perPort: make([]map[string]bool, d),
					joint:   map[string]bool{},
					desc:    fmt.Sprintf("graph %d node %d", gi, v),
				}
				for i := range s.perPort {
					s.perPort[i] = map[string]bool{}
				}
				groups[groupKey] = s
				order = append(order, s)
			}
			for port := 0; port < d; port++ {
				s.perPort[port][exts[port]] = true
			}
			s.joint[strings.Join(exts, "||")] = true
		}
	}
	for _, s := range order {
		product := 1
		for _, m := range s.perPort {
			product *= len(m)
		}
		if len(s.joint) != product {
			return &Violation{
				Property: 2,
				Detail: fmt.Sprintf("%s: product of per-port extensions is %d but only %d joint realizations",
					s.desc, product, len(s.joint)),
			}
		}
	}
	return nil
}

// portExtensionKey serializes what a node learns through one port when
// extending its radius-(t−1) view to radius t: the subtree hanging off
// that port in the depth-t view.
func portExtensionKey(full *sim.View, port int) string {
	p := full.Ports[port]
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(int(p.Oriented)))
	sb.WriteByte(',')
	sb.WriteString(strconv.Itoa(p.EdgeColor))
	sb.WriteByte(',')
	sb.WriteString(strconv.Itoa(p.ReturnPort))
	sb.WriteByte(':')
	if p.Sub != nil {
		sb.WriteString(p.Sub.Key())
	}
	return sb.String()
}

func sideKey(base string, port int) string {
	return strconv.Itoa(port) + "@" + base
}

func edgeInputKey(lg Labeled, edgeID int) string {
	parts := []string{}
	if lg.In.Orientation != nil {
		parts = append(parts, "o"+strconv.Itoa(lg.In.Orientation.Toward[edgeID]))
	}
	if lg.In.EdgeColors != nil {
		parts = append(parts, "c"+strconv.Itoa(lg.In.EdgeColors.Color[edgeID]))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// OrientationClass returns the class of all 2^m orientations of a fixed
// port-numbered graph.
func OrientationClass(g *graph.Graph) []Labeled {
	m := g.M()
	if m > 20 {
		panic("independence: orientation class too large to enumerate")
	}
	out := make([]Labeled, 0, 1<<uint(m))
	for mask := 0; mask < 1<<uint(m); mask++ {
		o := graph.Orientation{Toward: make([]int, m)}
		for id := 0; id < m; id++ {
			u, v, _, _ := g.EdgeEndpoints(id)
			if mask&(1<<uint(id)) != 0 {
				o.Toward[id] = u
			} else {
				o.Toward[id] = v
			}
		}
		oCopy := o
		out = append(out, Labeled{G: g, In: sim.Inputs{Orientation: &oCopy}})
	}
	return out
}

// EdgeColoringClass returns the class of all proper k-edge-colorings of a
// fixed port-numbered graph.
func EdgeColoringClass(g *graph.Graph, k int) []Labeled {
	var out []Labeled
	colors := make([]int, g.M())
	var rec func(id int)
	rec = func(id int) {
		if id == g.M() {
			c := graph.EdgeColoring{Color: append([]int(nil), colors...), K: k}
			out = append(out, Labeled{G: g, In: sim.Inputs{EdgeColors: &c}})
			return
		}
		u, v, _, _ := g.EdgeEndpoints(id)
		for c := 0; c < k; c++ {
			ok := true
			for _, w := range []int{u, v} {
				for port := 0; port < g.Degree(w) && ok; port++ {
					_, other, _ := g.Neighbor(w, port)
					if other < id && colors[other] == c {
						ok = false
					}
				}
			}
			if ok {
				colors[id] = c
				rec(id + 1)
			}
		}
	}
	rec(0)
	return out
}

// UniqueIDClass returns the class of all injective assignments of IDs
// {1..space} to a fixed port-numbered graph.
func UniqueIDClass(g *graph.Graph, space int) []Labeled {
	n := g.N()
	if space < n {
		panic("independence: id space smaller than graph")
	}
	var out []Labeled
	ids := make([]int, n)
	used := make([]bool, space+1)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			out = append(out, Labeled{G: g, In: sim.Inputs{IDs: append([]int(nil), ids...)}})
			return
		}
		for id := 1; id <= space; id++ {
			if used[id] {
				continue
			}
			used[id] = true
			ids[v] = id
			rec(v + 1)
			used[id] = false
		}
	}
	rec(0)
	return out
}
