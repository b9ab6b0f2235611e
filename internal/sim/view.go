// Package sim implements the port numbering / LOCAL model simulator used
// to validate algorithms and derived problems on concrete graphs.
//
// The best a node can do in t rounds is to gather its radius-t
// neighborhood — topology, port numbers, and round-0 inputs — and map it
// to outputs (Section 3 of the paper). The simulator therefore represents
// a t-round algorithm as a function from radius-t views to one output
// label per port, and executes it by building each node's view tree.
package sim

import (
	"strconv"
	"strings"

	"repro/internal/graph"
)

// OrientDir is the orientation of an edge as seen from one endpoint.
type OrientDir int

// Orientation of an incident edge relative to the viewing node.
const (
	OrientNone OrientDir = iota // no orientation input given
	OrientOut                   // edge points away from the viewing node
	OrientIn                    // edge points toward the viewing node
)

// View is the radius-t view of a node: everything it can learn in t rounds
// of full-information communication. On graphs of girth ≥ 2t+2 this is
// literally the (labeled) radius-t subgraph; on general graphs it is the
// standard universal-cover unrolling, which is exactly the information a
// port-numbering algorithm can gather.
type View struct {
	Degree    int
	ID        int // unique identifier, 0 if none given
	NodeColor int // node color input, -1 if none given
	Ports     []PortView
}

// PortView is what a node sees across one of its ports.
type PortView struct {
	Oriented   OrientDir
	EdgeColor  int   // edge color input, -1 if none given
	ReturnPort int   // the neighbor's port leading back along this edge
	Sub        *View // neighbor's view of depth t−1; nil at depth 0
}

// Inputs bundles the optional symmetry-breaking inputs for a simulation.
type Inputs struct {
	IDs         []int
	Orientation *graph.Orientation
	EdgeColors  *graph.EdgeColoring
	NodeColors  *graph.NodeColoring
}

// ViewBuilder constructs radius-t views with memoization: the radius-d
// view of a node is a single shared object, so the view "tree" is built as
// a DAG with n·(t+1) distinct nodes instead of Δ^t — essential for
// simulating ω(1)-round algorithms. Views must be treated as read-only.
type ViewBuilder struct {
	g    *graph.Graph
	in   Inputs
	memo map[viewKey]*View
}

type viewKey struct {
	v, t int
}

// NewViewBuilder returns a memoizing view builder for a graph and inputs.
func NewViewBuilder(g *graph.Graph, in Inputs) *ViewBuilder {
	return &ViewBuilder{g: g, in: in, memo: make(map[viewKey]*View)}
}

// View returns the radius-t view of node v, shared across calls.
func (b *ViewBuilder) View(v, t int) *View {
	if cached, ok := b.memo[viewKey{v, t}]; ok {
		return cached
	}
	view := &View{
		Degree:    b.g.Degree(v),
		NodeColor: -1,
		Ports:     make([]PortView, b.g.Degree(v)),
	}
	// Insert before recursing is unnecessary (t strictly decreases), but
	// insert after to keep the invariant simple.
	if b.in.IDs != nil {
		view.ID = b.in.IDs[v]
	}
	if b.in.NodeColors != nil {
		view.NodeColor = b.in.NodeColors.Color[v]
	}
	for port := 0; port < b.g.Degree(v); port++ {
		to, edgeID, toPort := b.g.Neighbor(v, port)
		pv := PortView{EdgeColor: -1, ReturnPort: -1}
		if t > 0 {
			// The neighbor's port number for this edge is learned only
			// after one round of communication.
			pv.ReturnPort = toPort
		}
		if b.in.Orientation != nil {
			if b.in.Orientation.Toward[edgeID] == v {
				pv.Oriented = OrientIn
			} else {
				pv.Oriented = OrientOut
			}
		}
		if b.in.EdgeColors != nil {
			pv.EdgeColor = b.in.EdgeColors.Color[edgeID]
		}
		if t > 0 {
			pv.Sub = b.View(to, t-1)
		}
		view.Ports[port] = pv
	}
	b.memo[viewKey{v, t}] = view
	return view
}

// BuildView constructs the radius-t view of node v in g under the given
// inputs.
func BuildView(g *graph.Graph, in Inputs, v, t int) *View {
	view := &View{
		Degree:    g.Degree(v),
		NodeColor: -1,
		Ports:     make([]PortView, g.Degree(v)),
	}
	if in.IDs != nil {
		view.ID = in.IDs[v]
	}
	if in.NodeColors != nil {
		view.NodeColor = in.NodeColors.Color[v]
	}
	for port := 0; port < g.Degree(v); port++ {
		to, edgeID, toPort := g.Neighbor(v, port)
		pv := PortView{EdgeColor: -1, ReturnPort: -1}
		if t > 0 {
			// The neighbor's port number for this edge is learned only
			// after one round of communication.
			pv.ReturnPort = toPort
		}
		if in.Orientation != nil {
			if in.Orientation.Toward[edgeID] == v {
				pv.Oriented = OrientIn
			} else {
				pv.Oriented = OrientOut
			}
		}
		if in.EdgeColors != nil {
			pv.EdgeColor = in.EdgeColors.Color[edgeID]
		}
		if t > 0 {
			pv.Sub = BuildView(g, in, to, t-1)
		}
		view.Ports[port] = pv
	}
	return view
}

// Depth returns the radius of the view: 0 if no port carries a subview.
func (v *View) Depth() int {
	d := 0
	for _, p := range v.Ports {
		if p.Sub != nil {
			if sd := p.Sub.Depth() + 1; sd > d {
				d = sd
			}
		}
	}
	return d
}

// Key returns a canonical serialization of the view. Two nodes receive
// equal keys iff their views are indistinguishable to any deterministic
// port-numbering algorithm.
func (v *View) Key() string {
	var sb strings.Builder
	v.encode(&sb)
	return sb.String()
}

func (v *View) encode(sb *strings.Builder) {
	sb.WriteByte('[')
	sb.WriteString(strconv.Itoa(v.Degree))
	sb.WriteByte(';')
	sb.WriteString(strconv.Itoa(v.ID))
	sb.WriteByte(';')
	sb.WriteString(strconv.Itoa(v.NodeColor))
	for _, p := range v.Ports {
		sb.WriteByte('(')
		sb.WriteString(strconv.Itoa(int(p.Oriented)))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(p.EdgeColor))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(p.ReturnPort))
		sb.WriteByte(',')
		if p.Sub != nil {
			p.Sub.encode(sb)
		} else {
			sb.WriteByte('_')
		}
		sb.WriteByte(')')
	}
	sb.WriteByte(']')
}
