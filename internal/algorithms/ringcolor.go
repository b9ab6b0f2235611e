package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// RingThreeColoring is the Cole–Vishkin O(log* n) 3-coloring algorithm on
// consistently oriented rings with unique identifiers — the upper bound
// that Section 4.5 recovers via the speedup theorem. Outputs are labels of
// problems.KColoring(3, 2): label c ∈ {0,1,2} on both ports.
type RingThreeColoring struct {
	// IDSpace is the size of the identifier space; the round count is
	// log*-in-IDSpace plus a constant.
	IDSpace int
}

var _ sim.Algorithm = RingThreeColoring{}

// Name implements sim.Algorithm.
func (RingThreeColoring) Name() string { return "cole-vishkin-ring-3-coloring" }

// Rounds implements sim.Algorithm: cvIterations(IDSpace) + 4 (three
// reduction rounds plus window slack).
func (a RingThreeColoring) Rounds(n, delta int) int {
	return chainLen(cvIterations(a.IDSpace)) - 1
}

// Outputs implements sim.Algorithm.
func (a RingThreeColoring) Outputs(view *sim.View) ([]core.Label, error) {
	if view.Degree != 2 {
		return nil, fmt.Errorf("ring coloring on node of degree %d", view.Degree)
	}
	iters := cvIterations(a.IDSpace)
	need := chainLen(iters)
	chain, err := successorChain(view, need)
	if err != nil {
		return nil, err
	}
	color := chainFinalColor(chain, iters)
	l := core.Label(color)
	return []core.Label{l, l}, nil
}

// successorChain walks the ring along outgoing edges collecting IDs,
// starting at the viewing node.
func successorChain(view *sim.View, length int) ([]uint64, error) {
	chain := make([]uint64, 0, length)
	cur := view
	for len(chain) < length {
		if cur.ID == 0 {
			return nil, fmt.Errorf("ring coloring requires unique identifiers")
		}
		chain = append(chain, uint64(cur.ID))
		if len(chain) == length {
			break
		}
		next, err := outPort(cur)
		if err != nil {
			return nil, err
		}
		if next.Sub == nil {
			return nil, fmt.Errorf("view too shallow: need chain of %d, got %d", length, len(chain))
		}
		cur = next.Sub
	}
	return chain, nil
}

// outPort returns the unique outgoing port of a ring node.
func outPort(v *sim.View) (*sim.PortView, error) {
	var out *sim.PortView
	for i := range v.Ports {
		if v.Ports[i].Oriented == sim.OrientOut {
			if out != nil {
				return nil, fmt.Errorf("node has multiple outgoing edges; ring orientation must be consistent")
			}
			out = &v.Ports[i]
		}
	}
	if out == nil {
		return nil, fmt.Errorf("node has no outgoing edge; ring orientation must be consistent")
	}
	return out, nil
}

// RingOrientation orients a ring built by graph.Ring consistently around
// the cycle (i → i+1 mod n), which gives every node exactly one outgoing
// edge — the directed-ring setting of the classic color reduction
// results.
func RingOrientation(g *graph.Graph) (graph.Orientation, error) {
	if !g.IsRegular() || g.MaxDegree() != 2 {
		return graph.Orientation{}, fmt.Errorf("algorithms: ring orientation requires a 2-regular graph")
	}
	n := g.N()
	o := graph.Orientation{Toward: make([]int, g.M())}
	for id := 0; id < g.M(); id++ {
		u, v, _, _ := g.EdgeEndpoints(id)
		switch {
		case u == 0 && v == n-1:
			o.Toward[id] = 0
		case (u+1)%n == v:
			o.Toward[id] = v
		default:
			o.Toward[id] = u
		}
	}
	return o, nil
}
