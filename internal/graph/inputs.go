package graph

import (
	"fmt"
	"math/rand"
)

// This file provides the symmetry-breaking input labelings from Section 3
// of the paper: edge orientations, edge colorings, node colorings, and
// unique identifiers. All are "given in the natural way" (footnote 7):
// edge inputs are visible to both endpoints at round 0.

// Orientation assigns a direction to every edge: Toward[e] is the endpoint
// the edge points to.
type Orientation struct {
	Toward []int
}

// RandomOrientation orients every edge independently uniformly at random.
func RandomOrientation(g *Graph, rng *rand.Rand) Orientation {
	o := Orientation{Toward: make([]int, g.M())}
	for id := 0; id < g.M(); id++ {
		u, v, _, _ := g.EdgeEndpoints(id)
		if rng.Intn(2) == 0 {
			o.Toward[id] = u
		} else {
			o.Toward[id] = v
		}
	}
	return o
}

// OutDegree returns the number of edges oriented away from v.
func (o Orientation) OutDegree(g *Graph, v int) int {
	out := 0
	for port := 0; port < g.Degree(v); port++ {
		_, id, _ := g.Neighbor(v, port)
		if o.Toward[id] != v {
			out++
		}
	}
	return out
}

// IsSinkless reports whether every node has at least one outgoing edge.
func (o Orientation) IsSinkless(g *Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 0 && o.OutDegree(g, v) == 0 {
			return false
		}
	}
	return true
}

// EdgeColoring assigns a color to every edge such that edges sharing an
// endpoint differ.
type EdgeColoring struct {
	Color []int
	K     int
}

// NodeColoring assigns a color to every node such that adjacent nodes
// differ.
type NodeColoring struct {
	Color []int
	K     int
}

// UniqueIDs returns a uniformly random injective assignment of ids from
// {1, ..., space} to the nodes. space must be at least n.
func UniqueIDs(g *Graph, space int, rng *rand.Rand) ([]int, error) {
	n := g.N()
	if space < n {
		return nil, fmt.Errorf("graph: id space %d smaller than n=%d", space, n)
	}
	perm := rng.Perm(space)[:n]
	ids := make([]int, n)
	for v := 0; v < n; v++ {
		ids[v] = perm[v] + 1
	}
	return ids, nil
}
