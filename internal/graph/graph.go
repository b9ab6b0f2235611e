// Package graph provides the input-graph substrate for the port numbering
// and LOCAL model simulations: simple undirected graphs with per-endpoint
// port numbers, plus the input labelings the paper uses for symmetry
// breaking (edge orientations, edge colorings, node colorings, unique
// identifiers) and generators for the graph classes its arguments run on
// (rings, Δ-regular trees, high-girth random Δ-regular graphs).
package graph

import (
	"fmt"
	"math/rand"
)

// Graph is a simple undirected graph. Each node's incident edges are
// numbered by ports 1..deg(v) (stored 0-based); the two endpoints of an
// edge may use different ports, exactly as in the port numbering model
// (Section 3 of the paper).
type Graph struct {
	n     int
	adj   [][]halfEdge // adj[v][port] = (neighbor, edge id, neighbor's port)
	edges []edge
}

type halfEdge struct {
	to       int
	edgeID   int
	toPort   int
	fromPort int
}

type edge struct {
	u, v         int // u < v
	portU, portV int
}

// Builder accumulates edges before freezing into a Graph.
type Builder struct {
	n     int
	pairs [][2]int
	seen  map[[2]int]bool
}

// NewBuilder creates a builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, seen: make(map[[2]int]bool)}
}

// AddEdge adds the undirected edge {u, v}. Self-loops and duplicate edges
// are rejected.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int{u, v}
	if b.seen[key] {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.seen[key] = true
	b.pairs = append(b.pairs, key)
	return nil
}

// Build freezes the builder into a Graph, assigning ports in edge
// insertion order. Use ShufflePorts for adversarial/random port numbers.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, adj: make([][]halfEdge, b.n), edges: make([]edge, len(b.pairs))}
	for id, p := range b.pairs {
		u, v := p[0], p[1]
		portU, portV := len(g.adj[u]), len(g.adj[v])
		g.adj[u] = append(g.adj[u], halfEdge{to: v, edgeID: id, toPort: portV, fromPort: portU})
		g.adj[v] = append(g.adj[v], halfEdge{to: u, edgeID: id, toPort: portU, fromPort: portV})
		g.edges[id] = edge{u: u, v: v, portU: portU, portV: portV}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Δ.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// IsRegular reports whether every node has the same degree.
func (g *Graph) IsRegular() bool {
	if g.n == 0 {
		return true
	}
	d := len(g.adj[0])
	for v := 1; v < g.n; v++ {
		if len(g.adj[v]) != d {
			return false
		}
	}
	return true
}

// Neighbor returns the neighbor of v reached through the given 0-based
// port, together with the edge id and the neighbor's port for that edge.
func (g *Graph) Neighbor(v, port int) (to, edgeID, toPort int) {
	h := g.adj[v][port]
	return h.to, h.edgeID, h.toPort
}

// EdgeEndpoints returns the endpoints (u < v) and their ports for edge id.
func (g *Graph) EdgeEndpoints(id int) (u, v, portU, portV int) {
	e := g.edges[id]
	return e.u, e.v, e.portU, e.portV
}

// EdgeBetween returns the edge id connecting u and v, if any.
func (g *Graph) EdgeBetween(u, v int) (int, bool) {
	for _, h := range g.adj[u] {
		if h.to == v {
			return h.edgeID, true
		}
	}
	return 0, false
}

// PortOf returns v's port for edge id; v must be an endpoint.
func (g *Graph) PortOf(v, id int) int {
	e := g.edges[id]
	switch v {
	case e.u:
		return e.portU
	case e.v:
		return e.portV
	}
	panic("graph: PortOf: node is not an endpoint of the edge")
}

// Clone returns a deep copy of the graph sharing no state with the
// original: same nodes, edges, and port numbering. Family enumerators
// use it to derive many port-numbered variants from one base graph.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		n:     g.n,
		adj:   make([][]halfEdge, g.n),
		edges: append([]edge(nil), g.edges...),
	}
	for v := range g.adj {
		cp.adj[v] = append([]halfEdge(nil), g.adj[v]...)
	}
	return cp
}

// PermutePorts renumbers node v's ports by the given permutation:
// the edge currently on port i moves to port perm[i]. All
// cross-references are updated. It rejects slices that are not
// permutations of 0..deg(v)-1.
func (g *Graph) PermutePorts(v int, perm []int) error {
	d := len(g.adj[v])
	if len(perm) != d {
		return fmt.Errorf("graph: PermutePorts: got %d entries for degree-%d node", len(perm), d)
	}
	seen := make([]bool, d)
	for _, p := range perm {
		if p < 0 || p >= d || seen[p] {
			return fmt.Errorf("graph: PermutePorts: %v is not a permutation of 0..%d", perm, d-1)
		}
		seen[p] = true
	}
	// Decompose into transpositions; SwapPorts maintains every
	// cross-reference invariant.
	current := make([]int, d) // current[i] = original port now at position i
	for i := range current {
		current[i] = i
	}
	inv := make([]int, d) // inv[newPort] = original port
	for oldPort, newPort := range perm {
		inv[newPort] = oldPort
	}
	for pos := 0; pos < d; pos++ {
		want := inv[pos]
		if current[pos] == want {
			continue
		}
		j := pos + 1
		for ; j < d; j++ {
			if current[j] == want {
				break
			}
		}
		g.SwapPorts(v, pos, j)
		current[pos], current[j] = current[j], current[pos]
	}
	return nil
}

// SwapPorts exchanges two port numbers of node v, updating all
// cross-references.
func (g *Graph) SwapPorts(v, p1, p2 int) {
	if p1 == p2 {
		return
	}
	g.adj[v][p1], g.adj[v][p2] = g.adj[v][p2], g.adj[v][p1]
	for _, port := range []int{p1, p2} {
		g.adj[v][port].fromPort = port
		h := g.adj[v][port]
		e := &g.edges[h.edgeID]
		if e.u == v {
			e.portU = port
		} else {
			e.portV = port
		}
	}
	for _, port := range []int{p1, p2} {
		h := g.adj[v][port]
		for i := range g.adj[h.to] {
			if g.adj[h.to][i].edgeID == h.edgeID {
				g.adj[h.to][i].toPort = port
			}
		}
	}
}

// ShufflePorts randomly permutes every node's port numbering using rng.
// Worst-case port assignments are adversarial; random shuffling is how the
// test harness explores them.
func (g *Graph) ShufflePorts(rng *rand.Rand) {
	for v := 0; v < g.n; v++ {
		perm := rng.Perm(len(g.adj[v]))
		newAdj := make([]halfEdge, len(g.adj[v]))
		for oldPort, newPort := range perm {
			newAdj[newPort] = g.adj[v][oldPort]
		}
		g.adj[v] = newAdj
		// Rewire the cross-references.
		for port := range g.adj[v] {
			g.adj[v][port].fromPort = port
			h := g.adj[v][port]
			e := &g.edges[h.edgeID]
			if e.u == v {
				e.portU = port
			} else {
				e.portV = port
			}
		}
	}
	// Refresh toPort caches after all endpoints settled.
	for v := 0; v < g.n; v++ {
		for port := range g.adj[v] {
			h := &g.adj[v][port]
			e := g.edges[h.edgeID]
			if e.u == v {
				h.toPort = e.portV
			} else {
				h.toPort = e.portU
			}
		}
	}
}

// Girth returns the length of the shortest cycle, or -1 if the graph is
// acyclic. Computed by BFS from every node in O(n·m).
func (g *Graph) Girth() int {
	best := -1
	dist := make([]int, g.n)
	parentEdge := make([]int, g.n)
	for src := 0; src < g.n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		parentEdge[src] = -1
		queue := []int{src}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, h := range g.adj[v] {
				if h.edgeID == parentEdge[v] {
					continue
				}
				if dist[h.to] == -1 {
					dist[h.to] = dist[v] + 1
					parentEdge[h.to] = h.edgeID
					queue = append(queue, h.to)
				} else {
					// Cycle through v and h.to.
					cyc := dist[v] + dist[h.to] + 1
					if best == -1 || cyc < best {
						best = cyc
					}
				}
			}
		}
	}
	return best
}

// Nodes returns 0..n-1; a convenience for range loops in callers that want
// to be explicit.
func (g *Graph) Nodes() []int {
	out := make([]int, g.n)
	for i := range out {
		out[i] = i
	}
	return out
}
