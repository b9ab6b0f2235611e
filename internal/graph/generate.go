package graph

import (
	"fmt"
	"math/rand"
)

// Ring returns the cycle C_n (2-regular, girth n). Requires n ≥ 3.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs n >= 3, got %d", n)
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(i, (i+1)%n); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// RingUniform returns C_n with rotationally homogeneous port numbers:
// every node's port 0 leads to its predecessor and port 1 to its
// successor. Homogeneous classes built over it (all orientations, all
// colorings) are t-independent, matching the paper's regular high-girth
// classes.
func RingUniform(n int) (*Graph, error) {
	g, err := Ring(n)
	if err != nil {
		return nil, err
	}
	// Ring assigns node 0's ports in insertion order (successor first);
	// swap to match every other node's (predecessor, successor) order.
	g.SwapPorts(0, 0, 1)
	return g, nil
}

// Path returns the path P_n on n nodes.
func Path(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: path needs n >= 1, got %d", n)
	}
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Complete returns the complete graph K_n.
func Complete(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: complete graph needs n >= 1, got %d", n)
	}
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// CompleteBipartite returns K_{a,b} (girth 4 when a, b ≥ 2).
func CompleteBipartite(a, b int) (*Graph, error) {
	if a < 1 || b < 1 {
		return nil, fmt.Errorf("graph: complete bipartite needs positive parts")
	}
	bd := NewBuilder(a + b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			if err := bd.AddEdge(u, a+v); err != nil {
				return nil, err
			}
		}
	}
	return bd.Build(), nil
}

// RegularTree returns the Δ-regular tree of the given depth truncated at
// the leaves: the root has Δ children, internal nodes Δ−1 children, leaves
// none. (Leaves have degree 1, so the tree is Δ-regular only internally;
// it is the canonical high-girth neighborhood structure.)
func RegularTree(delta, depth int) (*Graph, error) {
	if delta < 1 || depth < 0 {
		return nil, fmt.Errorf("graph: regular tree needs Δ >= 1, depth >= 0")
	}
	type qe struct{ id, depth int }
	nodes := 1
	b := &Builder{seen: map[[2]int]bool{}}
	queue := []qe{{0, 0}}
	var pairs [][2]int
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		if cur.depth == depth {
			continue
		}
		children := delta - 1
		if cur.id == 0 {
			children = delta
		}
		for c := 0; c < children; c++ {
			child := nodes
			nodes++
			pairs = append(pairs, [2]int{cur.id, child})
			queue = append(queue, qe{child, cur.depth + 1})
		}
	}
	b.n = nodes
	for _, p := range pairs {
		if err := b.AddEdge(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// Torus returns the w×h grid torus (4-regular, girth 4 for w,h ≥ 5...
// girth min(4, w, h)). Requires w, h ≥ 3.
func Torus(w, h int) (*Graph, error) {
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("graph: torus needs w, h >= 3")
	}
	b := NewBuilder(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if err := b.AddEdge(id(x, y), id((x+1)%w, y)); err != nil {
				return nil, err
			}
			if err := b.AddEdge(id(x, y), id(x, (y+1)%h)); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// RandomRegular samples a Δ-regular simple graph on n nodes via the
// configuration model with rejection, using rng. Requires n·Δ even and
// n > Δ. It retries until a simple graph is produced.
func RandomRegular(n, delta int, rng *rand.Rand) (*Graph, error) {
	if n*delta%2 != 0 {
		return nil, fmt.Errorf("graph: random regular needs n*Δ even (n=%d, Δ=%d)", n, delta)
	}
	if n <= delta {
		return nil, fmt.Errorf("graph: random regular needs n > Δ (n=%d, Δ=%d)", n, delta)
	}
	const maxAttempts = 20000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if g, ok := tryConfigurationModel(n, delta, rng); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: random regular: no simple graph after %d attempts", maxAttempts)
}

// tryConfigurationModel pairs stubs like the configuration model but,
// instead of rejecting the whole pairing on a collision, greedily matches
// each stub with the first compatible remaining stub (no loop, no
// multi-edge) and only rejects when none exists. This departs slightly
// from the uniform distribution (acceptable for test workloads; the
// uniform rejection variant has success probability e^(-Θ(Δ²)) and is
// hopeless for dense Δ).
func tryConfigurationModel(n, delta int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*delta)
	for v := 0; v < n; v++ {
		for i := 0; i < delta; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	adjacent := make(map[[2]int]bool, n*delta/2)
	b := NewBuilder(n)
	for len(stubs) > 0 {
		u := stubs[len(stubs)-1]
		stubs = stubs[:len(stubs)-1]
		matched := -1
		for i := len(stubs) - 1; i >= 0; i-- {
			v := stubs[i]
			if v == u {
				continue
			}
			key := [2]int{min(u, v), max(u, v)}
			if adjacent[key] {
				continue
			}
			matched = i
			adjacent[key] = true
			if err := b.AddEdge(u, v); err != nil {
				return nil, false
			}
			break
		}
		if matched == -1 {
			return nil, false
		}
		stubs = append(stubs[:matched], stubs[matched+1:]...)
	}
	return b.Build(), true
}

// Petersen returns the Petersen graph (3-regular, girth 5, n = 10).
func Petersen() *Graph {
	b := NewBuilder(10)
	outer := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	spokes := [][2]int{{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}}
	inner := [][2]int{{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}}
	for _, group := range [][][2]int{outer, spokes, inner} {
		for _, e := range group {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				panic(err) // static construction; cannot fail
			}
		}
	}
	return b.Build()
}
