package graph

import (
	"math/rand"
	"testing"
)

func TestRing(t *testing.T) {
	g, err := Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.M() != 8 {
		t.Fatalf("ring(8): n=%d m=%d", g.N(), g.M())
	}
	if !g.IsRegular() || g.MaxDegree() != 2 {
		t.Error("ring not 2-regular")
	}
	if girth := g.Girth(); girth != 8 {
		t.Errorf("ring girth = %d, want 8", girth)
	}
}

func TestRingTooSmall(t *testing.T) {
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2) should fail")
	}
}

func TestCompleteGraph(t *testing.T) {
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 10 || g.Girth() != 3 {
		t.Errorf("K5: m=%d girth=%d", g.M(), g.Girth())
	}
}

func TestCompleteBipartiteGirth(t *testing.T) {
	g, err := CompleteBipartite(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Girth() != 4 {
		t.Errorf("K33 girth = %d, want 4", g.Girth())
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("petersen: n=%d m=%d", g.N(), g.M())
	}
	if !g.IsRegular() || g.MaxDegree() != 3 {
		t.Error("petersen not 3-regular")
	}
	if g.Girth() != 5 {
		t.Errorf("petersen girth = %d, want 5", g.Girth())
	}
}

func TestRegularTree(t *testing.T) {
	g, err := RegularTree(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Root + 3 children + 3*2 grandchildren = 10 nodes.
	if g.N() != 10 {
		t.Errorf("tree nodes = %d, want 10", g.N())
	}
	if g.Girth() != -1 {
		t.Errorf("tree girth = %d, want -1 (acyclic)", g.Girth())
	}
	if g.Degree(0) != 3 {
		t.Errorf("root degree = %d, want 3", g.Degree(0))
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular() || g.MaxDegree() != 4 {
		t.Error("torus not 4-regular")
	}
	if g.Girth() != 4 {
		t.Errorf("torus girth = %d, want 4", g.Girth())
	}
}

func TestPortConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := RandomRegular(20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkPorts := func() {
		for v := 0; v < g.N(); v++ {
			for port := 0; port < g.Degree(v); port++ {
				w, id, wPort := g.Neighbor(v, port)
				w2, id2, vPort := g.Neighbor(w, wPort)
				if w2 != v || id2 != id || vPort != port {
					t.Fatalf("port cross-reference broken at (%d,%d)", v, port)
				}
				if g.PortOf(v, id) != port {
					t.Fatalf("PortOf inconsistent at (%d,%d)", v, port)
				}
			}
		}
	}
	checkPorts()
	g.ShufflePorts(rng)
	checkPorts()
}

func TestBuilderRejections(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Error(err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestOrientations(t *testing.T) {
	g, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	// Orient every edge toward its higher-numbered endpoint: node 0
	// points at both neighbors, node 5 is the one sink.
	o := Orientation{Toward: make([]int, g.M())}
	for id := 0; id < g.M(); id++ {
		u, v, _, _ := g.EdgeEndpoints(id)
		o.Toward[id] = max(u, v)
	}
	// Out-degrees sum to the number of edges.
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += o.OutDegree(g, v)
	}
	if sum != g.M() {
		t.Errorf("out-degree sum = %d, want %d", sum, g.M())
	}
	if o.OutDegree(g, 0) != 2 || o.OutDegree(g, g.N()-1) != 0 {
		t.Errorf("out-degrees of nodes 0 and %d = %d, %d, want 2, 0", g.N()-1, o.OutDegree(g, 0), o.OutDegree(g, g.N()-1))
	}
	if o.IsSinkless(g) {
		t.Error("orientation with a sink reported sinkless")
	}
}

func TestUniqueIDs(t *testing.T) {
	g, err := Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ids, err := UniqueIDs(g, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 1 || id > 100 || seen[id] {
			t.Fatalf("bad id %d", id)
		}
		seen[id] = true
	}
	if _, err := UniqueIDs(g, 5, rng); err == nil {
		t.Error("id space smaller than n accepted")
	}
}

func TestSinklessOrientationCheck(t *testing.T) {
	g, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	o := Orientation{Toward: make([]int, g.M())}
	// Orient the ring consistently: every node gets out-degree 1.
	for id := 0; id < g.M(); id++ {
		u, v, _, _ := g.EdgeEndpoints(id)
		if (u+1)%g.N() == v {
			o.Toward[id] = v
		} else {
			o.Toward[id] = u
		}
	}
	if !o.IsSinkless(g) {
		t.Error("cyclic orientation reported as having a sink")
	}
}
