package sim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/problems"
)

func ringWithInputs(t *testing.T, n int, seed int64) (*graph.Graph, Inputs) {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ids, err := graph.UniqueIDs(g, 4*n, rng)
	if err != nil {
		t.Fatal(err)
	}
	o := graph.RandomOrientation(g, rng)
	return g, Inputs{IDs: ids, Orientation: &o}
}

func TestBuildViewDepth(t *testing.T) {
	g, in := ringWithInputs(t, 8, 1)
	for d := 0; d <= 3; d++ {
		v := BuildView(g, in, 0, d)
		if v.Depth() != d {
			t.Errorf("depth %d view reports %d", d, v.Depth())
		}
	}
}

func TestViewBuilderMatchesBuildView(t *testing.T) {
	g, in := ringWithInputs(t, 10, 2)
	b := NewViewBuilder(g, in)
	for v := 0; v < g.N(); v++ {
		for d := 0; d <= 3; d++ {
			if b.View(v, d).Key() != BuildView(g, in, v, d).Key() {
				t.Fatalf("builder view differs at node %d depth %d", v, d)
			}
		}
	}
}

func TestViewKeysDistinguishIDs(t *testing.T) {
	g, in := ringWithInputs(t, 8, 3)
	k1 := BuildView(g, in, 0, 2).Key()
	k2 := BuildView(g, in, 1, 2).Key()
	if k1 == k2 {
		t.Error("distinct nodes with unique ids share a view key")
	}
}

func TestReturnPortHiddenAtHorizon(t *testing.T) {
	g, in := ringWithInputs(t, 6, 4)
	v := BuildView(g, in, 0, 0)
	for _, p := range v.Ports {
		if p.ReturnPort != -1 {
			t.Error("0-round view leaks the neighbor's return port")
		}
	}
	v1 := BuildView(g, in, 0, 1)
	for _, p := range v1.Ports {
		if p.ReturnPort == -1 {
			t.Error("1-round view misses the neighbor's return port")
		}
		for _, q := range p.Sub.Ports {
			if q.ReturnPort != -1 {
				t.Error("fringe of 1-round view leaks return ports")
			}
		}
	}
}

func TestRunAndVerify(t *testing.T) {
	g, in := ringWithInputs(t, 6, 5)
	// A constant algorithm: everyone outputs label 0 on both ports.
	alg := FuncAlgorithm{
		AlgName:  "constant",
		RoundsFn: func(n, delta int) int { return 0 },
		OutputsFn: func(view *View) ([]core.Label, error) {
			out := make([]core.Label, view.Degree)
			return out, nil
		},
	}
	p := core.MustParse("node:\nA A\nedge:\nA A")
	sol, err := Run(g, in, alg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, sol, p); err != nil {
		t.Errorf("constant solution rejected: %v", err)
	}
	// Against 2-coloring it must fail.
	if err := Verify(g, sol, problems.KColoring(2, 2)); err == nil {
		t.Error("constant output accepted as 2-coloring")
	}
}

func TestVerifyRejectsWrongDegree(t *testing.T) {
	g, err := graph.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	sol := &Solution{Labels: [][]core.Label{{0}, {0, 0}, {0}}}
	if err := Verify(g, sol, core.MustParse("node:\nA A\nedge:\nA A")); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestRunRejectsBadOutputLength(t *testing.T) {
	g, in := ringWithInputs(t, 5, 6)
	alg := FuncAlgorithm{
		AlgName:  "broken",
		RoundsFn: func(n, delta int) int { return 0 },
		OutputsFn: func(view *View) ([]core.Label, error) {
			return []core.Label{0}, nil // degree is 2
		},
	}
	if _, err := Run(g, in, alg); err == nil {
		t.Error("wrong output arity accepted")
	}
}
