package independence

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// ring returns C_n: the classes must be homogeneous (no boundary
// asymmetry) for independence to hold, exactly as in the paper's regular
// high-girth classes; a ring with girth ≥ 2t+2 is the smallest example.
func ring(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.RingUniform(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOrientationsAreIndependent reproduces the positive side of the
// Figure 1 discussion: edge orientations satisfy t-independence.
func TestOrientationsAreIndependent(t *testing.T) {
	if err := CheckTIndependence(OrientationClass(ring(t, 6)), 1); err != nil {
		t.Errorf("orientations on C6, t=1: %v", err)
	}
	if err := CheckTIndependence(OrientationClass(ring(t, 8)), 2); err != nil {
		t.Errorf("orientations on C8, t=2: %v", err)
	}
}

// TestEdgeColoringsAreIndependent: proper edge colorings also satisfy the
// property (the color of one extension never constrains another, beyond
// what the shared neighborhood already fixes).
func TestEdgeColoringsAreIndependent(t *testing.T) {
	class := EdgeColoringClass(ring(t, 6), 3)
	if len(class) == 0 {
		t.Fatal("empty coloring class")
	}
	if err := CheckTIndependence(class, 1); err != nil {
		t.Errorf("edge colorings: %v", err)
	}
}

// TestUniqueIDsAreNotIndependent reproduces the paper's negative example
// (Section 2.2): with globally unique identifiers, an ID appearing in the
// extension along one edge cannot appear in the extension along another,
// so the joint realizations fall short of the product.
func TestUniqueIDsAreNotIndependent(t *testing.T) {
	g := ring(t, 6)
	class := UniqueIDClass(g, 6)
	err := CheckTIndependence(class, 2)
	if err == nil {
		t.Fatal("unique IDs reported t-independent")
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type: %v", err)
	}
	t.Logf("expected violation: %v", v)
}

// TestViolationIsDeterministic: the reported violation is the first
// failing group in class order, not whichever a map iteration reaches
// first, so repeated checks of the same class name the same edge.
func TestViolationIsDeterministic(t *testing.T) {
	class := UniqueIDClass(ring(t, 6), 6)
	const want = "graph 0 edge (0,1): 2×2 endpoint extensions but only 2 joint realizations"
	for run := 0; run < 5; run++ {
		var v *Violation
		if err := CheckTIndependence(class, 2); !errors.As(err, &v) {
			t.Fatalf("run %d: want a *Violation, got %v", run, err)
		}
		if v.Property != 1 || v.Detail != want {
			t.Fatalf("run %d: property %d %q, want property 1 %q", run, v.Property, v.Detail, want)
		}
	}
}

// TestMixedInputsIndependent: orientations plus edge colorings together
// remain independent (combinations of independent-style inputs).
func TestMixedInputsIndependent(t *testing.T) {
	g := ring(t, 6)
	var class []Labeled
	for _, oc := range OrientationClass(g) {
		for _, cc := range EdgeColoringClass(g, 3) {
			in := sim.Inputs{Orientation: oc.In.Orientation, EdgeColors: cc.In.EdgeColors}
			class = append(class, Labeled{G: g, In: in})
		}
	}
	if err := CheckTIndependence(class, 1); err != nil {
		t.Errorf("mixed inputs: %v", err)
	}
}

func TestRejectsNonPositiveT(t *testing.T) {
	if err := CheckTIndependence(nil, 0); err == nil {
		t.Error("t=0 accepted")
	}
}
