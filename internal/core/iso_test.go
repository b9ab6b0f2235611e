package core

import (
	"math/rand"
	"testing"
)

func TestIsomorphicSimpleRename(t *testing.T) {
	p := MustParse("node:\nA A B\nedge:\nA B\nB B")
	q := MustParse("node:\nY Y X\nedge:\nY X\nX X")
	m, ok := Isomorphic(p, q)
	if !ok {
		t.Fatal("rename not detected")
	}
	// The witness must actually map constraints correctly.
	if err := CheckRelaxation(p, q, m); err != nil {
		t.Errorf("witness map invalid: %v", err)
	}
}

func TestIsomorphicRejectsDifferent(t *testing.T) {
	p := MustParse("node:\nA A\nedge:\nA A")
	q := MustParse("node:\nA A\nedge:\nA B\nnode:\nB B")
	if _, ok := Isomorphic(p, q); ok {
		t.Error("different problems reported isomorphic")
	}
}

func TestIsomorphicSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 50; iter++ {
		p := randomProblem(rng, 2+rng.Intn(4), 2+rng.Intn(2), 0.5)
		if _, ok := Isomorphic(p, p); !ok {
			t.Fatalf("iter %d: problem not isomorphic to itself:\n%s", iter, p.String())
		}
	}
}

// TestIsomorphicUnderRandomRelabeling applies a random permutation to a
// random problem and checks the search recovers an isomorphism, and that
// a structurally modified copy is rejected.
func TestIsomorphicUnderRandomRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 80; iter++ {
		p := randomProblem(rng, 2+rng.Intn(4), 2, 0.5)
		n := p.Alpha.Size()
		perm := rng.Perm(n)
		m := make(map[Label]Label, n)
		for i, img := range perm {
			m[Label(i)] = Label(img)
		}
		edge, err := p.Edge.Remap(m)
		if err != nil {
			t.Fatal(err)
		}
		node, err := p.Node.Remap(m)
		if err != nil {
			t.Fatal(err)
		}
		q := &Problem{Alpha: p.Alpha, Edge: edge, Node: node}
		if _, ok := Isomorphic(p, q); !ok {
			t.Fatalf("iter %d: relabeled problem not recognized\np:\n%s\nq:\n%s", iter, p.String(), q.String())
		}
	}
}

func TestEqualVsIsomorphic(t *testing.T) {
	p := MustParse("node:\nA B\nedge:\nA B")
	q := MustParse("node:\nB A\nedge:\nB A")
	// Same label names in different first-occurrence order: not Equal but
	// isomorphic.
	if p.Equal(q) {
		t.Error("problems with different label orders reported Equal")
	}
	if _, ok := Isomorphic(p, q); !ok {
		t.Error("label-reordered problem not isomorphic")
	}
}

// TestFingerprinterLookup: Lookup never interns — probing an unseen
// problem, even one sharing some profiles and signatures with a
// fingerprinted one, leaves every arena's length unchanged — and on a
// renamed copy of a fingerprinted problem it returns the handle
// Fingerprint issued.
func TestFingerprinterLookup(t *testing.T) {
	f := NewFingerprinter()
	lens := func() [3]int { return [3]int{f.profiles.Len(), f.sigs.Len(), f.fps.Len()} }
	p := MustParse("node:\nA A B\nA B B\nedge:\nA B\nB B")
	if _, ok := f.Lookup(p); ok {
		t.Fatal("Lookup hit on an empty fingerprinter")
	}
	if got := lens(); got != [3]int{} {
		t.Fatalf("Lookup on an empty fingerprinter interned %v", got)
	}

	want := f.Fingerprint(p)
	before := lens()
	for _, unseen := range []string{
		// a label signature p lacks, over p's profiles
		"node:\nA A B\nedge:\nA B\nB B",
		// a profile p lacks
		"node:\nA A A\nA B B\nedge:\nA B\nB B",
		// two disjoint copies of p: every signature known, the
		// fingerprint new
		"node:\nA A B\nA B B\nC C D\nC D D\nedge:\nA B\nB B\nC D\nD D",
	} {
		if _, ok := f.Lookup(MustParse(unseen)); ok {
			t.Fatalf("Lookup hit on unseen problem %q", unseen)
		}
		if got := lens(); got != before {
			t.Fatalf("Lookup of %q grew the arenas from %v to %v", unseen, before, got)
		}
	}

	renamed := MustParse("node:\nY Y X\nY X X\nedge:\nY X\nX X")
	got, ok := f.Lookup(renamed)
	if !ok || got != want {
		t.Fatalf("Lookup(renamed copy) = %v, %v; want %v, true", got, ok, want)
	}
	if lens() != before {
		t.Fatal("a Lookup hit grew the arenas")
	}
}
