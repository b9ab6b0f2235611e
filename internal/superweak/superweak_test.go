package superweak

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/solve"
)

// TestTritHalfMatchesEngine verifies the Section 5.1 "equivalent
// description": the engine's Π'_{1/2} of superweak k-coloring is
// isomorphic to the explicit trit-sequence problem (Experiment E4).
func TestTritHalfMatchesEngine(t *testing.T) {
	for _, tc := range []struct{ k, delta int }{{2, 3}, {2, 4}, {2, 5}} {
		p := problems.Superweak(tc.k, tc.delta)
		derived, err := core.HalfStep(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := TritHalfProblem(tc.k, tc.delta)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := core.Isomorphic(derived, want); !ok {
			t.Errorf("k=%d Δ=%d: engine Π'_1/2 %+v does not match trit description %+v",
				tc.k, tc.delta, derived.Stats(), want.Stats())
		}
	}
}

// TestProvenanceToTritBijection checks the explicit 3-way correspondence
// used in the paper's equivalence proof, on the engine's derived labels.
func TestProvenanceToTritBijection(t *testing.T) {
	k, delta := 2, 3
	p := problems.Superweak(k, delta)
	derived, err := core.HalfStep(p)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for l := 0; l < derived.Alpha.Size(); l++ {
		prov, ok := derived.Alpha.Provenance(core.Label(l))
		if !ok {
			t.Fatalf("label %d has no provenance", l)
		}
		seq, ok := ProvenanceToTrit(k, prov)
		if !ok {
			t.Fatalf("label %d provenance %v not of canonical trit form", l, prov)
		}
		if seen[seq.String()] {
			t.Fatalf("trit sequence %s duplicated", seq)
		}
		seen[seq.String()] = true
	}
	if len(seen) != 9 {
		t.Errorf("got %d trit sequences for k=2, want 3^2 = 9", len(seen))
	}
}

func TestTritSeqHelpers(t *testing.T) {
	seqs := AllTritSeqs(2)
	if len(seqs) != 9 {
		t.Fatalf("AllTritSeqs(2) = %d", len(seqs))
	}
	for i, s := range seqs {
		if s.Index() != i {
			t.Errorf("Index(%s) = %d, want %d", s, s.Index(), i)
		}
	}
	if !(TritSeq{0, 2}).SumsToTwo(TritSeq{2, 0}) {
		t.Error("02 + 20 should sum to 22")
	}
	if (TritSeq{1, 2}).SumsToTwo(TritSeq{2, 0}) {
		t.Error("12 + 20 should not sum to 22")
	}
	if AllOnes(3).String() != "111" {
		t.Error("AllOnes wrong")
	}
}

func TestNodeOK(t *testing.T) {
	k := 2
	// Paper example shape: multiset {02, 11^(Δ-3), 12, 21} has index j=2
	// with one 2 (from 12)... construct explicit cases instead.
	seqs := []TritSeq{{0, 2}, {1, 1}, {1, 2}, {2, 1}}
	// Position 1 (0-based): values 2,1,2,1 → twos=2 (counts 1,0,1,0 ·
	// counts below), zeros=0 → OK.
	if !NodeOK(k, seqs, []int{1, 2, 1, 1}) {
		t.Error("paper-style multiset rejected")
	}
	// All 11: no position has a 2.
	if NodeOK(k, []TritSeq{{1, 1}}, []int{5}) {
		t.Error("all-ones multiset accepted")
	}
	// Zeros exceeding k at the only viable position.
	bad := []TritSeq{{2, 1}, {0, 1}}
	if NodeOK(k, bad, []int{3, 3}) {
		t.Error("k-bound on zeros not enforced")
	}
	if !NodeOK(k, bad, []int{3, 2}) {
		t.Error("within k-bound rejected")
	}
}

// deriveFull computes Π'_1 from the trit half problem for k=2, Δ=3 (the
// largest explicitly enumerable instance) once for the Lemma tests.
func deriveFull(t *testing.T) (half, full *core.Problem) {
	t.Helper()
	half, err := TritHalfProblem(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err = core.SecondHalfStep(half)
	if err != nil {
		t.Fatal(err)
	}
	return half, full
}

// TestDeriveFullPinned pins the bytes and sizes of the Π'_1 that the
// Lemma tests, the paper-table examples and the Section 5 example derive,
// so a change to the maximal-set enumeration cannot silently alter it.
func TestDeriveFullPinned(t *testing.T) {
	_, full := deriveFull(t)
	const want = "4b2b2cad33b474482c6a278bdce95172a03454d9d55fb100e51dfe97c3a2ca9d"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(full.String()))); got != want {
		t.Errorf("sha256 of Π'_1 = %s, want %s", got, want)
	}
	if a, n, e := full.Alpha.Size(), full.Node.Size(), full.Edge.Size(); a != 19 || n != 22 || e != 118 {
		t.Errorf("Π'_1 has %d labels, %d node and %d edge configurations; want 19, 22, 118", a, n, e)
	}
}

// TestLemma1Structure checks the dominant-element structure on the
// explicitly enumerable instance. Lemma 1 is stated for Δ ≥ 2^(4k)+1; at
// Δ=3 the paper's "or fewer if Δ is very small" caveat applies, so the
// test asserts the parts that must hold unconditionally for the
// transformation to work: every configuration used by the Lemma 3
// pipeline has at least one label containing 11...1.
func TestLemma1Structure(t *testing.T) {
	half, full := deriveFull(t)
	reports, err := CheckLemma1(half, full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no node configurations in Π'_1")
	}
	withAllOnes := 0
	for _, r := range reports {
		if r.ContainsAllOnes {
			withAllOnes++
			if r.Dominant < 0 {
				t.Error("report claims 11..1 present but no dominant label")
			}
		}
	}
	if withAllOnes == 0 {
		t.Error("no configuration contains a label with 11...1; Lemma 1 structure absent")
	}
	t.Logf("Δ=3, k=2: %d/%d configs contain a label with 11..1", withAllOnes, len(reports))
}

// TestLemma2JStar checks, for every Π'_1 node configuration containing a
// P∞ label and every orientation pattern α, that the Lemma 2 machinery
// either finds a valid J* (|J*| > |N(J*)|, sides α-homogeneous and
// opposite) or reports failure — and that when it succeeds the returned
// sets satisfy the lemma's properties exactly.
func TestLemma2JStar(t *testing.T) {
	half, full := deriveFull(t)
	allOnesArr := labelContainsSeq(half, full, AllOnes(2).String())
	allOnes := func(l core.Label) bool { return allOnesArr[l] }
	rel := edgeRelationOf(full)

	delta := full.Delta()
	successes := 0
	for _, cfg := range full.Node.Configs() {
		pinf, ok := PInfOf(cfg, allOnes)
		if !ok {
			continue
		}
		q := cfg.Expand()
		for mask := 0; mask < 1<<uint(delta); mask++ {
			out := make([]bool, delta)
			for i := range out {
				out[i] = mask&(1<<uint(i)) != 0
			}
			res, ok := JStar(q, out, pinf, allOnes, rel)
			if !ok {
				continue
			}
			successes++
			if len(res.JStar) <= len(res.NJStar) {
				t.Fatalf("|J*|=%d not greater than |N(J*)|=%d", len(res.JStar), len(res.NJStar))
			}
			// J* and N(J*) must be α-homogeneous and on opposite sides.
			for _, j := range res.JStar {
				for _, i := range res.NJStar {
					if out[j] == out[i] {
						t.Fatalf("J* and N(J*) share orientation side")
					}
				}
			}
			// N(J*) must cover all ports edge-compatible with J* on the
			// opposite side.
			inJ := map[int]bool{}
			for _, j := range res.JStar {
				inJ[j] = true
			}
			inN := map[int]bool{}
			for _, i := range res.NJStar {
				inN[i] = true
			}
			for _, j := range res.JStar {
				for i := 0; i < delta; i++ {
					if out[i] != out[j] && rel(q[i], q[j]) && !inN[i] {
						t.Fatalf("port %d compatible with J* member %d but missing from N(J*)", i, j)
					}
				}
			}
		}
	}
	if successes == 0 {
		t.Error("Lemma 2 machinery never produced a J*")
	}
	t.Logf("Lemma 2 produced J* in %d (config, α) cases", successes)
}

// TestLemma3Pipeline runs the full Section 5 transformation end to end:
// solve Π'_1 on a high-girth 3-regular graph, transform the solution via
// Lemma 3 into a superweak coloring, and verify it.
//
// Lemma 2's guarantee (a J* exists for every configuration) holds for
// Δ ≥ 2^(4k)+1, far beyond explicit enumeration; at Δ = 3 only some
// configurations admit a J* for every orientation. The test therefore
// restricts the node constraint to those configurations — a restriction
// is a *harder* problem (Section 4.5), so any solution of it is a genuine
// Π'_1 solution — and runs the pipeline on that.
func TestLemma3Pipeline(t *testing.T) {
	half, full := deriveFull(t)
	restricted := restrictToJStarFriendly(t, half, full, 2)
	if restricted.Node.Size() == 0 {
		t.Fatal("no J*-friendly configurations at Δ=3")
	}
	g := cubeGraph(t)
	sol, ok, err := solve.Solve(g, restricted, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("restricted Π'_1 unsatisfiable on the 3-cube")
	}
	if err := sim.Verify(g, sol, full); err != nil {
		t.Fatalf("solver output does not solve Π'_1: %v", err)
	}
	rng := rand.New(rand.NewSource(13))
	orient := graph.RandomOrientation(g, rng)
	out, err := Transform(g, orient, sol, half, full, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 3's accepting-pointer bound is k' (astronomical); what must
	// hold structurally is the bound by Δ and the pointer inequality —
	// VerifyOutput checks those with the degree as the generous bound.
	if err := VerifyOutput(g, out, g.MaxDegree()); err != nil {
		t.Errorf("transformed output invalid: %v", err)
	}
}

// cubeGraph returns the 3-dimensional hypercube (3-regular, girth 4).
func cubeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(8)
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// restrictToJStarFriendly keeps only node configurations that admit a J*
// under every orientation pattern, returning the (harder) restricted
// problem with the same alphabet and edge constraint.
func restrictToJStarFriendly(t *testing.T, half, full *core.Problem, k int) *core.Problem {
	t.Helper()
	allOnesArr := labelContainsSeq(half, full, AllOnes(k).String())
	allOnes := func(l core.Label) bool { return allOnesArr[l] }
	rel := edgeRelationOf(full)
	delta := full.Delta()

	node := core.NewConstraint(delta)
	for _, cfg := range full.Node.Configs() {
		pinf, ok := PInfOf(cfg, allOnes)
		if !ok {
			continue
		}
		q := cfg.Expand()
		friendly := true
		for mask := 0; mask < 1<<uint(delta) && friendly; mask++ {
			out := make([]bool, delta)
			for i := range out {
				out[i] = mask&(1<<uint(i)) != 0
			}
			if _, ok := JStar(q, out, pinf, allOnes, rel); !ok {
				friendly = false
			}
		}
		if friendly {
			node.MustAdd(cfg)
		}
	}
	p, err := core.NewProblem(full.Alpha, full.Edge.Clone(), node)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStepTableShape(t *testing.T) {
	rows := StepTable([]int{3, 7, 12, 22, 52, 102})
	prev := -1
	for _, r := range rows {
		if r.Steps < prev {
			t.Errorf("steps not monotone at height %d", r.TowerHeight)
		}
		prev = r.Steps
		if r.Steps > r.LogStar {
			t.Errorf("height %d: steps %d exceed log* %d", r.TowerHeight, r.Steps, r.LogStar)
		}
	}
	// The ratio converges to 1/5: the Θ(log* Δ) shape of Theorem 4.
	last := rows[len(rows)-1]
	if last.Steps == 0 || last.LogStar/last.Steps > 6 {
		t.Errorf("steps=%d vs log*=%d: not within the expected constant band", last.Steps, last.LogStar)
	}
}

func TestKSequenceGrowth(t *testing.T) {
	seq := KSequence(3)
	if len(seq) == 0 || seq[0].Int64() != 2 {
		t.Fatal("k_0 != 2")
	}
	// k_1 = F⁵(2) = 2^(2^(2^16)) is not materializable (the guard stops
	// at 2^65536's exponentiation), so exactly one term is returned —
	// which is itself the demonstration of the tower growth.
	if len(seq) != 1 {
		t.Errorf("sequence has %d materializable terms, want 1", len(seq))
	}
}
