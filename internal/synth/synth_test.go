package synth

import (
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/problems/gen"
)

func TestKnownOneRoundCases(t *testing.T) {
	// "Output the input orientation" is 0-round, hence 1-round, solvable.
	copyOrient := core.MustParse(`
node:
O O
O I
I I
edge:
O I
`)
	ok, err := OneRoundOrientedSolvable(copyOrient)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("orientation copy not 1-round solvable")
	}

	// 2-coloring on oriented high-girth 2-regular graphs is not 1-round
	// solvable (it needs Θ(n) rounds on cycles).
	twoCol := problems.KColoring(2, 2)
	ok, err = OneRoundOrientedSolvable(twoCol)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("2-coloring reported 1-round solvable")
	}
}

// TestTheorem1AtTEquals1 mechanizes Theorem 1 (+ Theorem 2) for t = 1 on
// the 1-independent class of Δ=2 orientation-labeled high-girth graphs:
// Π is 1-round solvable iff the derived Π'_1 is 0-round solvable. Random
// problems over small alphabets are checked in both directions.
func TestTheorem1AtTEquals1(t *testing.T) {
	for i := range 120 {
		p, err := gen.Random(11, i, gen.Params{Delta: 2, Labels: 2 + i%2, EdgePct: 50, NodePct: 50})
		if err != nil {
			t.Fatal(err)
		}
		derived, err := core.Speedup(p)
		if err != nil {
			t.Fatal(err)
		}
		oneRound, err := OneRoundOrientedSolvable(p)
		if err != nil {
			t.Fatal(err)
		}
		_, zeroRound := core.ZeroRoundSolvableWithOrientation(derived)
		if oneRound != zeroRound {
			t.Fatalf("point %d: Theorem 1 equivalence violated: 1-round(Π)=%v, 0-round(Π'_1)=%v\nΠ:\n%s\nΠ'_1:\n%s",
				i, oneRound, zeroRound, p.String(), derived.String())
		}
	}
}

func TestInfeasibleParametersRejected(t *testing.T) {
	if _, err := OneRoundOrientedSolvable(problems.KColoring(3, 4)); err == nil {
		t.Error("Δ=4 accepted")
	}
}
