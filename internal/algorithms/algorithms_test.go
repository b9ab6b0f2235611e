package algorithms

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/problems"
	"repro/internal/sim"
)

func TestCVStepProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		a := rng.Uint64() % 1024
		b := rng.Uint64() % 1024
		if a == b {
			continue
		}
		c := rng.Uint64() % 1024
		if b == c {
			continue
		}
		na, nb := cvStep(a, b), cvStep(b, c)
		if na == nb {
			t.Fatalf("cvStep collision: step(%d,%d)=%d == step(%d,%d)", a, b, na, b, c)
		}
		if na >= 2*10 { // colors < 1024 = 2^10 bits → new color < 2*10
			t.Fatalf("cvStep(%d,%d) = %d out of range", a, b, na)
		}
	}
}

func TestCVIterations(t *testing.T) {
	if cvIterations(6) != 0 {
		t.Error("6 colors should need 0 iterations")
	}
	if cvIterations(7) == 0 {
		t.Error("7 colors should need iterations")
	}
	// log*-ish growth: doubling the exponent adds O(1).
	small := cvIterations(1 << 8)
	big := cvIterations(1 << 62)
	if big < small || big > small+3 {
		t.Errorf("iterations growth not log*-like: %d vs %d", small, big)
	}
}

func TestCVChainReducesToSix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const space = 1 << 16
	iters := cvIterations(space)
	// A strictly increasing random chain (like IDs along parent chains).
	for iter := 0; iter < 100; iter++ {
		chain := make([]uint64, iters+2)
		cur := uint64(rng.Intn(100))
		for i := range chain {
			chain[i] = cur
			cur += 1 + uint64(rng.Intn((space-int(cur))/(len(chain)+1)+1))
		}
		c := cvChainColor(chain, iters)
		if c >= 6 {
			t.Fatalf("chain color %d not reduced to < 6", c)
		}
	}
}

func TestSixToThreeProper(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		// Random proper {0..5} chain.
		chain := make([]uint64, 12)
		chain[0] = uint64(rng.Intn(6))
		for i := 1; i < len(chain); i++ {
			for {
				c := uint64(rng.Intn(6))
				if c != chain[i-1] {
					chain[i] = c
					break
				}
			}
		}
		// Final colors of adjacent positions must differ and be < 3.
		a := sixToThree(chain)
		b := sixToThree(chain[1:])
		if a >= 3 || b >= 3 {
			t.Fatalf("sixToThree out of range: %d, %d", a, b)
		}
		if a == b {
			t.Fatalf("sixToThree not proper: positions 0 and 1 both %d (chain %v)", a, chain)
		}
	}
}

func TestRingThreeColoring(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{3, 4, 7, 16, 33} {
		g, err := graph.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		g.ShufflePorts(rng)
		orient, err := RingOrientation(g)
		if err != nil {
			t.Fatal(err)
		}
		space := 4 * n
		ids, err := graph.UniqueIDs(g, space, rng)
		if err != nil {
			t.Fatal(err)
		}
		alg := RingThreeColoring{IDSpace: space}
		sol, err := sim.Run(g, sim.Inputs{IDs: ids, Orientation: &orient}, alg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := sim.Verify(g, sol, problems.KColoring(3, 2)); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestRingThreeColoringRoundsLogStar(t *testing.T) {
	// Rounds grow like log* of the ID space: enormous spaces still need
	// single-digit-ish rounds.
	r1 := RingThreeColoring{IDSpace: 1 << 10}.Rounds(0, 2)
	r2 := RingThreeColoring{IDSpace: 1 << 62}.Rounds(0, 2)
	if r2-r1 > 3 {
		t.Errorf("rounds grow too fast: %d → %d", r1, r2)
	}
	if r1 < 4 {
		t.Errorf("rounds suspiciously small: %d", r1)
	}
}

func TestRingOrientationRejectsNonRing(t *testing.T) {
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RingOrientation(g); err == nil {
		t.Error("non-ring accepted")
	}
}

func TestWeakTwoColoringOddRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		n, delta int
	}{
		{8, 3}, {14, 3}, {20, 3}, {12, 5}, {16, 5}, {16, 7},
	}
	for _, c := range cases {
		for trial := 0; trial < 3; trial++ {
			g, err := graph.RandomRegular(c.n, c.delta, rng)
			if err != nil {
				t.Fatal(err)
			}
			g.ShufflePorts(rng)
			space := 2 * c.n
			ids, err := graph.UniqueIDs(g, space, rng)
			if err != nil {
				t.Fatal(err)
			}
			alg := WeakTwoColoring{IDSpace: space}
			sol, err := sim.Run(g, sim.Inputs{IDs: ids}, alg)
			if err != nil {
				t.Fatalf("n=%d Δ=%d: %v", c.n, c.delta, err)
			}
			if err := sim.Verify(g, sol, problems.WeakTwoColoringPointer(c.delta)); err != nil {
				t.Errorf("n=%d Δ=%d trial %d: %v", c.n, c.delta, trial, err)
			}
		}
	}
}

func TestWeakTwoColoringRejectsEvenDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, err := graph.RandomRegular(10, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := graph.UniqueIDs(g, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	alg := WeakTwoColoring{IDSpace: 20}
	if _, err := sim.Run(g, sim.Inputs{IDs: ids}, alg); err == nil {
		t.Error("even-degree graph accepted")
	}
}

func TestSinklessOrientationBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, delta int }{{10, 3}, {20, 3}, {15, 4}, {12, 5}} {
		g, err := graph.RandomRegular(tc.n, tc.delta, rng)
		if err != nil {
			t.Fatal(err)
		}
		o, err := SinklessOrientationBaseline(g)
		if err != nil {
			t.Fatalf("n=%d Δ=%d: %v", tc.n, tc.delta, err)
		}
		if !o.IsSinkless(g) {
			t.Errorf("n=%d Δ=%d: orientation has a sink", tc.n, tc.delta)
		}
	}
}

func TestSinklessOrientationBaselineRejectsTree(t *testing.T) {
	g, err := graph.RegularTree(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SinklessOrientationBaseline(g); err == nil {
		t.Error("acyclic graph accepted")
	}
}

func TestSinklessBaselineOnRing(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	o, err := SinklessOrientationBaseline(g)
	if err != nil {
		t.Fatal(err)
	}
	if !o.IsSinkless(g) {
		t.Error("ring orientation has a sink")
	}
}
