package repro

// The paper's reproduction tables, one Example per experiment of
// EXPERIMENTS.md's index. Each prints its table and its `// Output:`
// block is that table, so `go test` checks every number in it;
// `go test -run Example -v .` runs the tables alone.

import (
	"fmt"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/colorred"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/independence"
	"repro/internal/mathx"
	"repro/internal/problems"
	"repro/internal/problems/gen"
	"repro/internal/sim"
	"repro/internal/superweak"
	"repro/internal/synth"
)

// must returns v and panics on a non-nil error, so a failed derivation
// fails its example with the error instead of a truncated table.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Example_e1 reproduces Section 4.4: Π'_1/2 of sinkless coloring is
// sinkless orientation and Π'_1 is sinkless coloring again (fixed
// point), and neither is 0-round solvable — the Ω(log n) chain.
func Example_e1() {
	fmt.Println("== E1: sinkless coloring/orientation fixed point (Section 4.4) ==")
	fmt.Println("Δ | Π'_1/2 = sinkless orientation | Π'_1 = Π (fixed point) | 0-round solvable")
	for delta := 3; delta <= 8; delta++ {
		p := problems.SinklessColoring(delta)
		half := must(core.HalfStep(p))
		_, isSO := core.Isomorphic(half, problems.SinklessOrientation(delta))
		full := must(core.SecondHalfStep(half))
		_, fixed := core.Isomorphic(full, p)
		_, zr := core.ZeroRoundSolvableWithOrientation(p)
		fmt.Printf("%d | %v | %v | %v\n", delta, isSO, fixed, zr)
	}
	// Output:
	// == E1: sinkless coloring/orientation fixed point (Section 4.4) ==
	// Δ | Π'_1/2 = sinkless orientation | Π'_1 = Π (fixed point) | 0-round solvable
	// 3 | true | true | false
	// 4 | true | true | false
	// 5 | true | true | false
	// 6 | true | true | false
	// 7 | true | true | false
	// 8 | true | true | false
}

// Example_e2 reproduces Section 4.5: the k → k' = 2^(C(k,k/2)/2)
// hardening and the resulting O(log* n) upper bound for 3-coloring rings.
func Example_e2() {
	fmt.Println("== E2: color reduction on rings (Section 4.5) ==")
	fmt.Println("k | Π'_1/2 matches paper | k' (verified) | k' (formula)")
	for _, k := range []int{2, 3, 4, 5} {
		derived := must(core.HalfStep(problems.KColoring(k, 2)))
		_, match := core.Isomorphic(derived, must(colorred.ExpectedHalf(k)))
		verified, formula := "-", "-"
		if k >= 4 && k%2 == 0 {
			verified = fmt.Sprintf("%d", must(colorred.VerifyHardening(k)))
			formula = must(colorred.KPrime(k)).String()
		}
		fmt.Printf("%d | %v | %s | %s\n", k, match, verified, formula)
	}
	fmt.Println("\nid space n | speedup steps to 4-coloring | log* n")
	for _, bits := range []int{8, 16, 64, 1 << 10, 1 << 16} {
		n := mathx.Pow2(bits)
		fmt.Printf("2^%d | %d | %d\n", bits, must(colorred.UpperBoundSteps(n)), mathx.LogStarBig(n))
	}
	// Output:
	// == E2: color reduction on rings (Section 4.5) ==
	// k | Π'_1/2 matches paper | k' (verified) | k' (formula)
	// 2 | true | - | -
	// 3 | true | - | -
	// 4 | true | 8 | 8
	// 5 | true | - | -
	//
	// id space n | speedup steps to 4-coloring | log* n
	// 2^8 | 2 | 4
	// 2^16 | 2 | 4
	// 2^64 | 3 | 5
	// 2^1024 | 3 | 5
	// 2^65536 | 3 | 5
}

// Example_e3 reproduces Section 4.6: 7 usable labels and 4 usable edge
// configurations in Π'_1/2, and exactly 9 node configurations in Π'_1
// at every Δ ≥ 3 in the table (8 at Δ=2).
func Example_e3() {
	fmt.Println("== E3: weak 2-coloring derivation (Section 4.6) ==")
	fmt.Println("Δ | Π'_1/2 labels (paper: 7) | Π'_1/2 edge configs (paper: 4 usable) | Π'_1 node configs (paper: 9)")
	for delta := 2; delta <= 5; delta++ {
		half := must(core.HalfStep(problems.WeakTwoColoringPointer(delta)))
		full := must(core.SecondHalfStep(half))
		fmt.Printf("%d | %d | %d | %d\n", delta, half.Alpha.Size(), half.Edge.Size(), full.Node.Size())
	}
	// Output:
	// == E3: weak 2-coloring derivation (Section 4.6) ==
	// Δ | Π'_1/2 labels (paper: 7) | Π'_1/2 edge configs (paper: 4 usable) | Π'_1 node configs (paper: 9)
	// 2 | 7 | 4 | 8
	// 3 | 7 | 4 | 9
	// 4 | 7 | 4 | 9
	// 5 | 7 | 4 | 9
}

// Example_e4 reproduces Section 5.1: the trit-sequence description of
// Π'_1/2 of superweak k-coloring and the Lemma 1 structure on the
// explicitly enumerable instance.
func Example_e4() {
	fmt.Println("== E4: superweak k-coloring derivation (Section 5.1) ==")
	fmt.Println("k Δ | Π'_1/2 ≅ trit description | labels (=3^k)")
	for _, tc := range []struct{ k, delta int }{{2, 3}, {2, 4}, {2, 5}} {
		derived := must(core.HalfStep(problems.Superweak(tc.k, tc.delta)))
		_, match := core.Isomorphic(derived, must(superweak.TritHalfProblem(tc.k, tc.delta)))
		fmt.Printf("%d %d | %v | %d\n", tc.k, tc.delta, match, derived.Alpha.Size())
	}

	half := must(superweak.TritHalfProblem(2, 3))
	full := must(core.SecondHalfStep(half))
	reports := must(superweak.CheckLemma1(half, full, 2))
	withOnes, unique := 0, 0
	for _, r := range reports {
		if r.ContainsAllOnes {
			withOnes++
		}
		if r.UniqueDominant {
			unique++
		}
	}
	fmt.Printf("\nΠ'_1 at k=2, Δ=3: %d node configs; %d contain a label with 11..1; %d have a unique dominant P∞\n",
		len(reports), withOnes, unique)
	fmt.Println("(Lemma 1's full dominance statement needs Δ ≥ 2^(4k)+1 = 257, beyond explicit enumeration;")
	fmt.Println(" the structure it predicts is already overwhelmingly present at Δ=3.)")
	// Output:
	// == E4: superweak k-coloring derivation (Section 5.1) ==
	// k Δ | Π'_1/2 ≅ trit description | labels (=3^k)
	// 2 3 | true | 9
	// 2 4 | true | 9
	// 2 5 | true | 9
	//
	// Π'_1 at k=2, Δ=3: 22 node configs; 21 contain a label with 11..1; 8 have a unique dominant P∞
	// (Lemma 1's full dominance statement needs Δ ≥ 2^(4k)+1 = 257, beyond explicit enumeration;
	//  the structure it predicts is already overwhelmingly present at Δ=3.)
}

// Example_e5 reproduces the quantitative side of Theorem 4: the number
// of supported speedup steps grows as Θ(log* Δ), ratio → 1/5.
func Example_e5() {
	fmt.Println("== E5: Theorem 4 step counting (Section 5.2) ==")
	fmt.Println("Δ = Tower(h): h | supported speedup steps | log* Δ")
	for _, r := range superweak.StepTable([]int{3, 7, 12, 17, 27, 52, 102}) {
		fmt.Printf("%d | %d | %d\n", r.TowerHeight, r.Steps, r.LogStar)
	}
	fmt.Println("\nparameter sequence: k_0 = 2, k_{i+1} = F^5(k_i); k_1 = 2^(2^(2^16)) already exceeds")
	fmt.Println("every materializable integer — the tower growth behind the log* bound.")
	// Output:
	// == E5: Theorem 4 step counting (Section 5.2) ==
	// Δ = Tower(h): h | supported speedup steps | log* Δ
	// 3 | 0 | 3
	// 7 | 1 | 7
	// 12 | 2 | 12
	// 17 | 3 | 17
	// 27 | 5 | 27
	// 52 | 10 | 52
	// 102 | 20 | 102
	//
	// parameter sequence: k_0 = 2, k_{i+1} = F^5(k_i); k_1 = 2^(2^(2^16)) already exceeds
	// every materializable integer — the tower growth behind the log* bound.
}

// Example_f1 reproduces the Figure 1 discussion: which symmetry breaking
// inputs satisfy t-independence.
func Example_f1() {
	fmt.Println("== F1: t-independence of input families (Section 3, Figure 1) ==")
	g := must(graph.RingUniform(6))
	g8 := must(graph.RingUniform(8))
	cases := []struct {
		name  string
		class []independence.Labeled
		t     int
	}{
		{"edge orientations (C6, t=1)", independence.OrientationClass(g), 1},
		{"edge orientations (C8, t=2)", independence.OrientationClass(g8), 2},
		{"proper 3-edge-colorings (C6, t=1)", independence.EdgeColoringClass(g, 3), 1},
		{"unique IDs (C6, t=2)", independence.UniqueIDClass(g, 6), 2},
	}
	fmt.Println("input family | t-independent")
	for _, c := range cases {
		verdict := "yes"
		if err := independence.CheckTIndependence(c.class, c.t); err != nil {
			verdict = fmt.Sprintf("NO (%v)", err)
		}
		fmt.Printf("%s | %s\n", c.name, verdict)
	}
	// Output:
	// == F1: t-independence of input families (Section 3, Figure 1) ==
	// input family | t-independent
	// edge orientations (C6, t=1) | yes
	// edge orientations (C8, t=2) | yes
	// proper 3-edge-colorings (C6, t=1) | yes
	// unique IDs (C6, t=2) | NO (independence: property 1 violated: graph 0 edge (0,1): 2×2 endpoint extensions but only 2 joint realizations)
}

// Example_f2 reproduces Figure 2: a locally correct superweak coloring
// on a Δ=3 graph, checked by the verifier. The Petersen spokes connect
// the outer ring (nodes 0–4) to the inner one (5–9): coloring by ring
// and pointing along the spoke gives every node a demanding pointer
// that meets the other color.
func Example_f2() {
	fmt.Println("== F2: a valid superweak coloring on a Δ=3 graph (Figure 2) ==")
	g := graph.Petersen()
	out := &superweak.Output{
		Color:    make([]string, g.N()),
		Pointers: make([][]superweak.PointerKind, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		if v < 5 {
			out.Color[v] = "outer"
		} else {
			out.Color[v] = "inner"
		}
		out.Pointers[v] = make([]superweak.PointerKind, g.Degree(v))
		for port := 0; port < g.Degree(v); port++ {
			w, _, _ := g.Neighbor(v, port)
			if (v < 5) != (w < 5) {
				out.Pointers[v][port] = superweak.PointerDemanding
				break
			}
		}
	}
	if err := superweak.VerifyOutput(g, out, 2); err != nil {
		panic(err)
	}
	fmt.Println("constructed coloring on the Petersen graph: valid (2 colors, 1 demanding pointer per node, 0 accepting)")
	// Output:
	// == F2: a valid superweak coloring on a Δ=3 graph (Figure 2) ==
	// constructed coloring on the Petersen graph: valid (2 colors, 1 demanding pointer per node, 0 accepting)
}

// Example_u1 measures the simulated algorithms: Cole–Vishkin ring
// 3-coloring and odd-degree weak 2-coloring round counts, each output
// verified against the problem it solves.
func Example_u1() {
	fmt.Println("== U1: simulated upper bounds ==")
	rng := rand.New(rand.NewSource(1))
	fmt.Println("ring n (ids from 4n) | CV rounds | verified 3-coloring")
	for _, n := range []int{8, 32, 128, 512} {
		g := must(graph.Ring(n))
		orient := must(algorithms.RingOrientation(g))
		ids := must(graph.UniqueIDs(g, 4*n, rng))
		alg := algorithms.RingThreeColoring{IDSpace: 4 * n}
		sol := must(sim.Run(g, sim.Inputs{IDs: ids, Orientation: &orient}, alg))
		verr := sim.Verify(g, sol, problems.KColoring(3, 2))
		fmt.Printf("%d | %d | %v\n", n, alg.Rounds(n, 2), verr == nil)
	}
	fmt.Println("\nweak 2-coloring: n Δ | rounds | verified")
	for _, tc := range []struct{ n, delta int }{{20, 3}, {40, 3}, {16, 5}, {16, 7}} {
		g := must(graph.RandomRegular(tc.n, tc.delta, rng))
		ids := must(graph.UniqueIDs(g, 2*tc.n, rng))
		alg := algorithms.WeakTwoColoring{IDSpace: 2 * tc.n}
		sol := must(sim.Run(g, sim.Inputs{IDs: ids}, alg))
		verr := sim.Verify(g, sol, problems.WeakTwoColoringPointer(tc.delta))
		fmt.Printf("%d %d | %d | %v\n", tc.n, tc.delta, alg.Rounds(tc.n, tc.delta), verr == nil)
	}
	// Output:
	// == U1: simulated upper bounds ==
	// ring n (ids from 4n) | CV rounds | verified 3-coloring
	// 8 | 7 | true
	// 32 | 7 | true
	// 128 | 8 | true
	// 512 | 8 | true
	//
	// weak 2-coloring: n Δ | rounds | verified
	// 20 3 | 15 | true
	// 40 3 | 15 | true
	// 16 5 | 15 | true
	// 16 7 | 15 | true
}

// Example_u2 checks Theorem 1 at t=1 on random problems: Π is 1-round
// solvable iff Π'_1 is 0-round solvable (Δ=2, orientation input).
func Example_u2() {
	fmt.Println("== U2: Theorem 1 mechanized at t = 1 (Δ=2, orientation input) ==")
	const total = 150
	agree := 0
	for i := range total {
		p := must(gen.Random(7, i, gen.Params{Delta: 2, Labels: 2 + i%2, EdgePct: 50, NodePct: 50}))
		derived := must(core.Speedup(p))
		oneRound := must(synth.OneRoundOrientedSolvable(p))
		_, zeroRound := core.ZeroRoundSolvableWithOrientation(derived)
		if oneRound == zeroRound {
			agree++
		} else {
			fmt.Printf("DISAGREEMENT on:\n%s\n", p.String())
		}
	}
	fmt.Printf("random problems checked: %d; equivalence holds: %d/%d\n", total, agree, total)
	// Output:
	// == U2: Theorem 1 mechanized at t = 1 (Δ=2, orientation input) ==
	// random problems checked: 150; equivalence holds: 150/150
}
