// Example: the Section 5 pipeline — solve the derived problem Π'_1 of
// superweak 2-coloring on a concrete graph, transform the solution via
// Lemma 3 (Hall violators → demanding/accepting pointers) into a
// superweak coloring, and verify it.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/superweak"
)

func main() {
	// The trit-sequence form of Π'_1/2 of superweak 2-coloring (Section
	// 5.1's "equivalent description"), then the engine's Π'_1.
	half, err := superweak.TritHalfProblem(2, 3)
	if err != nil {
		log.Fatal(err)
	}
	full, err := core.SecondHalfStep(half)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Π'_1/2 (trit form): %d labels; Π'_1: %d labels, %d node configs\n",
		half.Alpha.Size(), full.Alpha.Size(), full.Node.Size())

	// Solve Π'_1 on the 3-cube with the centralized reference solver.
	b := graph.NewBuilder(8)
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	g := b.Build()

	// Restrict to configurations whose Lemma 2 set J* exists under every
	// orientation: the paper guarantees J* unconditionally only from
	// Lemma 1's bound Δ ≥ 2^(4k)+1 (257 for k=2) on. A restriction is a
	// harder problem, so its solutions solve Π'_1.
	restricted := jStarFriendly(half, full)
	sol, ok, err := solve.Solve(g, restricted, solve.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatal("restricted Π'_1 unsatisfiable on the cube")
	}
	if err := sim.Verify(g, sol, full); err != nil {
		log.Fatal(err)
	}
	fmt.Println("solved Π'_1 on the 3-cube ✓")

	// Lemma 3: transform into a superweak coloring and verify.
	rng := rand.New(rand.NewSource(3))
	orient := graph.RandomOrientation(g, rng)
	out, err := superweak.Transform(g, orient, sol, half, full, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := superweak.VerifyOutput(g, out, g.MaxDegree()); err != nil {
		log.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, c := range out.Color {
		distinct[c] = true
	}
	fmt.Printf("Lemma 3 transformation: valid superweak coloring with %d distinct colors ✓\n", len(distinct))
}

// jStarFriendly keeps the node configurations admitting a J* under every
// orientation pattern.
func jStarFriendly(half, full *core.Problem) *core.Problem {
	allOnes := map[core.Label]bool{}
	target, _ := half.Alpha.Lookup(superweak.AllOnes(2).String())
	for l := 0; l < full.Alpha.Size(); l++ {
		if prov, ok := full.Alpha.Provenance(core.Label(l)); ok && prov.Contains(int(target)) {
			allOnes[core.Label(l)] = true
		}
	}
	has11 := func(l core.Label) bool { return allOnes[l] }
	rel := map[[2]core.Label]bool{}
	for _, cfg := range full.Edge.Configs() {
		ls := cfg.Expand()
		rel[[2]core.Label{ls[0], ls[1]}] = true
		rel[[2]core.Label{ls[1], ls[0]}] = true
	}
	relFn := func(a, b core.Label) bool { return rel[[2]core.Label{a, b}] }

	delta := full.Delta()
	node := core.NewConstraint(delta)
	for _, cfg := range full.Node.Configs() {
		pinf, ok := superweak.PInfOf(cfg, has11)
		if !ok {
			continue
		}
		q := cfg.Expand()
		friendly := true
		for mask := 0; mask < 1<<uint(delta) && friendly; mask++ {
			outSide := make([]bool, delta)
			for i := range outSide {
				outSide[i] = mask&(1<<uint(i)) != 0
			}
			if _, ok := superweak.JStar(q, outSide, pinf, has11, relFn); !ok {
				friendly = false
			}
		}
		if friendly {
			node.MustAdd(cfg)
		}
	}
	p, err := core.NewProblem(full.Alpha, full.Edge.Clone(), node)
	if err != nil {
		log.Fatal(err)
	}
	return p
}
