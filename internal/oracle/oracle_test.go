package oracle_test

import (
	"encoding/json"
	"errors"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/problems"
	"repro/internal/sim"
)

func mustCycles(t *testing.T, n int) []oracle.Instance {
	t.Helper()
	insts, err := oracle.Cycles(n)
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func decide(t *testing.T, p *core.Problem, insts []oracle.Instance, rounds int, opts ...oracle.Option) *oracle.Verdict {
	t.Helper()
	v, err := oracle.Decide(p, insts, rounds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFamilyEnumerators: the exhaustive enumerators produce the
// expected counts and structurally valid port-numbered graphs.
func TestFamilyEnumerators(t *testing.T) {
	c4 := mustCycles(t, 4)
	if len(c4) != 16 { // 2 ports per node, 4 nodes: 2^4 numberings
		t.Fatalf("Cycles(4) has %d instances, want 16", len(c4))
	}
	names := map[string]bool{}
	for _, inst := range c4 {
		if names[inst.Name] {
			t.Fatalf("duplicate instance name %q", inst.Name)
		}
		names[inst.Name] = true
		for v := 0; v < inst.G.N(); v++ {
			if inst.G.Degree(v) != 2 {
				t.Fatalf("%s: node %d has degree %d", inst.Name, v, inst.G.Degree(v))
			}
			for port := 0; port < inst.G.Degree(v); port++ {
				w, id, wPort := inst.G.Neighbor(v, port)
				back, backID, backPort := inst.G.Neighbor(w, wPort)
				if back != v || backID != id || backPort != port {
					t.Fatalf("%s: port maps not symmetric at node %d port %d", inst.Name, v, port)
				}
			}
		}
	}
	if !oracle.PairingComplete(c4, 2) {
		t.Fatal("Cycles(4) should realize every port pairing")
	}

	tr, err := oracle.Trees(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 6 { // root of degree 3: 3! numberings, leaves fixed
		t.Fatalf("Trees(3,1) has %d instances, want 6", len(tr))
	}

	oc4, err := oracle.WithAllOrientations(c4)
	if err != nil {
		t.Fatal(err)
	}
	if len(oc4) != 16*16 { // 4 edges: 2^4 orientations per numbering
		t.Fatalf("oriented C4 family has %d instances, want 256", len(oc4))
	}

	if _, err := oracle.Trees(3, 4); err == nil {
		t.Fatal("deep tree enumeration should exceed the family cap")
	}
}

// TestDecideTrivialProblem: the always-satisfied problem is 0-round
// solvable on every family, with a single view class at t=0.
func TestDecideTrivialProblem(t *testing.T) {
	p := core.MustParse("node:\nA A\nedge:\nA A")
	v := decide(t, p, mustCycles(t, 4), 0)
	if !v.Solvable {
		t.Fatal("trivial problem reported unsolvable")
	}
	if v.Classes != 1 {
		t.Fatalf("t=0 on a regular family has %d classes, want 1", v.Classes)
	}
	if len(v.Witness) != 1 || len(v.Witness[0].Outputs) != 2 {
		t.Fatalf("unexpected witness shape %+v", v.Witness)
	}
}

// TestDecideTwoColoringUnsolvable: proper 2-coloring is unsolvable by
// any deterministic PN algorithm on the full cycle families — odd
// cycles are not 2-colorable at all, and symmetric port numberings kill
// even cycles.
func TestDecideTwoColoringUnsolvable(t *testing.T) {
	insts, err := oracle.CycleRange(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := problems.KColoring(2, 2)
	for rounds := 0; rounds <= 2; rounds++ {
		if v := decide(t, p, insts, rounds); v.Solvable {
			t.Fatalf("2-coloring reported solvable at t=%d", rounds)
		}
	}
}

// TestDecideInputValidation covers the error paths.
func TestDecideInputValidation(t *testing.T) {
	p := problems.KColoring(3, 2)
	c4 := mustCycles(t, 4)
	if _, err := oracle.Decide(p, c4, -1); err == nil {
		t.Error("negative rounds accepted")
	}
	if _, err := oracle.Decide(p, nil, 1); err == nil {
		t.Error("empty family accepted")
	}
	tr, err := oracle.Trees(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.Decide(problems.SinklessColoring(3), tr, 1); err == nil {
		t.Error("degree-1 leaves accepted without WithRelaxedDegrees")
	}
}

// TestDecideRelaxedDegreesOnTrees: with leaves exempt from the node
// constraint, sinkless coloring is 1-round solvable on the depth-1
// tree family (the root can see which ports lead to leaves).
func TestDecideRelaxedDegreesOnTrees(t *testing.T) {
	tr, err := oracle.Trees(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := decide(t, problems.SinklessColoring(3), tr, 1, oracle.WithRelaxedDegrees())
	if !v.Solvable {
		t.Fatal("sinkless coloring unsolvable on depth-1 trees with relaxed leaves")
	}
}

// TestDecideDeterministicAcrossWorkers: the full verdict — including
// the witness — is byte-identical for every worker count, on both a
// solvable and an unsolvable point.
func TestDecideDeterministicAcrossWorkers(t *testing.T) {
	reg, err := oracle.RegularBases(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fam := oracle.WithShuffledPorts(reg, 4, 1)
	oriented := oracle.WithRandomOrientations(fam, 2, 2)
	for _, tc := range []struct {
		name   string
		p      *core.Problem
		insts  []oracle.Instance
		rounds int
	}{
		{"weak2-solvable", problems.WeakTwoColoringPointer(3), oriented, 1},
		{"sinkless-unsolvable", problems.SinklessColoring(3), fam, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := json.Marshal(decide(t, tc.p, tc.insts, tc.rounds, oracle.WithWorkers(1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				got, err := json.Marshal(decide(t, tc.p, tc.insts, tc.rounds, oracle.WithWorkers(workers)))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(base) {
					t.Fatalf("workers=%d verdict diverged:\n%s\nvs\n%s", workers, got, base)
				}
			}
		})
	}
}

// TestDecideSearchBudget: a tiny step budget aborts the search with the
// sentinel error rather than returning a wrong verdict. The point is
// solvable with many view classes, so a completed search necessarily
// spends more than the granted steps.
func TestDecideSearchBudget(t *testing.T) {
	reg, err := oracle.RegularBases(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	oriented := oracle.WithRandomOrientations(oracle.WithShuffledPorts(reg, 4, 1), 2, 2)
	for _, workers := range []int{1, 4} {
		_, err := oracle.Decide(problems.WeakTwoColoringPointer(3), oriented, 1,
			oracle.WithMaxSteps(3), oracle.WithWorkers(workers))
		if !errors.Is(err, oracle.ErrSearchBudget) {
			t.Fatalf("workers=%d: got %v, want ErrSearchBudget", workers, err)
		}
	}
}

// TestDecideOneWorkerStepBoundary pins the one-worker search's step
// accounting on a small solvable point: the smallest WithMaxSteps that
// decides at one worker gives the verdict and witness of an unbudgeted
// run at four, and one step less fails with ErrSearchBudget.
func TestDecideOneWorkerStepBoundary(t *testing.T) {
	reg, err := oracle.RegularBases(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	oriented := oracle.WithRandomOrientations(oracle.WithShuffledPorts(reg, 4, 1), 2, 2)
	p := problems.WeakTwoColoringPointer(3)
	want, err := json.Marshal(decide(t, p, oriented, 1, oracle.WithWorkers(4)))
	if err != nil {
		t.Fatal(err)
	}
	decideAt := func(steps int) (*oracle.Verdict, error) {
		v, err := oracle.Decide(p, oriented, 1, oracle.WithMaxSteps(steps), oracle.WithWorkers(1))
		if err != nil && !errors.Is(err, oracle.ErrSearchBudget) {
			t.Fatalf("%d steps: %v", steps, err)
		}
		return v, err
	}
	// A step budget that suffices stays sufficient when raised, so the
	// smallest is found by doubling and bisection.
	hi := 1
	for _, err := decideAt(hi); err != nil; _, err = decideAt(hi) {
		hi *= 2
	}
	steps := sort.Search(hi, func(n int) bool { _, err := decideAt(n); return err == nil })
	v, err := decideAt(steps)
	if err != nil {
		t.Fatalf("%d steps: %v", steps, err)
	}
	if got, err := json.Marshal(v); err != nil || string(got) != string(want) {
		t.Fatalf("%d steps at one worker: verdict %s (%v), want %s", steps, got, err, want)
	}
	if _, err := decideAt(steps - 1); !errors.Is(err, oracle.ErrSearchBudget) {
		t.Fatalf("%d steps: got %v, want ErrSearchBudget", steps-1, err)
	}
	t.Logf("smallest budget: %d steps", steps)
}

// TestWitnessSolvesEveryInstance replays a solvable verdict's witness
// through sim.Verify on every instance of the family: the oracle's
// witness is a genuine algorithm, not just a satisfiable certificate.
func TestWitnessSolvesEveryInstance(t *testing.T) {
	c4 := mustCycles(t, 4)
	oc4, err := oracle.WithAllOrientations(c4)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustParse("node:\nA B\nedge:\nA B\nA A\nB B")
	const rounds = 1
	v := decide(t, p, oc4, rounds)
	if !v.Solvable {
		t.Fatal("expected solvable point")
	}
	byKey := map[string][]core.Label{}
	for _, w := range v.Witness {
		labels := make([]core.Label, len(w.Outputs))
		for i, name := range w.Outputs {
			l, ok := p.Alpha.Lookup(name)
			if !ok {
				t.Fatalf("witness uses unknown label %q", name)
			}
			labels[i] = l
		}
		byKey[w.ViewKey] = labels
	}
	for _, inst := range oc4 {
		b := sim.NewViewBuilder(inst.G, inst.In)
		sol := &sim.Solution{Labels: make([][]core.Label, inst.G.N())}
		for node := 0; node < inst.G.N(); node++ {
			labels, ok := byKey[b.View(node, rounds).Key()]
			if !ok {
				t.Fatalf("%s: node %d has a view class missing from the witness", inst.Name, node)
			}
			sol.Labels[node] = labels
		}
		if err := sim.Verify(inst.G, sol, p); err != nil {
			t.Fatalf("%s: witness fails verification: %v", inst.Name, err)
		}
	}
}

// TestPermutePortsRoundTrip exercises the graph helper the enumerators
// rely on: applying a permutation and its inverse restores the
// original adjacency.
func TestPermutePortsRoundTrip(t *testing.T) {
	g := oracle.Prism()
	type adjEntry struct{ to, id, toPort int }
	snapshot := func() [][]adjEntry {
		out := make([][]adjEntry, g.N())
		for v := 0; v < g.N(); v++ {
			for port := 0; port < g.Degree(v); port++ {
				to, id, toPort := g.Neighbor(v, port)
				out[v] = append(out[v], adjEntry{to, id, toPort})
			}
		}
		return out
	}
	orig := snapshot()
	perm := []int{2, 0, 1}
	inv := []int{1, 2, 0}
	for v := 0; v < g.N(); v++ {
		if err := g.PermutePorts(v, perm); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < g.N(); v++ {
		if err := g.PermutePorts(v, inv); err != nil {
			t.Fatal(err)
		}
	}
	after := snapshot()
	for v := range orig {
		for p := range orig[v] {
			if orig[v][p] != after[v][p] {
				t.Fatalf("node %d port %d changed: %+v -> %+v", v, p, orig[v][p], after[v][p])
			}
		}
	}
	if err := g.PermutePorts(0, []int{0, 0, 2}); err == nil {
		t.Fatal("non-permutation accepted")
	}
}
