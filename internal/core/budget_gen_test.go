package core_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
	"repro/internal/problems/gen"
)

// TestHalfStepBudgetBoundary pins HalfStep's state budget at one worker
// and at four, on the catalog and the first points of
// family=rand,seed=1,delta=3,labels=3: the smallest WithMaxStates at
// which the step succeeds is the same, both runs at it are
// byte-identical, and one state less fails with ErrStateBudget at both.
// Every lifted configuration is charged exactly once, whatever the
// schedule.
func TestHalfStepBudgetBoundary(t *testing.T) {
	spec, err := gen.ParseSpec("family=rand,seed=1,count=20,delta=3,labels=3")
	if err != nil {
		t.Fatal(err)
	}
	generated, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	var inputs []problems.GridPoint
	inputs = append(inputs, problems.CatalogGrid()...)
	inputs = append(inputs, generated...)
	for _, in := range inputs {
		var want string
		budget := -1
		for _, workers := range []int{1, 4} {
			halfStep := func(b int) (*core.Problem, error) {
				got, err := core.HalfStep(in.Problem, core.WithMaxStates(b), core.WithWorkers(workers))
				if err != nil && !errors.Is(err, core.ErrStateBudget) {
					t.Fatalf("%s, budget %d, workers %d: %v", in.Name, b, workers, err)
				}
				return got, err
			}
			// A budget that suffices stays sufficient when raised, so
			// the smallest is found by doubling and bisection.
			hi := 1
			for _, err := halfStep(hi); err != nil; _, err = halfStep(hi) {
				hi *= 2
			}
			b := sort.Search(hi, func(b int) bool { _, err := halfStep(b); return err == nil })
			got, err := halfStep(b)
			switch {
			case err != nil:
				t.Fatalf("%s, workers %d: budget %d: %v", in.Name, workers, b, err)
			case budget < 0:
				budget, want = b, got.String()
			case b != budget:
				t.Fatalf("%s: smallest budget %d at workers %d, %d at workers 1", in.Name, b, workers, budget)
			case got.String() != want:
				t.Fatalf("%s, budget %d: workers %d differs from workers 1", in.Name, b, workers)
			}
			if b == 0 {
				continue // nothing lifts, nothing is charged
			}
			if _, err := halfStep(b - 1); !errors.Is(err, core.ErrStateBudget) {
				t.Fatalf("%s, workers %d: budget %d: want ErrStateBudget, got %v", in.Name, workers, b-1, err)
			}
		}
	}
}

// TestGenSecondHalfStepBudgetBoundary pins the state-budget rule on the
// Π'_{1/2} inputs of served traffic: the distinct step inputs of the
// first trajectories of family=rand,seed=1,delta=3,labels=3 at 4 steps
// and 2,000 states, lifted by HalfStep. For each one with at most 3,000
// valid set-configurations, counted by the definition-level
// GrownValidNodeSetConfigCount, the step must fail at budget count−1
// (unless the roots alone fill it) and succeed at count, at workers 1
// and 4 with the same output: every valid state is charged exactly
// once. Those inputs are small (the first 100 have at most 6 labels),
// and up to 8 labels content order is label order, so each is also
// checked with its labels spread over two bytes of the set encoding
// (see spread).
func TestGenSecondHalfStepBudgetBoundary(t *testing.T) {
	const maxValid = 3000
	points, want := 200, 100
	if testing.Short() {
		points, want = 40, 20
	}
	spec, err := gen.ParseSpec(fmt.Sprintf("family=rand,seed=1,count=%d,delta=3,labels=3", points))
	if err != nil {
		t.Fatal(err)
	}
	opts := []core.Option{core.WithMaxStates(2000), core.WithWorkers(1)}
	seen := map[string]bool{}
	checked, widest := 0, 0
	for i := 0; i < points && checked < want; i++ {
		p, err := spec.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4 && checked < want; step++ {
			half, err := core.HalfStep(p, opts...)
			if err != nil {
				break
			}
			if text := half.String(); !seen[text] {
				seen[text] = true
				if count, ok := core.GrownValidNodeSetConfigCount(half, maxValid); ok {
					checkBudgetBoundary(t, half, count)
					checkBudgetBoundary(t, spread(t, half), count)
					checked++
					widest = max(widest, half.Alpha.Size())
				}
			}
			next, err := core.SecondHalfStep(half, opts...)
			if err != nil {
				break
			}
			p, _ = next.RenameCompact()
		}
	}
	if checked < want {
		t.Fatalf("checked %d inputs, want %d", checked, want)
	}
	t.Logf("checked %d inputs, up to %d labels", checked, widest)
}

// checkBudgetBoundary asserts the budget rule of SecondHalfStep on half
// at budgets count−1 and count, at workers 1 and 4.
func checkBudgetBoundary(t *testing.T, half *core.Problem, count int) {
	t.Helper()
	var out string
	for _, b := range []int{count - 1, count} {
		fail := count > max(b, half.Node.Size())
		for _, workers := range []int{1, 4} {
			got, err := core.SecondHalfStep(half, core.WithMaxStates(b), core.WithWorkers(workers))
			switch {
			case fail && !errors.Is(err, core.ErrStateBudget):
				t.Fatalf("budget %d, workers %d: %d valid configs: want ErrStateBudget, got %v\nproblem:\n%s", b, workers, count, err, half)
			case !fail && err != nil:
				t.Fatalf("budget %d, workers %d: %d valid configs: %v\nproblem:\n%s", b, workers, count, err, half)
			case !fail && out == "":
				out = got.String()
			case !fail && got.String() != out:
				t.Fatalf("budget %d, workers %d: result differs\nproblem:\n%s", b, workers, half)
			}
		}
	}
}

// spread renames label l of half to 8·(l mod 2) + ⌊l/2⌋ in a 16-label
// alphabet, so its labels straddle two bytes of the set encoding and
// content order differs from label order (the singleton {8} sorts
// before {0}). The other labels occur in no configuration, so the valid
// set-configurations, and with them the budget count, are those of half
// up to renaming.
func spread(t *testing.T, half *core.Problem) *core.Problem {
	t.Helper()
	if half.Alpha.Size() > 16 {
		t.Fatalf("spread: %d labels do not fit 16", half.Alpha.Size())
	}
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("unused%d", i)
	}
	rename := map[core.Label]core.Label{}
	for l := 0; l < half.Alpha.Size(); l++ {
		to := 8*(l%2) + l/2
		names[to] = half.Alpha.Name(core.Label(l))
		rename[core.Label(l)] = core.Label(to)
	}
	alpha, err := core.NewAlphabet(names...)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := half.Edge.Remap(rename)
	if err != nil {
		t.Fatal(err)
	}
	node, err := half.Node.Remap(rename)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(alpha, edge, node)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
