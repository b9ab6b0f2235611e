package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// TestHalfStepEdgePairsMatchBruteForce validates the Galois-connection
// computation of the maximal edge pairs (Property 5) against the power-set
// brute force, on random small problems.
func TestHalfStepEdgePairsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 150; iter++ {
		p := randomProblem(rng, 2+rng.Intn(4), 2+rng.Intn(2), 0.4)
		if p.Edge.Size() == 0 || p.Node.Size() == 0 {
			continue
		}
		half, err := HalfStep(p)
		if err != nil {
			t.Fatalf("iter %d: HalfStep: %v", iter, err)
		}
		brute, err := MaximalEdgePairsBrute(p)
		if err != nil {
			t.Fatalf("iter %d: brute: %v", iter, err)
		}
		bruteKeys := make([]string, 0, len(brute))
		for _, pr := range brute {
			// Exclude pairs with an empty side or a side unusable in any
			// node configuration: HalfStep output is compressed.
			bruteKeys = append(bruteKeys, pr[0].Key()+"|"+pr[1].Key())
		}
		gotKeys := EdgePairKeysOf(half)
		sort.Strings(gotKeys)
		sort.Strings(bruteKeys)
		// Every surviving (compressed) pair must appear in the brute list.
		bruteSet := map[string]bool{}
		for _, k := range bruteKeys {
			bruteSet[k] = true
		}
		for _, k := range gotKeys {
			if !bruteSet[k] {
				t.Fatalf("iter %d: derived edge pair %q not maximal per brute force\nproblem:\n%s", iter, k, p.String())
			}
		}
		// Conversely, every brute pair whose labels survived compression
		// must appear in the derived constraint.
		surviving := map[string]bool{}
		for l := 0; l < half.Alpha.Size(); l++ {
			if prov, ok := half.Alpha.Provenance(Label(l)); ok {
				surviving[prov.Key()] = true
			}
		}
		gotSet := map[string]bool{}
		for _, k := range gotKeys {
			gotSet[k] = true
		}
		for i, k := range bruteKeys {
			if surviving[brute[i][0].Key()] && surviving[brute[i][1].Key()] && !gotSet[k] {
				t.Fatalf("iter %d: brute maximal pair %q missing from derived constraint\nproblem:\n%s", iter, k, p.String())
			}
		}
	}
}

// TestMaximalNodeConfigsMatchBruteForce validates the maximal-set
// enumeration against the exponential brute force on random small half
// problems.
func TestMaximalNodeConfigsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 120; iter++ {
		// Use a random problem directly as a "half" problem: the
		// enumeration only reads its node constraint and alphabet.
		half := randomProblem(rng, 2+rng.Intn(3), 2+rng.Intn(2), 0.5)
		if half.Node.Size() == 0 {
			continue
		}
		got, err := MaximalNodeSetConfigKeys(half, 1_000_000)
		if err != nil {
			t.Fatalf("iter %d: enumeration: %v", iter, err)
		}
		brute := BruteMaximalNodeSetConfigKeys(half)
		sort.Strings(got)
		sort.Strings(brute)
		if !equalStrings(got, brute) {
			t.Fatalf("iter %d: enumeration disagrees with brute force\ngot:  %v\nwant: %v\nproblem:\n%s",
				iter, got, brute, half.String())
		}
	}
}

// TestSecondHalfStepBudgetBoundary pins the state-budget rule of the
// exploration at its exact boundary: with maxStates = b, SecondHalfStep
// fails with ErrStateBudget iff the valid set-configurations with
// non-empty entries (counted by brute force) outnumber max(b, |h|) —
// the roots are admitted without charging the budget — and otherwise
// returns the bytes of an unbudgeted run, for every worker count.
func TestSecondHalfStepBudgetBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	problems := 300
	if testing.Short() {
		problems = 60
	}
	for iter := 0; iter < problems; iter++ {
		half := randomProblem(rng, 2+rng.Intn(3), 2+rng.Intn(2), 0.5)
		if half.Node.Size() == 0 {
			continue
		}
		count := BruteValidNodeSetConfigCount(half)
		ref, err := SecondHalfStep(half, WithWorkers(1))
		if err != nil {
			t.Fatalf("iter %d: unbudgeted: %v", iter, err)
		}
		want := ref.String()
		for b := 1; b <= count+1; b++ {
			fail := count > max(b, half.Node.Size())
			for _, workers := range []int{1, 4} {
				got, err := SecondHalfStep(half, WithMaxStates(b), WithWorkers(workers))
				switch {
				case fail && !errors.Is(err, ErrStateBudget):
					t.Fatalf("iter %d: budget %d, workers %d: %d valid configs, |h|=%d: want ErrStateBudget, got %v\nproblem:\n%s",
						iter, b, workers, count, half.Node.Size(), err, half)
				case !fail && err != nil:
					t.Fatalf("iter %d: budget %d, workers %d: %d valid configs, |h|=%d: %v\nproblem:\n%s",
						iter, b, workers, count, half.Node.Size(), err, half)
				case !fail && got.String() != want:
					t.Fatalf("iter %d: budget %d, workers %d: result differs from the unbudgeted run", iter, b, workers)
				}
			}
		}
	}
}

// TestHalfStepNodeConstraintExistential validates Property 2: a multiset
// of derived labels is in the derived node constraint iff some choice of
// members is in the original node constraint.
func TestHalfStepNodeConstraintExistential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		p := randomProblem(rng, 2+rng.Intn(3), 2+rng.Intn(2), 0.5)
		if p.Edge.Size() == 0 || p.Node.Size() == 0 {
			continue
		}
		half, err := HalfStep(p)
		if err != nil {
			t.Fatal(err)
		}
		m := half.Alpha.Size()
		if m == 0 {
			continue
		}
		// Check every multiset over the derived alphabet.
		enumerateMultisets(m, half.Delta(), func(counts map[int]int) {
			groups := make([]setGroup, 0, len(counts))
			lcounts := map[Label]int{}
			for l, c := range counts {
				prov, _ := half.Alpha.Provenance(Label(l))
				groups = append(groups, setGroup{set: prov, count: c})
				lcounts[Label(l)] = c
			}
			cfg, err := NewConfigCounts(lcounts)
			if err != nil {
				t.Fatal(err)
			}
			want := existsChoiceIn(p.Node, groups)
			got := half.Node.Contains(cfg)
			if got != want {
				t.Fatalf("iter %d: config %s: derived membership %v, existential condition %v\nproblem:\n%s",
					iter, cfg.String(half.Alpha), got, want, p.String())
			}
		})
	}
}

// existsChoiceIn reports whether some choice (one original label per slot)
// lies in the constraint.
func existsChoiceIn(node Constraint, groups []setGroup) bool {
	counts := map[Label]int{}
	var rec func(gi int) bool
	rec = func(gi int) bool {
		if gi == len(groups) {
			cfg, err := NewConfigCounts(counts)
			if err != nil {
				return false
			}
			return node.Contains(cfg)
		}
		g := groups[gi]
		members := g.set.Indices()
		var choose func(start, remaining int) bool
		choose = func(start, remaining int) bool {
			if remaining == 0 {
				return rec(gi + 1)
			}
			for i := start; i < len(members); i++ {
				l := Label(members[i])
				counts[l]++
				ok := choose(i, remaining-1)
				counts[l]--
				if counts[l] == 0 {
					delete(counts, l)
				}
				if ok {
					return true
				}
			}
			return false
		}
		return choose(0, g.count)
	}
	return rec(0)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
