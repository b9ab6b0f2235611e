package core_test

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/problems/gen"
)

// TestStepsAgainstRawDefinitions runs the paper's unsimplified
// definitions (Section 4.1: NaiveHalfStep and NaiveSecondHalfStep)
// against the engine's simplified steps (Properties 5 and 6, Section
// 4.2) on generated problems. Labels of both sides are sets of parent
// labels, matched by Alphabet.Provenance. For each step two relations
// must hold:
//   - every edge and node configuration of the simplified problem is
//     one of the raw problem's;
//   - every raw node configuration is dominated by a simplified one:
//     some permutation maps each entry into a superset. This is the
//     claim that the simplification loses nothing.
//
// The second half step's edge condition is existential, so supersets
// keep it, and its raw edge configurations must be dominated too. It is
// compared only where Π'_{1/2} has at most 5 labels: the raw definition
// enumerates every multiset of the 2^labels − 1 non-empty sets. The
// points are a pure function of their spec, so the number compared is
// too, and it may not fall below today's: an engine change that skips
// more points fails here instead of shrinking the check.
func TestStepsAgainstRawDefinitions(t *testing.T) {
	const maxHalfLabels = 5
	count, minCompared := 60, 314
	if testing.Short() {
		count, minCompared = 20, 105
	}
	compared, skipped := 0, 0
	for _, delta := range []int{2, 3} {
		for _, labels := range []int{2, 3, 4} {
			spec, err := gen.ParseSpec(fmt.Sprintf("family=rand,seed=1,count=%d,delta=%d,labels=%d", count, delta, labels))
			if err != nil {
				t.Fatal(err)
			}
			for i := range spec.Count {
				name := spec.PointName(i)
				p, err := spec.Point(i)
				if err != nil {
					t.Fatal(err)
				}
				half, err := core.HalfStep(p, core.WithWorkers(1))
				if err != nil {
					t.Fatalf("%s: HalfStep: %v", name, err)
				}
				rawHalf, err := core.NaiveHalfStep(p)
				if err != nil {
					t.Fatalf("%s: NaiveHalfStep: %v", name, err)
				}
				checkAgainstRaw(t, name+" half step", half, rawHalf, false)

				if half.Alpha.Size() > maxHalfLabels {
					skipped++
					continue
				}
				second, err := core.SecondHalfStep(half, core.WithWorkers(1))
				if err != nil {
					skipped++
					continue
				}
				rawSecond, err := core.NaiveSecondHalfStep(half)
				if err != nil {
					t.Fatalf("%s: NaiveSecondHalfStep: %v", name, err)
				}
				checkAgainstRaw(t, name+" second half step", second, rawSecond, true)
				compared++
			}
		}
	}
	t.Logf("%d second half steps compared, %d skipped", compared, skipped)
	if compared < minCompared {
		t.Fatalf("%d second half steps compared, want at least %d", compared, minCompared)
	}
}

// checkAgainstRaw asserts the two relations of TestStepsAgainstRawDefinitions
// between a simplified step output and the raw one, with domination of
// the edge configurations when dominateEdges is set.
func checkAgainstRaw(t *testing.T, what string, simplified, raw *core.Problem, dominateEdges bool) {
	t.Helper()
	rawLabel := make(map[string]core.Label, raw.Alpha.Size())
	for l := range raw.Alpha.Size() {
		prov, _ := raw.Alpha.Provenance(core.Label(l))
		rawLabel[prov.Key()] = core.Label(l)
	}
	toRaw := make(map[core.Label]core.Label, simplified.Alpha.Size())
	for l := range simplified.Alpha.Size() {
		prov, _ := simplified.Alpha.Provenance(core.Label(l))
		r, ok := rawLabel[prov.Key()]
		if !ok {
			t.Fatalf("%s: label %s is no label of the raw problem", what, simplified.Alpha.Name(core.Label(l)))
		}
		toRaw[core.Label(l)] = r
	}
	type pair struct {
		name            string
		simplified, raw core.Constraint
		dominate        bool
	}
	for _, c := range []pair{
		{"edge", simplified.Edge, raw.Edge, dominateEdges},
		{"node", simplified.Node, raw.Node, true},
	} {
		var entries [][]bitset.Set
		for _, cfg := range c.simplified.Configs() {
			if m, err := cfg.Remap(toRaw); err != nil || !c.raw.Contains(m) {
				t.Fatalf("%s: %s configuration %s is not one of the raw problem's", what, c.name, cfg.String(simplified.Alpha))
			}
			entries = append(entries, provenances(simplified, cfg))
		}
		if !c.dominate {
			continue
		}
		for _, cfg := range c.raw.Configs() {
			sets := provenances(raw, cfg)
			found := false
			for _, by := range entries {
				if dominated(sets, by) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: raw %s configuration %s is dominated by no simplified one", what, c.name, cfg.String(raw.Alpha))
			}
		}
	}
}

// provenances returns the label sets of cfg's entries, with multiplicity.
func provenances(p *core.Problem, cfg core.Config) []bitset.Set {
	var out []bitset.Set
	for _, l := range cfg.Expand() {
		prov, _ := p.Alpha.Provenance(l)
		out = append(out, prov)
	}
	return out
}

// dominated reports whether some permutation maps each of sets into a
// superset among by.
func dominated(sets, by []bitset.Set) bool {
	used := make([]bool, len(by))
	var match func(i int) bool
	match = func(i int) bool {
		if i == len(sets) {
			return true
		}
		for j, b := range by {
			if !used[j] && sets[i].SubsetOf(b) {
				used[j] = true
				if match(i + 1) {
					return true
				}
				used[j] = false
			}
		}
		return false
	}
	return match(0)
}
