package core

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/par"
)

// This file contains brute-force reference implementations of the speedup
// transformation, enumerating power sets directly as in the paper's raw
// definitions (Section 4.1, before simplification). They are exponential
// and intended for cross-validation of the production implementations on
// small instances (TestStepsAgainstRawDefinitions runs them against
// HalfStep and SecondHalfStep), and for studying unsimplified derived
// problems Π_{1/2} and Π_1.

const naiveAlphabetCap = 14

// NaiveHalfStep computes the unsimplified derived problem Π_{1/2}: labels
// are all non-empty subsets of the alphabet of Π, the edge constraint is
// the universal condition (Property 1) and the node constraint the
// existential condition (Property 2). The result is compressed.
//
// The empty set, while formally a label of Π_{1/2} = 2^O, can never occur
// in a node configuration (no choice exists), so omitting it up front only
// anticipates compression.
func NaiveHalfStep(p *Problem) (*Problem, error) {
	n := p.Alpha.Size()
	if n > naiveAlphabetCap {
		return nil, fmt.Errorf("core: naive half step: alphabet size %d exceeds cap %d", n, naiveAlphabetCap)
	}
	sets := allNonEmptySubsets(n)
	alpha := derivedAlphabet(p.Alpha, sets)
	rel := newEdgeRelation(p.Edge, n)

	edge := NewConstraint(2)
	for i := range sets {
		for j := i; j < len(sets); j++ {
			if universallyCompatible(rel, sets[i], sets[j]) {
				edge.MustAdd(NewConfig(Label(i), Label(j)))
			}
		}
	}

	node := NewConstraint(p.Delta())
	candidates := candidateLists(sets, n)
	budget := par.NewBudget(defaultMaxStates)
	for _, cfg := range p.Node.Configs() {
		if err := liftConfig(cfg, candidates, node, budget); err != nil {
			return nil, err
		}
	}

	derived := &Problem{Alpha: alpha, Edge: edge, Node: node}
	return derived.Compress(), nil
}

// NaiveSecondHalfStep computes the unsimplified derived problem Π_1 from
// Π_{1/2}: the node constraint is the universal condition (Property 4)
// over all multisets of non-empty subsets, and the edge constraint the
// existential condition (Property 3). The result is compressed.
func NaiveSecondHalfStep(half *Problem) (*Problem, error) {
	n := half.Alpha.Size()
	if n > naiveAlphabetCap {
		return nil, fmt.Errorf("core: naive second half step: alphabet size %d exceeds cap %d", n, naiveAlphabetCap)
	}
	sets := allNonEmptySubsets(n)
	alpha := derivedAlphabet(half.Alpha, sets)

	node := NewConstraint(half.Delta())
	arena := newSetArena(n)
	collect := func(counts map[int]int) {
		groups := make([]setGroup, 0, len(counts))
		lcounts := make(map[Label]int, len(counts))
		for si, c := range counts {
			groups = append(groups, setGroup{set: sets[si], count: c})
			lcounts[Label(si)] += c
		}
		sc := newSetConfig(arena, groups)
		if sc.allChoicesIn(arena, half.Node, nil) {
			cfg, err := NewConfigCounts(lcounts)
			if err == nil {
				node.MustAdd(cfg)
			}
		}
	}
	enumerateMultisets(len(sets), half.Delta(), collect)

	rel := newEdgeRelation(half.Edge, n)
	edge := NewConstraint(2)
	for i := range sets {
		reach := bitset.New(n)
		sets[i].ForEach(func(w int) bool {
			reach.UnionInPlace(rel.neighbors[w])
			return true
		})
		for j := i; j < len(sets); j++ {
			if reach.Intersects(sets[j]) {
				edge.MustAdd(NewConfig(Label(i), Label(j)))
			}
		}
	}

	derived := &Problem{Alpha: alpha, Edge: edge, Node: node}
	return derived.Compress(), nil
}

// MaximalEdgePairsBrute enumerates, by brute force over the power set, the
// multisets {Y, Z} satisfying Property 5 (universal compatibility plus
// mutual maximality). Returned as pairs of bitsets with Y.Key() ≤ Z.Key().
func MaximalEdgePairsBrute(p *Problem) ([][2]bitset.Set, error) {
	n := p.Alpha.Size()
	if n > naiveAlphabetCap {
		return nil, fmt.Errorf("core: brute maximal pairs: alphabet size %d exceeds cap %d", n, naiveAlphabetCap)
	}
	rel := newEdgeRelation(p.Edge, n)
	sets := allSubsets(n)
	var out [][2]bitset.Set
	for i := range sets {
		for j := i; j < len(sets); j++ {
			y, z := sets[i], sets[j]
			if !universallyCompatible(rel, y, z) {
				continue
			}
			if maximalPair(rel, y, z, n) {
				a, b := y, z
				if b.Key() < a.Key() {
					a, b = b, a
				}
				out = append(out, [2]bitset.Set{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if k := out[i][0].Key(); k != out[j][0].Key() {
			return k < out[j][0].Key()
		}
		return out[i][1].Key() < out[j][1].Key()
	})
	return out, nil
}

func maximalPair(rel edgeRelation, y, z bitset.Set, n int) bool {
	for l := 0; l < n; l++ {
		if !y.Contains(l) {
			y2 := y.Clone()
			y2.Add(l)
			if universallyCompatible(rel, y2, z) {
				return false
			}
		}
		if !z.Contains(l) {
			z2 := z.Clone()
			z2.Add(l)
			if universallyCompatible(rel, y, z2) {
				return false
			}
		}
	}
	return true
}

func universallyCompatible(rel edgeRelation, y, z bitset.Set) bool {
	ok := true
	y.ForEach(func(a int) bool {
		if !z.SubsetOf(rel.neighbors[a]) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func allNonEmptySubsets(n int) []bitset.Set {
	subsets := allSubsets(n)
	return subsets[1:] // allSubsets emits the empty set first
}

func allSubsets(n int) []bitset.Set {
	if n > naiveAlphabetCap {
		panic("core: allSubsets: alphabet too large")
	}
	out := make([]bitset.Set, 0, 1<<uint(n))
	for mask := 0; mask < 1<<uint(n); mask++ {
		s := bitset.New(n)
		for b := 0; b < n; b++ {
			if mask&(1<<uint(b)) != 0 {
				s.Add(b)
			}
		}
		out = append(out, s)
	}
	// Sort by popcount then key so the empty set comes first and the order
	// is deterministic.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count() != out[j].Count() {
			return out[i].Count() < out[j].Count()
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

func candidateLists(sets []bitset.Set, n int) [][]Label {
	candidates := make([][]Label, n)
	for i, s := range sets {
		s.ForEach(func(y int) bool {
			candidates[y] = append(candidates[y], Label(i))
			return true
		})
	}
	return candidates
}

// enumerateMultisets calls fn for every multiset of size k over {0..n-1},
// passing element→multiplicity maps that must not be retained.
func enumerateMultisets(n, k int, fn func(counts map[int]int)) {
	counts := map[int]int{}
	var rec func(start, remaining int)
	rec = func(start, remaining int) {
		if remaining == 0 {
			fn(counts)
			return
		}
		for i := start; i < n; i++ {
			counts[i]++
			rec(i, remaining-1)
			counts[i]--
			if counts[i] == 0 {
				delete(counts, i)
			}
		}
	}
	rec(0, k)
}
