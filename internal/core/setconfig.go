package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/intern"
	"repro/internal/par"
)

// setArena interns the label sets of the set-configurations an
// enumeration returns, so their groups carry dense handles and
// SecondHalfStep collects the derived alphabet with a handle-indexed
// scan instead of string keys.
//
// Handle values depend on interning order; every ordering decision
// therefore goes through set content (bitset.Compare), which keeps
// outputs byte-identical across runs and worker counts.
type setArena struct {
	n    int           // universe (alphabet size of the half problem)
	sets *intern.Table // label-set words
}

func newSetArena(n int) *setArena {
	return &setArena{n: n, sets: intern.NewTable(0)}
}

// intern hash-conses a label set.
func (a *setArena) intern(s bitset.Set) intern.Handle {
	return a.sets.Intern(s.Words())
}

// view returns the set of a handle as a zero-copy read-only bitset.
func (a *setArena) view(h intern.Handle) bitset.Set {
	return bitset.Wrap(a.n, a.sets.Seq(h))
}

// setConfig is a multiset of label sets (the candidate node
// configurations of the derived problem Π'_1): groups reference
// arena-interned sets, hold multiplicities, and are kept in canonical
// set-content order.
type setConfig struct {
	groups []scGroup
}

// scGroup is one interned group of a setConfig.
type scGroup struct {
	set   intern.Handle
	count int
}

// setGroup is the raw construction-time form of a group (a materialized
// set plus multiplicity), used by the naive reference implementations
// and the tests.
type setGroup struct {
	set   bitset.Set
	count int
}

// newSetConfig interns raw groups and normalizes: merges equal sets and
// sorts by set content.
func newSetConfig(a *setArena, groups []setGroup) setConfig {
	interned := make([]scGroup, 0, len(groups))
	for _, g := range groups {
		if g.count == 0 {
			continue
		}
		interned = append(interned, scGroup{set: a.intern(g.set), count: g.count})
	}
	return canonicalize(a, interned)
}

// canonicalize merges groups with equal handles and sorts groups by set
// content (content order, not handle order, so the result is identical
// for every interning interleaving).
func canonicalize(a *setArena, groups []scGroup) setConfig {
	sort.Slice(groups, func(i, j int) bool {
		return bitset.Compare(a.view(groups[i].set), a.view(groups[j].set)) < 0
	})
	out := groups[:0]
	for _, g := range groups {
		if n := len(out); n > 0 && out[n-1].set == g.set {
			out[n-1].count += g.count
			continue
		}
		out = append(out, g)
	}
	return setConfig{groups: out}
}

// compare orders set-configs by content: group-wise set content, then
// multiplicity, then group count. A total order independent of handle
// numbering, used to emit enumeration results deterministically.
func (sc setConfig) compare(a *setArena, other setConfig) int {
	for i, g := range sc.groups {
		if i >= len(other.groups) {
			return 1
		}
		o := other.groups[i]
		if g.set != o.set {
			if c := bitset.Compare(a.view(g.set), a.view(o.set)); c != 0 {
				return c
			}
		}
		if g.count != o.count {
			if g.count < o.count {
				return -1
			}
			return 1
		}
	}
	if len(sc.groups) < len(other.groups) {
		return -1
	}
	return 0
}

// allChoicesIn reports whether every choice multiset (pick one element per
// slot) together with the labels in extra belongs to h. It enumerates
// choice multisets group-wise (combinations with repetition), which keeps
// the work polynomial in the number of distinct choice multisets rather
// than exponential in the arity.
func (sc setConfig) allChoicesIn(a *setArena, h Constraint, extra []Label) bool {
	counts := getLabelCounts()
	defer putLabelCounts(counts)
	for _, l := range extra {
		counts[l]++
	}
	var rec func(gi int) bool
	rec = func(gi int) bool {
		if gi == len(sc.groups) {
			c, err := NewConfigCounts(counts)
			if err != nil {
				return false
			}
			return h.Contains(c)
		}
		g := sc.groups[gi]
		members := a.view(g.set).Indices()
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
				if !ok {
					return false
				}
			}
			return true
		}
		return choose(0, g.count)
	}
	return rec(0)
}

// maximalNodeSetConfigs enumerates the maximal set-configurations
// {W_1, ..., W_Δ} such that every choice w_i ∈ W_i is a configuration of
// half.Node — the node constraint of the simplified derived problem Π'_1
// (Property 6 of Section 4.2) — in content order. The returned arena
// resolves the handles of the returned configurations.
//
// The search walks the valid set-configurations (every choice in
// half.Node, no entry empty) upward from the roots, the configurations
// of half.Node as singleton set-configs. A configuration with no valid
// single-label extension is maximal, because supersets of invalid
// configurations are invalid, and every valid configuration is reached:
// removing a label from an entry of two or more labels keeps it valid.
// That removal also gives every non-root state C exactly one parent —
// C with the greatest label taken from one copy of its content-greatest
// entry of two or more labels — so the search is a reverse search: a
// state builds only the extensions whose parent it is. Adding l to one
// copy of a group with set s is one iff l exceeds every label of s and
// s ∪ {l} is content-greater than or equal to every other group of two
// or more labels (the remaining copies of s included). Both checks run
// before the child is built, so each valid state is built exactly once
// and nothing needs deduplicating. Maximality comes from the completion
// masks (no group extends at all): a state that builds no child need not
// be maximal.
//
// Adding l to one copy of group g of a valid state S introduces exactly
// the choices where that copy picks l, so l is a valid extension iff
// c + l ∈ half.Node for every choice multiset c of S minus that copy.
// The completion index turns this into one pass per (state, group): the
// AND of the completion masks of those choices, minus g's own set, is
// every label that extends g.
//
// Each worker walks its share of the roots depth-first in private
// scratch (see explorer); states are self-contained word sequences, so
// the search writes no shared table, and label sets are interned only
// for the maximal configurations returned, whose content-sorted order
// is schedule-independent. The roots are free and every other state
// takes one unit of one shared budget of max(maxStates − |h|, 0) when it
// is built. Every valid state is built exactly once whatever the
// schedule, so for every worker count the step fails iff the valid
// set-configurations outnumber max(maxStates, |h|), and a failing step
// stops at its first state over the budget.
func maximalNodeSetConfigs(half *Problem, o speedupOptions) ([]setConfig, *setArena, error) {
	n := half.Alpha.Size()
	if half.Delta() > MaxDelta {
		return nil, nil, fmt.Errorf("core: second half step: Δ=%d exceeds the supported %d", half.Delta(), MaxDelta)
	}
	roots := half.Node.Configs()
	budget := par.NewBudget(max(o.maxStates-len(roots), 0))
	index := newCompletionIndex(half.Node, n)
	explorers := make([]*explorer, o.workerCount(len(roots)))
	for w := range explorers {
		explorers[w] = &explorer{n: n, words: index.words, index: index, budget: budget,
			key: make([]byte, n), mask: bitset.New(n), grown: bitset.New(n)}
	}
	err := par.RunSharded(len(explorers), len(roots), func(w, i int) error {
		return explorers[w].walk(roots[i])
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: second half step: exceeded state budget of %d set-configurations: %w", o.maxStates, err)
	}

	arena := newSetArena(n)
	stride := index.words + 1
	total := 0
	for _, x := range explorers {
		total += len(x.found) / stride
	}
	groups := make([]scGroup, 0, total)
	var configs []setConfig
	for _, x := range explorers {
		start := 0
		for _, end := range x.foundEnds {
			lo := len(groups)
			for g := start; g < end; g += stride {
				set := arena.sets.Intern(x.found[g : g+index.words])
				groups = append(groups, scGroup{set: set, count: int(x.found[g+index.words])})
			}
			configs = append(configs, setConfig{groups: groups[lo:len(groups):len(groups)]})
			start = end
		}
	}
	slices.SortFunc(configs, func(x, y setConfig) int { return x.compare(arena, y) })
	return configs, arena, nil
}

// completionIndex maps every (Δ−1)-sub-multiset c of a configuration of
// a node constraint h to the labels l with c + l ∈ h, as a mask over the
// alphabet. Keys are multiplicity vectors, one byte per label (Δ ≤ 255);
// a multiset with no entry completes to nothing. Read-only once built,
// so concurrent workers share it without locking.
type completionIndex struct {
	at    map[string]int // key → offset of its mask in masks
	masks []uint64
	words int // words per mask
}

func newCompletionIndex(h Constraint, n int) completionIndex {
	ix := completionIndex{at: make(map[string]int, h.Size()), words: (n + 63) / 64}
	key := make([]byte, n)
	for _, cfg := range h.Configs() {
		clear(key)
		cfg.ForEach(func(l Label, c int) { key[l] = byte(c) })
		cfg.ForEach(func(l Label, _ int) {
			key[l]--
			off, ok := ix.at[string(key)]
			if !ok {
				off = len(ix.masks)
				ix.at[string(key)] = off
				ix.masks = append(ix.masks, make([]uint64, ix.words)...)
			}
			ix.masks[off+int(l)/64] |= 1 << (uint(l) % 64)
			key[l]++
		})
	}
	return ix
}

// explorer is one worker's scratch for the search. A state is a
// self-contained word sequence: for each group in content order, the
// words of its label set, then its multiplicity. The buffers are reused
// from state to state and root to root.
type explorer struct {
	n, words  int // alphabet size; words per label set
	index     completionIndex
	budget    *par.Budget
	stack     []uint64     // states still to expand, back to back
	starts    []int        // start of each state in stack
	cur       []uint64     // the state being expanded
	found     []uint64     // maximal states found, back to back
	foundEnds []int        // end of each state in found
	sets      []bitset.Set // groups of cur (views into it)
	counts    []int        // their multiplicities (one less for the slot being extended)
	members   [][]int      // their member labels
	key       []byte       // multiplicity vector of the choice being enumerated
	mask      bitset.Set   // AND of the completion masks seen so far
	grown     bitset.Set   // the extended slot's set plus the added label
}

// walk explores the subtree of one root depth-first: the configuration
// cfg as singleton groups, insertion-sorted into content order. It
// returns ErrStateBudget as soon as the shared budget runs out.
func (x *explorer) walk(cfg Config) error {
	stride := x.words + 1
	x.stack = x.stack[:0]
	cfg.ForEach(func(l Label, c int) {
		g := len(x.stack)
		for range x.words {
			x.stack = append(x.stack, 0)
		}
		x.stack[g+int(l)/64] = 1 << (uint(l) % 64)
		x.stack = append(x.stack, uint64(c))
		for ; g > 0 && x.compareGroups(g-stride, g) > 0; g -= stride {
			for k := g - stride; k < g; k++ {
				x.stack[k], x.stack[k+stride] = x.stack[k+stride], x.stack[k]
			}
		}
	})
	x.starts = append(x.starts[:0], 0)
	for len(x.starts) > 0 {
		last := len(x.starts) - 1
		start := x.starts[last]
		x.cur = append(x.cur[:0], x.stack[start:]...)
		x.stack, x.starts = x.stack[:start], x.starts[:last]
		if !x.expand() {
			return ErrStateBudget
		}
	}
	return nil
}

// compareGroups compares by content the label sets of the groups at
// offsets i and j of the stack.
func (x *explorer) compareGroups(i, j int) int {
	return bitset.Compare(bitset.Wrap(x.n, x.stack[i:i+x.words]), bitset.Wrap(x.n, x.stack[j:j+x.words]))
}

// expand pushes every child of x.cur whose canonical parent it is, and
// records x.cur as maximal when no group has a valid extension at all.
// It reports false when a child finds the budget spent.
func (x *explorer) expand() bool {
	stride := x.words + 1
	x.sets, x.counts = x.sets[:0], x.counts[:0]
	top := -1 // the content-greatest group of two or more labels
	for g := 0; g < len(x.cur); g += stride {
		j := len(x.sets)
		if j == len(x.members) {
			x.members = append(x.members, nil)
		}
		s := bitset.Wrap(x.n, x.cur[g:g+x.words])
		x.sets = append(x.sets, s)
		x.counts = append(x.counts, int(x.cur[g+x.words]))
		x.members[j] = s.AppendIndices(x.members[j][:0])
		if len(x.members[j]) > 1 {
			top = j
		}
	}
	maximal := true
	for gi, slot := range x.sets {
		hi := x.members[gi][len(x.members[gi])-1]
		if !maximal && hi == x.n-1 {
			continue // no label above hi: nothing left to learn here
		}
		x.counts[gi]--
		x.mask.FillInPlace()
		x.narrow(slot, 0, 0, x.counts[0])
		x.counts[gi]++
		sw := slot.Words()
		for w, m := range x.mask.Words() {
			for ext := m &^ sw[w]; ext != 0; ext &= ext - 1 {
				maximal = false
				l := w*64 + bits.TrailingZeros64(ext)
				if l < hi {
					continue
				}
				copy(x.grown.Words(), sw)
				x.grown.Add(l)
				if top > gi && bitset.Compare(x.grown, x.sets[top]) < 0 {
					continue
				}
				if !x.budget.Take() {
					return false
				}
				x.push(gi)
			}
		}
	}
	if maximal {
		x.found = append(x.found, x.cur...)
		x.foundEnds = append(x.foundEnds, len(x.found))
	}
	return true
}

// narrow ANDs into x.mask the completion masks of every choice multiset
// of the state's groups from j on — left more picks from group j, at
// member index from or later — and reports false as soon as no label
// outside slot survives: then slot has no extension left to find.
func (x *explorer) narrow(slot bitset.Set, j, from, left int) bool {
	for left == 0 {
		if j++; j == len(x.counts) {
			off, ok := x.index.at[string(x.key)]
			if !ok {
				x.mask.ClearInPlace()
				return false
			}
			x.mask.IntersectInPlace(bitset.Wrap(x.n, x.index.masks[off:off+x.index.words]))
			return !x.mask.SubsetOf(slot)
		}
		from, left = 0, x.counts[j]
	}
	members := x.members[j]
	for i := from; i < len(members); i++ {
		x.key[members[i]]++
		ok := x.narrow(slot, j, i, left-1)
		x.key[members[i]]--
		if !ok {
			return false
		}
	}
	return true
}

// push pushes x.cur with one copy of group gi replaced by x.grown, which
// is inserted at its content position or merged into an equal group, so
// the child's groups stay in content order without sorting.
func (x *explorer) push(gi int) {
	x.starts = append(x.starts, len(x.stack))
	placed := false
	for j, s := range x.sets {
		c := x.counts[j]
		if !placed {
			if cmp := bitset.Compare(x.grown, s); cmp <= 0 {
				if cmp < 0 {
					x.pushGroup(x.grown, 1)
				} else {
					c++
				}
				placed = true
			}
		}
		if j == gi {
			c--
		}
		if c > 0 {
			x.pushGroup(s, c)
		}
	}
	if !placed {
		x.pushGroup(x.grown, 1)
	}
}

// pushGroup appends one group to the state on top of the stack.
func (x *explorer) pushGroup(s bitset.Set, count int) {
	x.stack = append(append(x.stack, s.Words()...), uint64(count))
}
