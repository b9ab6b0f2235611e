package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/intern"
)

// setArena is the hash-consed store backing one enumeration of maximal
// set-configurations: label sets and whole configurations intern to
// dense handles, so dedup maps and visited sets are handle-indexed and
// never materialize strings.
//
// Handle values depend on interleaving when workers intern
// concurrently; every ordering decision therefore goes through set
// content (bitset.Compare), which keeps outputs byte-identical across
// runs and worker counts.
type setArena struct {
	n    int           // universe (alphabet size of the half problem)
	sets *intern.Table // label-set words
	ids  *intern.Table // packed group sequences: setConfig identities
}

func newSetArena(n int) *setArena {
	return &setArena{
		n:    n,
		sets: intern.NewTable(0),
		ids:  intern.NewTable(0),
	}
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
// set plus multiplicity), used by the builders, the naive reference
// implementations and the tests.
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

// singletonSetConfig converts an ordinary configuration into a set-config
// of singleton sets over an alphabet of the given size.
func singletonSetConfig(a *setArena, cfg Config) setConfig {
	groups := make([]setGroup, 0, 4)
	cfg.ForEach(func(l Label, count int) {
		s := bitset.New(a.n)
		s.Add(int(l))
		groups = append(groups, setGroup{set: s, count: count})
	})
	return newSetConfig(a, groups)
}

// appendGroupWords appends the packed encoding of the groups — one word
// per group, set handle in the high half, multiplicity in the low half —
// to dst. Groups are in canonical order, so the encoding identifies the
// configuration within one arena.
func appendGroupWords(groups []scGroup, dst []uint64) []uint64 {
	for _, g := range groups {
		dst = append(dst, uint64(g.set)<<32|uint64(uint32(g.count)))
	}
	return dst
}

// id hash-conses the configuration's identity.
func (sc setConfig) id(a *setArena) intern.Handle {
	var buf [16]uint64
	return a.ids.Intern(appendGroupWords(sc.groups, buf[:0]))
}

// config materializes the set-configuration of an identity handle.
func (a *setArena) config(id intern.Handle) setConfig {
	words := a.ids.Seq(id)
	groups := make([]scGroup, len(words))
	for i, w := range words {
		groups[i] = scGroup{set: intern.Handle(w >> 32), count: int(uint32(w))}
	}
	return setConfig{groups: groups}
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
// The enumeration explores upward: starting from the configurations of
// half.Node (as singleton set-configs), repeatedly add a single label to
// a single slot, keeping only additions that preserve validity ("every
// choice lies in half.Node"). Every intermediate state on the way to a
// maximal configuration T is entrywise between one of T's choice lines
// and T itself, hence valid, so the exploration is complete; a
// configuration with no valid single-label extension is maximal because
// supersets of invalid configurations are invalid. The work therefore
// grows with the number of valid set-configurations, not with the number
// of maximal ones, and the state budget below bounds it.
//
// Adding l to one copy of group g of a valid state S introduces exactly
// the choices where that copy picks l, so l is a valid extension iff
// c + l ∈ half.Node for every choice multiset c of S minus that copy.
// The completion index turns this into one pass per (state, group): the
// AND of the completion masks of those choices, minus g's own set, is
// every label that extends g. States are identities in arena.ids
// (packed group words), and children are built and interned in
// per-worker scratch, so expanding a state allocates nothing.
//
// The exploration is level-synchronous: each frontier of newly visited
// states is expanded in parallel, and the children are merged
// sequentially in frontier order against a dense visited bitmap. Because
// the reachable closure, the maximal subset, and the sorted output are
// all schedule-independent, every worker count produces byte-identical
// results. So does the budget: the roots are admitted free, and the step
// fails iff the valid set-configurations (all entries non-empty)
// outnumber max(maxStates, |h|).
func maximalNodeSetConfigs(half *Problem, o speedupOptions) ([]setConfig, *setArena, error) {
	n := half.Alpha.Size()
	if half.Delta() > 255 {
		return nil, nil, fmt.Errorf("core: second half step: Δ=%d exceeds the supported 255", half.Delta())
	}
	arena := newSetArena(n)
	index := newCompletionIndex(half.Node, n)
	maxStates := o.maxStates

	// visited/maximal are dense over the identity arena; handle values
	// may be assigned racily during parallel expansion, but membership
	// and the budget count only depend on the set of identities, which
	// is schedule-independent.
	var visited boolByHandle
	visitedCount := 0
	var maximal, frontier, spare []intern.Handle
	for _, cfg := range half.Node.Configs() {
		id := singletonSetConfig(arena, cfg).id(arena)
		if !visited.get(id) {
			visited.set(id)
			visitedCount++
			frontier = append(frontier, id)
		}
	}

	explorers := make([]*explorer, o.workerCount(math.MaxInt))
	for w := range explorers {
		explorers[w] = &explorer{arena: arena, index: index,
			key: make([]byte, n), mask: bitset.New(n), grown: bitset.New(n)}
	}
	// spans[i] locates the children of frontier[i] in the buffer of the
	// worker that expanded it.
	type span struct{ worker, lo, hi int }
	var spans []span
	for len(frontier) > 0 {
		for _, x := range explorers {
			x.children = x.children[:0]
		}
		spans = slices.Grow(spans[:0], len(frontier))[:len(frontier)]
		_ = runSharded(o.workerCount(len(frontier)), len(frontier), func(w, i int) error {
			x := explorers[w]
			lo := len(x.children)
			x.expand(frontier[i])
			spans[i] = span{worker: w, lo: lo, hi: len(x.children)}
			return nil
		})

		next := spare[:0]
		for i, id := range frontier {
			sp := spans[i]
			if sp.lo == sp.hi {
				maximal = append(maximal, id)
				continue
			}
			for _, child := range explorers[sp.worker].children[sp.lo:sp.hi] {
				if visited.get(child) {
					continue
				}
				if visitedCount >= maxStates {
					return nil, nil, fmt.Errorf("core: second half step: exceeded state budget of %d set-configurations: %w", maxStates, ErrStateBudget)
				}
				visited.set(child)
				visitedCount++
				next = append(next, child)
			}
		}
		frontier, spare = next, frontier
	}

	configs := make([]setConfig, len(maximal))
	for i, id := range maximal {
		configs[i] = arena.config(id)
	}
	slices.SortFunc(configs, func(x, y setConfig) int { return x.compare(arena, y) })
	return configs, arena, nil
}

// boolByHandle is a growable dense bitmap indexed by intern handles.
type boolByHandle []bool

func (b boolByHandle) get(h intern.Handle) bool {
	return int(h) < len(b) && b[h]
}

func (b *boolByHandle) set(h intern.Handle) {
	for int(h) >= len(*b) {
		*b = append(*b, false)
	}
	(*b)[h] = true
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

// explorer is one worker's scratch for expanding exploration states.
// Its buffers are reused from state to state and level to level.
type explorer struct {
	arena   *setArena
	index   completionIndex
	sets    []bitset.Set // groups of the state being expanded
	counts  []int        // their multiplicities (one less for the slot being extended)
	members [][]int      // their member labels
	key     []byte       // multiplicity vector of the choice being enumerated
	mask    bitset.Set   // AND of the completion masks seen so far
	grown   bitset.Set   // the extended slot's set plus the added label
	words   []uint64     // packed groups of the child being built
	// children collects the identities found this level, in frontier
	// order per state, group by group and by ascending label.
	children []intern.Handle
}

// expand appends the identity of every single-label extension of state
// id to x.children.
func (x *explorer) expand(id intern.Handle) {
	state := x.arena.ids.Seq(id)
	x.sets, x.counts = x.sets[:0], x.counts[:0]
	for len(x.members) < len(state) {
		x.members = append(x.members, nil)
	}
	for j, w := range state {
		s := x.arena.view(intern.Handle(w >> 32))
		x.sets = append(x.sets, s)
		x.counts = append(x.counts, int(uint32(w)))
		x.members[j] = s.AppendIndices(x.members[j][:0])
	}
	for gi, slot := range x.sets {
		x.counts[gi]--
		x.mask.FillInPlace()
		x.narrow(slot, 0, 0, x.counts[0])
		x.counts[gi]++
		sw := slot.Words()
		for w, m := range x.mask.Words() {
			for ext := m &^ sw[w]; ext != 0; ext &= ext - 1 {
				x.children = append(x.children, x.child(state, gi, w*64+bits.TrailingZeros64(ext)))
			}
		}
	}
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
			x.mask.IntersectInPlace(bitset.Wrap(x.arena.n, x.index.masks[off:off+x.index.words]))
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

// child interns the state with label l added to one copy of group gi.
// The grown set is inserted at its content position, or merged into an
// equal group, so the packed words stay canonical without sorting.
func (x *explorer) child(state []uint64, gi, l int) intern.Handle {
	copy(x.grown.Words(), x.sets[gi].Words())
	x.grown.Add(l)
	h := x.arena.intern(x.grown)
	placed := false
	x.words = x.words[:0]
	for j, w := range state {
		if !placed {
			if intern.Handle(w>>32) == h {
				w++
				placed = true
			} else if bitset.Compare(x.grown, x.sets[j]) < 0 {
				x.words = append(x.words, uint64(h)<<32|1)
				placed = true
			}
		}
		if j == gi {
			w--
		}
		if uint32(w) > 0 {
			x.words = append(x.words, w)
		}
	}
	if !placed {
		x.words = append(x.words, uint64(h)<<32|1)
	}
	return x.arena.ids.Intern(x.words)
}
