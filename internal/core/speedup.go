package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/intern"
	"repro/internal/par"
)

// ErrStateBudget is wrapped by every budget-exhaustion failure of the
// speedup enumerations, so callers (e.g. the fixpoint driver) can
// distinguish "too big to enumerate" from genuine internal errors.
var ErrStateBudget = errors.New("state budget exceeded")

// speedupOptions carries tunables for the speedup transformation.
type speedupOptions struct {
	maxStates int
	workers   int
}

// workerCount resolves the effective worker count for a unit of n
// independent work items: the configured count (GOMAXPROCS when
// unset), clamped to n.
func (o speedupOptions) workerCount(n int) int {
	return par.WorkerCount(o.workers, n)
}

// Option configures Speedup, HalfStep and SecondHalfStep.
type Option func(*speedupOptions)

// defaultMaxStates bounds the search space of the maximal-configuration
// enumeration; derived problems beyond this size are rejected rather than
// silently truncated.
const defaultMaxStates = 4_000_000

// WithMaxStates overrides the safety cap on the number of intermediate
// set-configurations explored while computing the maximal node constraint.
func WithMaxStates(n int) Option {
	return func(o *speedupOptions) { o.maxStates = n }
}

// WithWorkers sets the number of concurrent workers used by the
// enumeration hot paths (HalfStep's config lifting and SecondHalfStep's
// maximal-set exploration). n <= 0 selects runtime.GOMAXPROCS(0), the
// default. Results are byte-identical for every worker count: shards
// are merged into the same canonical-key maps and emitted in sorted
// order.
func WithWorkers(n int) Option {
	return func(o *speedupOptions) { o.workers = n }
}

func buildOptions(opts []Option) speedupOptions {
	o := speedupOptions{maxStates: defaultMaxStates}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// HalfStep derives the simplified problem Π'_{1/2} from Π (Section 4.1
// first step, with the maximality constraint of Property 5, Section 4.2).
//
// Labels of Π'_{1/2} are sets of labels of Π. The edge constraint contains
// exactly the multisets {Y, Z} such that every pair (y ∈ Y, z ∈ Z) is in
// g(Δ) and both sets are maximal with this property; the node constraint
// contains the multisets {Y_1, ..., Y_Δ} admitting a choice y_i ∈ Y_i with
// {y_1, ..., y_Δ} ∈ h(Δ) (Property 2).
//
// Maximal pairs form a Galois connection: {Y, Z} is maximal iff
// Z = comp(Y) and Y = comp(Z), where comp(S) is the set of labels
// edge-compatible with all of S. The closed sets are exactly the
// intersections of the per-label compatibility sets, which this function
// enumerates directly (no power-set sweep).
func HalfStep(p *Problem, opts ...Option) (*Problem, error) {
	o := buildOptions(opts)
	n := p.Alpha.Size()
	rel := newEdgeRelation(p.Edge, n)

	// New alphabet: the closed sets, already deduplicated and sorted
	// canonically by closedSets. Interning them in sorted order makes
	// handle i the derived label i, so the comp lookup below is a plain
	// arena probe instead of a string-keyed map. The index arena and the
	// comp scratch set are pooled per-call scratch: nothing derived from
	// them outlives this function.
	sets := closedSets(rel, n)
	indexOf := getTable()
	defer putTable(indexOf)
	for _, s := range sets {
		indexOf.Intern(s.Words())
	}
	alpha := derivedAlphabet(p.Alpha, sets)

	// Edge constraint: {Y, comp(Y)} for each closed Y.
	edge := NewConstraint(2)
	partner := bitset.Get(n)
	defer bitset.Put(partner)
	for i, s := range sets {
		rel.compInto(s, partner)
		j, ok := indexOf.Lookup(partner.Words())
		if !ok {
			// comp of a closed set is closed, so it must be present.
			return nil, fmt.Errorf("core: half step: comp image not closed (internal error)")
		}
		edge.MustAdd(NewConfig(Label(i), Label(j)))
	}

	// Node constraint: lift every h-configuration through all coverings.
	// candidates[y] lists the new labels whose set contains old label y.
	candidates := make([][]Label, n)
	for i, s := range sets {
		s.ForEach(func(y int) bool {
			candidates[y] = append(candidates[y], Label(i))
			return true
		})
	}
	configs := p.Node.Configs()
	budget := par.NewBudget(o.maxStates)
	workers := o.workerCount(len(configs))
	node := NewConstraint(p.Delta())
	if workers <= 1 {
		for _, cfg := range configs {
			if err := liftConfig(cfg, candidates, node, budget); err != nil {
				return nil, err
			}
		}
	} else {
		// Shard the per-config lifting across workers, each with a
		// private accumulator; the shared atomic budget preserves the
		// WithMaxStates semantics (total emissions bounded) exactly.
		accs := make([]Constraint, workers)
		for w := range accs {
			accs[w] = NewConstraint(p.Delta())
		}
		err := par.RunSharded(workers, len(configs), func(w, i int) error {
			return liftConfig(configs[i], candidates, accs[w], budget)
		})
		if err != nil {
			return nil, err
		}
		// Merge deterministically: accumulators insert into one
		// canonical-key map, so the result is order-independent.
		for _, acc := range accs {
			for _, cfg := range acc.Configs() {
				if err := node.Add(cfg); err != nil {
					return nil, err
				}
			}
		}
	}

	derived := &Problem{Alpha: alpha, Edge: edge, Node: node}
	return derived.Compress(), nil
}

// closedSets returns all intersections of per-label compatibility sets,
// including the full set (the empty intersection), sorted canonically
// (bitset.Compare preserves the legacy key order) so derived label
// numbering is identical across runs.
//
// The accumulator is a hash-consed arena pre-sized from rel.neighbors:
// each round intersects the new neighbor set with the sets collected so
// far, and intersections that are already present are skipped before
// any append — the arena probe is the membership test — instead of
// being re-inserted (the old map rebuilt and re-keyed every
// intersection, a quadratic waste once the closure stabilizes).
func closedSets(rel edgeRelation, n int) []bitset.Set {
	acc := getTable()
	defer putTable(acc)
	sets := make([]bitset.Set, 0, n+1)
	sets = append(sets, bitset.Full(n))
	acc.Intern(sets[0].Words())
	scratch := bitset.Get(n)
	defer bitset.Put(scratch)
	for z := 0; z < n; z++ {
		nb := rel.neighbors[z]
		// Intersect nb with everything collected so far (the snapshot
		// suffices: sets added this round are already intersected with
		// nb, so re-intersecting them is a no-op).
		for i, m := 0, len(sets); i < m; i++ {
			sets[i].IntersectInto(nb, scratch)
			if _, ok := acc.Lookup(scratch.Words()); ok {
				continue
			}
			s := scratch.Clone()
			acc.Intern(s.Words())
			sets = append(sets, s)
		}
	}
	sort.Slice(sets, func(i, j int) bool { return bitset.Compare(sets[i], sets[j]) < 0 })
	return sets
}

// liftConfig enumerates all multisets of new labels covering cfg: every
// slot holding old label y is replaced by a new label whose set contains y.
// Results are inserted into dst. The budget is shared (atomically) with
// any concurrent lifts of sibling configurations.
func liftConfig(cfg Config, candidates [][]Label, dst Constraint, budget *par.Budget) error {
	type group struct {
		cands []Label
		count int
	}
	groups := make([]group, 0, 4)
	feasible := true
	cfg.ForEach(func(l Label, count int) {
		if len(candidates[l]) == 0 {
			feasible = false
			return
		}
		groups = append(groups, group{cands: candidates[l], count: count})
	})
	if !feasible {
		return nil
	}

	counts := getLabelCounts()
	defer putLabelCounts(counts)
	var rec func(gi int) error
	rec = func(gi int) error {
		if gi == len(groups) {
			if !budget.Take() {
				return fmt.Errorf("core: half step: derived node constraint exceeds state budget: %w", ErrStateBudget)
			}
			c, err := NewConfigCounts(counts)
			if err != nil {
				return err
			}
			return dst.Add(c)
		}
		g := groups[gi]
		// Choose a multiset of size g.count from g.cands: iterate
		// non-decreasing index sequences.
		var choose func(start, remaining int) error
		choose = func(start, remaining int) error {
			if remaining == 0 {
				return rec(gi + 1)
			}
			for i := start; i < len(g.cands); i++ {
				counts[g.cands[i]]++
				if err := choose(i, remaining-1); err != nil {
					return err
				}
				counts[g.cands[i]]--
				if counts[g.cands[i]] == 0 {
					delete(counts, g.cands[i])
				}
			}
			return nil
		}
		return choose(0, g.count)
	}
	return rec(0)
}

// SecondHalfStep derives the simplified problem Π'_1 from Π'_{1/2}
// (Section 4.1 second step with the maximality constraint of Property 6).
//
// Labels of Π'_1 are sets of labels of Π'_{1/2}. The node constraint
// contains the multisets {W_1, ..., W_Δ} such that every choice
// w_i ∈ W_i lies in the node constraint of Π'_{1/2} and the multiset is
// maximal with this property; the edge constraint contains the multisets
// {W, X} admitting w ∈ W, x ∈ X with {w, x} in the edge constraint of
// Π'_{1/2} (Property 3).
func SecondHalfStep(half *Problem, opts ...Option) (*Problem, error) {
	o := buildOptions(opts)
	maximal, arena, err := maximalNodeSetConfigs(half, o)
	if err != nil {
		return nil, err
	}

	// New alphabet: the distinct sets appearing in maximal
	// configurations. Groups carry arena handles, so collecting the
	// distinct sets is a dense membership scan; only the final
	// numbering sorts, by set content (the legacy key order).
	present := make([]bool, arena.sets.Len())
	handles := []intern.Handle{}
	for _, sc := range maximal {
		for _, g := range sc.groups {
			if !present[g.set] {
				present[g.set] = true
				handles = append(handles, g.set)
			}
		}
	}
	sort.Slice(handles, func(i, j int) bool {
		return bitset.Compare(arena.view(handles[i]), arena.view(handles[j])) < 0
	})
	sets := make([]bitset.Set, len(handles))
	labelOf := make([]Label, arena.sets.Len())
	for i, h := range handles {
		sets[i] = arena.view(h)
		labelOf[h] = Label(i)
	}
	alpha := derivedAlphabet(half.Alpha, sets)

	// Node constraint from the maximal set-configurations.
	node := NewConstraint(half.Delta())
	for _, sc := range maximal {
		counts := make(map[Label]int, len(sc.groups))
		for _, g := range sc.groups {
			counts[labelOf[g.set]] += g.count
		}
		c, err := NewConfigCounts(counts)
		if err != nil {
			return nil, err
		}
		if err := node.Add(c); err != nil {
			return nil, err
		}
	}

	// Edge constraint: existential lift of the half problem's relation.
	rel := newEdgeRelation(half.Edge, half.Alpha.Size())
	edge := NewConstraint(2)
	reach := bitset.Get(half.Alpha.Size())
	defer bitset.Put(reach)
	for i := range sets {
		// reach = union of compatibility neighborhoods of members of W.
		reach.ClearInPlace()
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

// Speedup applies one full round elimination step: Π → Π'_{1/2} → Π'_1,
// returning the compressed derived problem. By Theorems 1 and 2, on
// t-independent graph classes of girth ≥ 2t+2 (with edge orientations in
// the input for the simplification), Π is solvable in t rounds iff the
// returned problem is solvable in t−1 rounds.
func Speedup(p *Problem, opts ...Option) (*Problem, error) {
	half, err := HalfStep(p, opts...)
	if err != nil {
		return nil, err
	}
	return SecondHalfStep(half, opts...)
}
