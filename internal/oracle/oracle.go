// Package oracle is a brute-force solvability decider for locally
// checkable problems in the port numbering model: given a problem Π, a
// finite family of concrete port-numbered instances (optionally carrying
// round-0 inputs such as edge orientations or identifiers) and a round
// count t, it decides whether ONE deterministic t-round algorithm solves
// Π on EVERY instance of the family.
//
// The normal form of Section 3 of the paper makes this decidable: a
// t-round algorithm is exactly a function from radius-t views to one
// output label per port. The oracle therefore collects the distinct
// radius-t view classes occurring across the family and searches for an
// assignment of per-port output labels to classes such that every node
// satisfies the node constraint and every edge the edge constraint —
// a finite constraint satisfaction problem, solved exactly.
//
// The oracle is the conformance baseline for the round-elimination
// machinery (see conformance.go): its verdicts are independent of
// core.Speedup, internal/fixpoint and internal/solve, so agreement
// between them is evidence, in the style of Bastide–Fraigniaud
// (arXiv:2108.01989), that the speedup implementation is sound.
//
// The search is parallelized over instances (view collection) and over
// the branches of the top-level search variable, with the shared
// worker/atomic-budget substrate of internal/par; Solvable and Witness
// are byte-identical for every worker count whenever the search
// completes within the step budget. At the budget edge the verdict is
// never wrong, but concurrent branches drain the shared budget faster,
// so a parallel run may report ErrSearchBudget where a sequential run
// still finishes.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/intern"
	"repro/internal/par"
	"repro/internal/sim"
)

// ErrSearchBudget is wrapped by budget-exhaustion failures of the
// assignment search, so callers can distinguish "too big to decide"
// from genuine errors.
var ErrSearchBudget = errors.New("oracle: search budget exceeded")

// defaultMaxSteps bounds the number of candidate tuple trials across
// the whole search (all workers); families beyond it are rejected
// rather than silently truncated.
const defaultMaxSteps = 20_000_000

type options struct {
	workers        int
	maxSteps       int
	relaxed        bool
	fixpointStates int
}

// Option configures Decide.
type Option func(*options)

// WithWorkers sets the number of concurrent workers used for view
// collection and the top-level search branches. n <= 0 selects
// runtime.GOMAXPROCS(0), the default. Solvable and Witness are
// byte-identical for every worker count as long as the search stays
// within the step budget (see the package comment for the
// budget-exhaustion caveat).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithMaxSteps overrides the cap on candidate tuple trials; the cap is
// shared atomically across workers, so "total work bounded" holds for
// every worker count.
func WithMaxSteps(n int) Option {
	return func(o *options) { o.maxSteps = n }
}

// WithRelaxedDegrees admits instances containing nodes whose degree
// differs from the problem's Δ: such nodes are exempt from the node
// constraint (their ports may carry any label) while every edge remains
// constrained. This is the standard convention for truncated trees,
// whose leaves have degree 1.
func WithRelaxedDegrees() Option {
	return func(o *options) { o.relaxed = true }
}

// WithFixpointStates overrides the state budget Conformance grants the
// iterated-speedup driver for its classification (default
// defaultFixpointStates — deliberately small, so problems whose
// trajectories are too heavy to classify degrade to "no assertable
// upper bound" instead of stalling the run). Ignored by Decide.
func WithFixpointStates(n int) Option {
	return func(o *options) { o.fixpointStates = n }
}

// defaultFixpointStates keeps the conformance fixpoint classification
// cheap: trajectories needing more states classify as BudgetExceeded,
// which carries no oracle-checkable claim.
const defaultFixpointStates = 50_000

func buildOptions(opts []Option) options {
	o := options{maxSteps: defaultMaxSteps, fixpointStates: defaultFixpointStates}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// ClassOutputs is the witness entry for one view class: the label (by
// name) the algorithm outputs on each port of any node with this view.
type ClassOutputs struct {
	ViewKey string   `json:"view_key"`
	Outputs []string `json:"outputs"`
}

// Verdict is the oracle's decision for one (problem, family, rounds)
// point.
type Verdict struct {
	Rounds    int            `json:"rounds"`
	Instances int            `json:"instances"`
	Nodes     int            `json:"nodes"`
	Classes   int            `json:"classes"`
	Solvable  bool           `json:"solvable"`
	Witness   []ClassOutputs `json:"witness,omitempty"`
}

// arcTo is one directed compatibility constraint from the owning class:
// my port myPort meets class other's port otherPort across some edge.
type arcTo struct {
	other             int
	myPort, otherPort int
}

// pairKey is a normalized (class, port, class, port) constraint key.
type pairKey struct{ ca, pa, cb, pb int }

// Decide reports whether a single deterministic t-round port-numbering
// algorithm solves p on every instance of the family.
func Decide(p *core.Problem, insts []Instance, t int, opts ...Option) (*Verdict, error) {
	o := buildOptions(opts)
	if t < 0 {
		return nil, fmt.Errorf("oracle: negative round count %d", t)
	}
	if len(insts) == 0 {
		return nil, fmt.Errorf("oracle: empty instance family")
	}
	delta := p.Delta()

	// 1. Collect the radius-t view classes, in parallel over instances.
	// View keys are interned to dense handles as they are produced, so
	// every later per-node lookup is a slice index instead of a
	// string-keyed map probe over long view keys.
	views := intern.NewStrings()
	type instViews struct {
		keys    []intern.Handle
		degrees []int
	}
	collected := make([]instViews, len(insts))
	totalNodes := 0
	par.RunIndexed(par.WorkerCount(o.workers, len(insts)), len(insts), func(ii int) {
		inst := insts[ii]
		b := sim.NewViewBuilder(inst.G, inst.In)
		iv := instViews{keys: make([]intern.Handle, inst.G.N()), degrees: make([]int, inst.G.N())}
		for v := 0; v < inst.G.N(); v++ {
			iv.keys[v] = views.Intern(b.View(v, t).Key())
			iv.degrees[v] = inst.G.Degree(v)
		}
		collected[ii] = iv
	})
	degreeOf := make([]int, views.Len())
	for ii := range collected {
		totalNodes += len(collected[ii].keys)
		for v, h := range collected[ii].keys {
			degreeOf[h] = collected[ii].degrees[v]
		}
	}
	// Canonical class numbering: sorted by view key, exactly as the
	// string-keyed engine numbered classes, so witnesses render
	// identically.
	classHandles := make([]intern.Handle, views.Len())
	for h := range classHandles {
		classHandles[h] = intern.Handle(h)
	}
	sort.Slice(classHandles, func(i, j int) bool {
		return views.Value(classHandles[i]) < views.Value(classHandles[j])
	})
	classKeys := make([]string, len(classHandles))
	classOf := make([]int, views.Len()) // handle → class rank
	for i, h := range classHandles {
		classKeys[i] = views.Value(h)
		classOf[h] = i
	}

	// 2. Candidate output tuples per class.
	tuplesByDegree := map[int][][]core.Label{}
	tuplesFor := func(d int) ([][]core.Label, error) {
		if cached, ok := tuplesByDegree[d]; ok {
			return cached, nil
		}
		var tuples [][]core.Label
		if d == delta {
			for _, cfg := range p.Node.Configs() {
				tuples = append(tuples, core.DistinctPermutations(cfg.Expand())...)
			}
		} else {
			if !o.relaxed {
				return nil, fmt.Errorf("oracle: instance node of degree %d, problem defined for Δ=%d (use WithRelaxedDegrees for truncated families)", d, delta)
			}
			if count := math.Pow(float64(p.Alpha.Size()), float64(d)); count > 1e6 {
				return nil, fmt.Errorf("oracle: free tuple space for degree %d is infeasible", d)
			}
			tuples = core.AllLabelTuples(p.Alpha.Size(), d)
		}
		sortTuples(tuples)
		tuplesByDegree[d] = tuples
		return tuples, nil
	}
	classTuples := make([][][]core.Label, len(classKeys))
	for i, h := range classHandles {
		tuples, err := tuplesFor(degreeOf[h])
		if err != nil {
			return nil, err
		}
		classTuples[i] = tuples
	}

	verdict := &Verdict{
		Rounds:    t,
		Instances: len(insts),
		Nodes:     totalNodes,
		Classes:   len(classKeys),
	}

	// 3. Compatibility constraints from the edges of every instance.
	rel := make([][]bool, p.Alpha.Size())
	for i := range rel {
		rel[i] = make([]bool, p.Alpha.Size())
	}
	for _, cfg := range p.Edge.Configs() {
		ls := cfg.Expand()
		rel[ls[0]][ls[1]] = true
		rel[ls[1]][ls[0]] = true
	}
	pairSeen := map[pairKey]bool{}
	var unary []pairKey  // ca == cb: both endpoints get the same tuple
	var binary []pairKey // ca != cb
	for ii, inst := range insts {
		for id := 0; id < inst.G.M(); id++ {
			u, v, pu, pv := inst.G.EdgeEndpoints(id)
			ca, cb := classOf[collected[ii].keys[u]], classOf[collected[ii].keys[v]]
			pa, pb := pu, pv
			if ca > cb || (ca == cb && pa > pb) {
				ca, pa, cb, pb = cb, pb, ca, pa
			}
			k := pairKey{ca, pa, cb, pb}
			if pairSeen[k] {
				continue
			}
			pairSeen[k] = true
			if ca == cb {
				unary = append(unary, k)
			} else {
				binary = append(binary, k)
			}
		}
	}
	sort.Slice(unary, func(i, j int) bool { return lessPair(unary[i], unary[j]) })
	sort.Slice(binary, func(i, j int) bool { return lessPair(binary[i], binary[j]) })

	// 4. Initial domains: tuple indices surviving the unary constraints.
	domains := make([][]int, len(classKeys))
	for c := range domains {
		for ti, tup := range classTuples[c] {
			ok := true
			for _, k := range unary {
				if k.ca != c {
					continue
				}
				if !rel[tup[k.pa]][tup[k.pb]] {
					ok = false
					break
				}
			}
			if ok {
				domains[c] = append(domains[c], ti)
			}
		}
		if len(domains[c]) == 0 {
			return verdict, nil // unsolvable: some view class has no viable output
		}
	}

	// Per-class binary adjacency, both directions.
	neigh := make([][]arcTo, len(classKeys))
	for _, k := range binary {
		neigh[k.ca] = append(neigh[k.ca], arcTo{other: k.cb, myPort: k.pa, otherPort: k.pb})
		neigh[k.cb] = append(neigh[k.cb], arcTo{other: k.ca, myPort: k.pb, otherPort: k.pa})
	}

	s := &searcher{
		tuples: classTuples,
		neigh:  neigh,
		rel:    rel,
		budget: par.NewBudget(o.maxSteps),
	}

	// 5. AC-3 style propagation to a deterministic fixed point.
	if !s.propagate(domains) {
		return verdict, nil
	}

	// 6. Backtracking search, parallel over the branches of the first
	// (most constrained) variable.
	assignment, err := s.solve(domains, o.workers)
	if err != nil {
		return nil, err
	}
	if assignment == nil {
		return verdict, nil
	}
	verdict.Solvable = true
	verdict.Witness = make([]ClassOutputs, len(classKeys))
	for c, ti := range assignment {
		names := make([]string, len(classTuples[c][ti]))
		for i, l := range classTuples[c][ti] {
			names[i] = p.Alpha.Name(l)
		}
		verdict.Witness[c] = ClassOutputs{ViewKey: classKeys[c], Outputs: names}
	}
	// Self-check the witness against every instance before reporting.
	allKeys := make([][]intern.Handle, len(insts))
	for ii := range collected {
		allKeys[ii] = collected[ii].keys
	}
	if err := checkWitness(p, insts, allKeys, classOf, classTuples, assignment, o.relaxed); err != nil {
		return nil, fmt.Errorf("oracle: internal error: witness failed validation: %w", err)
	}
	return verdict, nil
}

func lessPair(a, b pairKey) bool {
	if a.ca != b.ca {
		return a.ca < b.ca
	}
	if a.pa != b.pa {
		return a.pa < b.pa
	}
	if a.cb != b.cb {
		return a.cb < b.cb
	}
	return a.pb < b.pb
}

// searcher carries the immutable search structure; domains and
// assignments are passed explicitly so branches can run concurrently.
type searcher struct {
	tuples [][][]core.Label
	neigh  [][]arcTo
	rel    [][]bool
	budget *par.Budget
}

// propagate removes tuples with no support across some binary arc,
// repeating to a fixed point. It reports false when a domain empties.
// Deterministic: arcs are scanned in class order and pruning keeps
// domain order.
func (s *searcher) propagate(domains [][]int) bool {
	for {
		changed := false
		for c := range domains {
			for _, arc := range s.neigh[c] {
				kept := domains[c][:0]
				for _, ti := range domains[c] {
					la := s.tuples[c][ti][arc.myPort]
					supported := false
					for _, tj := range domains[arc.other] {
						if s.rel[la][s.tuples[arc.other][tj][arc.otherPort]] {
							supported = true
							break
						}
					}
					if supported {
						kept = append(kept, ti)
					} else {
						changed = true
					}
				}
				domains[c] = kept
				if len(kept) == 0 {
					return false
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// solve runs the branch-parallel backtracking search and returns the
// deterministic (lowest-branch) satisfying assignment, or nil.
func (s *searcher) solve(domains [][]int, workers int) ([]int, error) {
	n := len(domains)
	assigned := make([]int, n)
	for i := range assigned {
		assigned[i] = -1
	}
	first := mrv(domains, assigned)
	if first < 0 {
		return assigned, nil // no variables at all
	}
	branches := domains[first]
	w := par.WorkerCount(workers, len(branches))
	if w <= 1 {
		cancel := func() bool { return false }
		for _, ti := range branches {
			got, err := s.tryBranch(domains, first, ti, cancel)
			if err != nil || got != nil {
				return got, err
			}
		}
		return nil, nil
	}

	// Parallel branches: every branch is searched deterministically;
	// the lowest successful branch index wins, and branches above a
	// known success are cancelled. Budget exhaustion anywhere aborts
	// the whole decision with ErrSearchBudget — even if some branch
	// already succeeded — because cancellation may then have stopped a
	// lower branch whose witness the sequential order would report.
	results := make([][]int, len(branches))
	errs := make([]error, len(branches))
	var best atomic.Int64
	best.Store(int64(len(branches)))
	var budgetBlown atomic.Bool
	par.RunIndexed(w, len(branches), func(bi int) {
		if int64(bi) > best.Load() || budgetBlown.Load() {
			return
		}
		cancel := func() bool { return best.Load() < int64(bi) || budgetBlown.Load() }
		got, err := s.tryBranch(domains, first, branches[bi], cancel)
		if err != nil {
			errs[bi] = err
			if errors.Is(err, ErrSearchBudget) {
				budgetBlown.Store(true)
			}
			return
		}
		if got != nil {
			results[bi] = got
			// CAS-min.
			for {
				cur := best.Load()
				if int64(bi) >= cur || best.CompareAndSwap(cur, int64(bi)) {
					break
				}
			}
		}
	})
	if budgetBlown.Load() {
		return nil, fmt.Errorf("oracle: search aborted: %w", ErrSearchBudget)
	}
	if b := best.Load(); int(b) < len(branches) {
		// A success wins only if every lower branch ran to completion —
		// guaranteed here: branches are cancelled only above a success
		// or on budget exhaustion, which returned above.
		for bi := 0; bi < int(b); bi++ {
			if errs[bi] != nil {
				return nil, errs[bi]
			}
		}
		return results[int(b)], nil
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// tryBranch assigns class first := tuple ti on a private copy of the
// domains and completes the search sequentially.
func (s *searcher) tryBranch(domains [][]int, first, ti int, cancel func() bool) ([]int, error) {
	local := make([][]int, len(domains))
	for i := range domains {
		local[i] = append([]int(nil), domains[i]...)
	}
	local[first] = []int{ti}
	assigned := make([]int, len(domains))
	for i := range assigned {
		assigned[i] = -1
	}
	if !s.budget.Take() {
		return nil, fmt.Errorf("oracle: search aborted: %w", ErrSearchBudget)
	}
	if !s.forwardCheck(local, first, ti, nil) {
		return nil, nil
	}
	assigned[first] = ti
	return s.rec(local, assigned, 1, cancel)
}

// rec is the sequential backtracking core: MRV variable order, value
// order ascending, forward checking against binary arcs.
func (s *searcher) rec(domains [][]int, assigned []int, count int, cancel func() bool) ([]int, error) {
	if cancel() {
		return nil, nil
	}
	if count == len(domains) {
		out := append([]int(nil), assigned...)
		return out, nil
	}
	v := mrv(domains, assigned)
	saved := map[int][]int{}
	for _, ti := range domains[v] {
		if cancel() {
			return nil, nil
		}
		if !s.budget.Take() {
			return nil, fmt.Errorf("oracle: search aborted: %w", ErrSearchBudget)
		}
		if s.forwardCheck(domains, v, ti, saved) {
			assigned[v] = ti
			got, err := s.rec(domains, assigned, count+1, cancel)
			if err != nil || got != nil {
				return got, err
			}
			assigned[v] = -1
		}
		for c, old := range saved {
			domains[c] = old
			delete(saved, c)
		}
	}
	return nil, nil
}

// forwardCheck prunes the domains of v's unassigned neighbors down to
// tuples compatible with assigning tuple ti at v. It reports false
// (leaving any partial pruning recorded in saved for the caller to
// undo) when a neighbor's domain empties. When saved is nil the caller
// promises v is the first assignment and pruning is applied in place.
func (s *searcher) forwardCheck(domains [][]int, v, ti int, saved map[int][]int) bool {
	tup := s.tuples[v][ti]
	for _, arc := range s.neigh[v] {
		la := tup[arc.myPort]
		kept := make([]int, 0, len(domains[arc.other]))
		for _, tj := range domains[arc.other] {
			if s.rel[la][s.tuples[arc.other][tj][arc.otherPort]] {
				kept = append(kept, tj)
			}
		}
		if len(kept) < len(domains[arc.other]) {
			if saved != nil {
				if _, dup := saved[arc.other]; !dup {
					saved[arc.other] = domains[arc.other]
				}
			}
			domains[arc.other] = kept
		}
		if len(kept) == 0 {
			return false
		}
	}
	return true
}

// mrv returns the unassigned variable with the smallest domain, lowest
// index on ties; -1 when everything is assigned.
func mrv(domains [][]int, assigned []int) int {
	best, bestSize := -1, 1<<62
	for c := range domains {
		if assigned[c] == -1 && len(domains[c]) < bestSize {
			best, bestSize = c, len(domains[c])
		}
	}
	return best
}

// checkWitness validates a satisfying assignment against every
// instance: node constraint at every Δ-degree node (all nodes unless
// relaxed), edge constraint on every edge.
func checkWitness(p *core.Problem, insts []Instance, allKeys [][]intern.Handle, classOf []int, classTuples [][][]core.Label, assignment []int, relaxed bool) error {
	delta := p.Delta()
	for ii, inst := range insts {
		labelsAt := func(v int) []core.Label {
			c := classOf[allKeys[ii][v]]
			return classTuples[c][assignment[c]]
		}
		for v := 0; v < inst.G.N(); v++ {
			if inst.G.Degree(v) != delta {
				if !relaxed {
					return fmt.Errorf("instance %s: node %d has degree %d", inst.Name, v, inst.G.Degree(v))
				}
				continue
			}
			if !p.Node.Contains(core.NewConfig(labelsAt(v)...)) {
				return fmt.Errorf("instance %s: node %d violates node constraint", inst.Name, v)
			}
		}
		for id := 0; id < inst.G.M(); id++ {
			u, v, pu, pv := inst.G.EdgeEndpoints(id)
			if !p.Edge.Contains(core.NewConfig(labelsAt(u)[pu], labelsAt(v)[pv])) {
				return fmt.Errorf("instance %s: edge (%d,%d) violates edge constraint", inst.Name, u, v)
			}
		}
	}
	return nil
}

// sortTuples orders tuples lexicographically so domain value order —
// and with it the reported witness — is canonical.
func sortTuples(tuples [][]core.Label) {
	sort.Slice(tuples, func(i, j int) bool {
		a, b := tuples[i], tuples[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
