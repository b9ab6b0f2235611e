package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/intern"
)

// Constraint is a set of allowed configurations of a fixed arity: the
// paper's g(Δ) (arity 2) or h(Δ) (arity Δ).
//
// Configurations are identified by hash-consed handles of their packed
// (label, multiplicity) word encoding — membership and deduplication
// never materialize strings. Copies of a Constraint share storage, as
// the earlier map-backed representation did.
type Constraint struct {
	arity int
	rep   *constraintRep
}

type constraintRep struct {
	tab     *intern.Table
	configs []Config // indexed by intern.Handle

	mu     sync.Mutex
	sorted []Config // canonical-order cache; nil when stale
}

// NewConstraint returns an empty constraint of the given arity.
func NewConstraint(arity int) Constraint {
	if arity < 1 {
		panic("core: constraint arity must be positive")
	}
	return Constraint{arity: arity, rep: &constraintRep{tab: intern.NewTable(0)}}
}

// Arity returns the configuration arity.
func (c Constraint) Arity() int { return c.arity }

// Size returns the number of configurations.
func (c Constraint) Size() int {
	if c.rep == nil {
		return 0
	}
	return len(c.rep.configs)
}

// Add inserts a configuration; it is an error if the arity differs.
//
// Add is single-writer: the handle-indexed configs slice relies on
// insertions arriving in handle order, so Add must not run concurrently
// with itself or with readers of the same constraint. (The parallel
// lifting paths respect this by accumulating into per-worker constraints
// and merging sequentially.) Once building is done, concurrent readers —
// Contains, Configs, Size — are safe; the mutex below only guards the
// lazily built sorted cache shared by those readers.
func (c Constraint) Add(cfg Config) error {
	if cfg.Arity() != c.arity {
		return fmt.Errorf("core: config arity %d does not match constraint arity %d", cfg.Arity(), c.arity)
	}
	var buf [16]uint64
	h := c.rep.tab.Intern(cfg.appendWords(buf[:0]))
	if int(h) == len(c.rep.configs) {
		c.rep.configs = append(c.rep.configs, cfg)
		c.rep.mu.Lock()
		c.rep.sorted = nil
		c.rep.mu.Unlock()
	}
	return nil
}

// MustAdd is Add but panics on error; for literals in tests and catalogs.
func (c Constraint) MustAdd(cfg Config) {
	if err := c.Add(cfg); err != nil {
		panic(err)
	}
}

// Contains reports whether the configuration is allowed. It never
// inserts, so concurrent readers are safe.
func (c Constraint) Contains(cfg Config) bool {
	if c.rep == nil {
		return false
	}
	var buf [16]uint64
	_, ok := c.rep.tab.Lookup(cfg.appendWords(buf[:0]))
	return ok
}

// ContainsLabels reports whether the multiset of the given labels is
// allowed.
func (c Constraint) ContainsLabels(labels ...Label) bool {
	return c.Contains(NewConfig(labels...))
}

// Configs returns all configurations in a deterministic order: the
// handle-stable canonical sort by (label, multiplicity) sequence. The
// order is cached until the next Add.
func (c Constraint) Configs() []Config {
	if c.rep == nil {
		return nil
	}
	c.rep.mu.Lock()
	defer c.rep.mu.Unlock()
	if c.rep.sorted == nil {
		sorted := append([]Config(nil), c.rep.configs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].compare(sorted[j]) < 0 })
		c.rep.sorted = sorted
	}
	return c.rep.sorted
}

// Clone returns an independent copy.
func (c Constraint) Clone() Constraint {
	n := Constraint{arity: c.arity, rep: &constraintRep{
		tab:     c.rep.tab.Clone(),
		configs: append([]Config(nil), c.rep.configs...),
	}}
	return n
}

// UsedLabels returns the set of labels occurring in at least one
// configuration, as a bitset over an alphabet of the given size.
func (c Constraint) UsedLabels(alphabetSize int) bitset.Set {
	s := bitset.New(alphabetSize)
	if c.rep == nil {
		return s
	}
	for _, cfg := range c.rep.configs {
		for _, p := range cfg.pairs {
			s.Add(int(p.label))
		}
	}
	return s
}

// Restrict returns the constraint containing only configurations whose
// support lies in keep, with labels renumbered through remap.
func (c Constraint) Restrict(keep bitset.Set, remap map[Label]Label) Constraint {
	n := NewConstraint(c.arity)
	for _, cfg := range c.rep.configs {
		ok := true
		for _, p := range cfg.pairs {
			if !keep.Contains(int(p.label)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		mapped, err := cfg.Remap(remap)
		if err != nil {
			panic(fmt.Sprintf("core: restrict: %v", err))
		}
		n.MustAdd(mapped)
	}
	return n
}

// Remap returns the constraint with every configuration remapped; distinct
// configurations may collapse.
func (c Constraint) Remap(m map[Label]Label) (Constraint, error) {
	n := NewConstraint(c.arity)
	for _, cfg := range c.rep.configs {
		mapped, err := cfg.Remap(m)
		if err != nil {
			return Constraint{}, err
		}
		n.MustAdd(mapped)
	}
	return n, nil
}

// Equal reports whether two constraints allow exactly the same
// configurations.
func (c Constraint) Equal(d Constraint) bool {
	if c.arity != d.arity || c.Size() != d.Size() {
		return false
	}
	if c.rep == nil {
		return true
	}
	for _, cfg := range c.rep.configs {
		if !d.Contains(cfg) {
			return false
		}
	}
	return true
}

// edgeRelation precomputes, for an arity-2 constraint over an alphabet of
// size n, the symmetric relation rel[y][z] = ({y,z} ∈ g) and per-label
// neighbor bitsets.
type edgeRelation struct {
	n         int
	neighbors []bitset.Set
}

func newEdgeRelation(g Constraint, alphabetSize int) edgeRelation {
	if g.Arity() != 2 {
		panic("core: edge relation requires arity-2 constraint")
	}
	r := edgeRelation{n: alphabetSize, neighbors: make([]bitset.Set, alphabetSize)}
	for i := range r.neighbors {
		r.neighbors[i] = bitset.New(alphabetSize)
	}
	for _, cfg := range g.rep.configs {
		labels := cfg.Expand()
		y, z := labels[0], labels[1]
		r.neighbors[y].Add(int(z))
		r.neighbors[z].Add(int(y))
	}
	return r
}

// compatible reports whether {y,z} ∈ g.
func (r edgeRelation) compatible(y, z Label) bool {
	return r.neighbors[y].Contains(int(z))
}

// comp returns comp(S) = {y : ∀z ∈ S, {y,z} ∈ g}: the largest set every
// element of which is edge-compatible with every element of S. comp(∅) is
// the full alphabet.
func (r edgeRelation) comp(s bitset.Set) bitset.Set {
	out := bitset.Full(r.n)
	r.compInto(s, out)
	return out
}

// compInto computes comp(s) into dst without allocating; dst must share
// the relation's universe (any prior contents are overwritten).
func (r edgeRelation) compInto(s, dst bitset.Set) {
	dst.FillInPlace()
	s.ForEach(func(z int) bool {
		dst.IntersectInPlace(r.neighbors[z])
		return true
	})
}
