package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Config is a multiset of labels — one "configuration" of outputs, either
// on the two endpoints of an edge (arity 2) or on the Δ ports of a node
// (arity Δ). It is stored as a sparse multiplicity vector so that large
// arities (the paper's Δ can be in the hundreds in Section 5) stay cheap.
//
// Configs are immutable after construction.
type Config struct {
	arity int
	pairs []labelCount // sorted by label, counts > 0
}

type labelCount struct {
	label Label
	count int
}

// NewConfig builds a config from an explicit list of labels (with
// repetition). The arity is len(labels).
func NewConfig(labels ...Label) Config {
	counts := make(map[Label]int, len(labels))
	for _, l := range labels {
		counts[l]++
	}
	return configFromCounts(counts, len(labels))
}

// NewConfigCounts builds a config from label → multiplicity. Zero and
// negative multiplicities are rejected.
func NewConfigCounts(counts map[Label]int) (Config, error) {
	arity := 0
	for l, c := range counts {
		if c <= 0 {
			return Config{}, fmt.Errorf("core: non-positive multiplicity %d for label %d", c, l)
		}
		arity += c
	}
	return configFromCounts(counts, arity), nil
}

func configFromCounts(counts map[Label]int, arity int) Config {
	pairs := make([]labelCount, 0, len(counts))
	for l, c := range counts {
		if c > 0 {
			pairs = append(pairs, labelCount{label: l, count: c})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].label < pairs[j].label })
	return Config{arity: arity, pairs: pairs}
}

// Arity returns the total number of (label) slots in the config.
func (c Config) Arity() int { return c.arity }

// Multiplicity returns how many times label l occurs.
func (c Config) Multiplicity(l Label) int {
	i := sort.Search(len(c.pairs), func(i int) bool { return c.pairs[i].label >= l })
	if i < len(c.pairs) && c.pairs[i].label == l {
		return c.pairs[i].count
	}
	return 0
}

// Support returns the distinct labels occurring in the config, in
// increasing order.
func (c Config) Support() []Label {
	out := make([]Label, len(c.pairs))
	for i, p := range c.pairs {
		out[i] = p.label
	}
	return out
}

// Expand returns the config as a sorted slice of labels with repetition
// (length Arity()).
func (c Config) Expand() []Label {
	out := make([]Label, 0, c.arity)
	for _, p := range c.pairs {
		for i := 0; i < p.count; i++ {
			out = append(out, p.label)
		}
	}
	return out
}

// ForEach calls fn for every (label, multiplicity) pair in increasing label
// order.
func (c Config) ForEach(fn func(l Label, count int)) {
	for _, p := range c.pairs {
		fn(p.label, p.count)
	}
}

// Key returns a canonical string key: equal configs have equal keys.
// It is a debugging/display helper; the engine's hot paths identify
// configs by interned handles of appendWords instead.
func (c Config) Key() string {
	var sb strings.Builder
	for _, p := range c.pairs {
		sb.WriteString(strconv.Itoa(int(p.label)))
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(p.count))
		sb.WriteByte(',')
	}
	return sb.String()
}

// appendWords appends the canonical word encoding of the config — one
// word per (label, multiplicity) pair, label in the high half — to
// dst. Equal configs produce equal sequences, and the pair list is
// sorted by label, so the encoding is a hash-consable identity.
func (c Config) appendWords(dst []uint64) []uint64 {
	for _, p := range c.pairs {
		dst = append(dst, uint64(uint32(p.label))<<32|uint64(uint32(p.count)))
	}
	return dst
}

// compare orders configs by their (label, multiplicity) pair sequence
// — the handle-stable canonical order used by Configs(). It is a total
// order on configs of equal arity (and arbitrary configs: shorter
// prefixes sort first).
func (c Config) compare(d Config) int {
	for i, p := range c.pairs {
		if i >= len(d.pairs) {
			return 1
		}
		q := d.pairs[i]
		switch {
		case p.label != q.label:
			if p.label < q.label {
				return -1
			}
			return 1
		case p.count != q.count:
			if p.count < q.count {
				return -1
			}
			return 1
		}
	}
	if len(c.pairs) < len(d.pairs) {
		return -1
	}
	return 0
}

// Equal reports whether two configs are the same multiset.
func (c Config) Equal(d Config) bool {
	if c.arity != d.arity || len(c.pairs) != len(d.pairs) {
		return false
	}
	for i, p := range c.pairs {
		if d.pairs[i] != p {
			return false
		}
	}
	return true
}

// WithoutLabel returns a new config with one occurrence of l removed; it
// panics if l does not occur.
func (c Config) WithoutLabel(l Label) Config {
	counts := c.countsMap()
	if counts[l] == 0 {
		panic("core: WithoutLabel: label not present")
	}
	counts[l]--
	if counts[l] == 0 {
		delete(counts, l)
	}
	return configFromCounts(counts, c.arity-1)
}

func (c Config) countsMap() map[Label]int {
	m := make(map[Label]int, len(c.pairs))
	for _, p := range c.pairs {
		m[p.label] = p.count
	}
	return m
}

// Remap returns the config with every label replaced through the map; all
// support labels must be present in the map. Distinct labels may map to the
// same target (multiplicities add up).
func (c Config) Remap(m map[Label]Label) (Config, error) {
	counts := make(map[Label]int, len(c.pairs))
	for _, p := range c.pairs {
		nl, ok := m[p.label]
		if !ok {
			return Config{}, fmt.Errorf("core: remap: no image for label %d", p.label)
		}
		counts[nl] += p.count
	}
	return configFromCounts(counts, c.arity), nil
}

// String renders the config with the paper's multiplicity shorthand, e.g.
// "A^3 B" (names resolved through a).
func (c Config) String(a *Alphabet) string {
	parts := make([]string, 0, len(c.pairs))
	for _, p := range c.pairs {
		if p.count == 1 {
			parts = append(parts, a.Name(p.label))
		} else {
			parts = append(parts, fmt.Sprintf("%s^%d", a.Name(p.label), p.count))
		}
	}
	return strings.Join(parts, " ")
}
