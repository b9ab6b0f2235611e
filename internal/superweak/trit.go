// Package superweak implements the Section 5 pipeline of Brandt (PODC
// 2019): the superweak k-coloring generalization of weak 2-coloring, the
// trit-sequence description of its derived problem Π'_{1/2}, the
// structural Lemma 1 (dominant element P∞), the Hall-theorem-based Lemma 2
// (the index set J* with |J*| > |N(J*)|), the Lemma 3 relaxation of Π'_1
// to superweak k'-coloring, and the Theorem 4 step counting that yields
// the Ω(log* Δ) lower bound for odd-degree weak 2-coloring.
package superweak

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/core"
)

// Trit values: position c of a trit sequence encodes which of the outputs
// {(c,>), (c,<), (c,.)} a half-step label set contains for color c:
// 0 ↦ {(c,<)}, 1 ↦ {(c,<), (c,.)}, 2 ↦ {(c,>), (c,<), (c,.)}
// (Section 5.1, "An Equivalent Description").
type Trit uint8

// TritSeq is a trit sequence of length k: one label of the derived problem
// Π'_{1/2} of superweak k-coloring.
type TritSeq []Trit

// String renders the sequence as digits, e.g. "21".
func (t TritSeq) String() string {
	var sb strings.Builder
	for _, v := range t {
		sb.WriteByte('0' + byte(v))
	}
	return sb.String()
}

// AllTritSeqs enumerates all 3^k trit sequences of length k in
// lexicographic order.
func AllTritSeqs(k int) []TritSeq {
	total := 1
	for i := 0; i < k; i++ {
		total *= 3
	}
	out := make([]TritSeq, total)
	for idx := 0; idx < total; idx++ {
		seq := make(TritSeq, k)
		v := idx
		for pos := k - 1; pos >= 0; pos-- {
			seq[pos] = Trit(v % 3)
			v /= 3
		}
		out[idx] = seq
	}
	return out
}

// Index returns the lexicographic index of the sequence (the inverse of
// AllTritSeqs ordering).
func (t TritSeq) Index() int {
	idx := 0
	for _, v := range t {
		idx = idx*3 + int(v)
	}
	return idx
}

// SumsToTwo reports whether the tritwise sum of t and u is 22...2 — the
// edge constraint of the trit description.
func (t TritSeq) SumsToTwo(u TritSeq) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i]+u[i] != 2 {
			return false
		}
	}
	return true
}

// AllOnes returns the sequence 11...1 of length k.
func AllOnes(k int) TritSeq {
	seq := make(TritSeq, k)
	for i := range seq {
		seq[i] = 1
	}
	return seq
}

// NodeOK reports whether a multiset of trit sequences (given as counts
// parallel to seqs) satisfies the node condition of the trit description:
// some index j ∈ {1..k} has strictly more sequences with a 2 at j than
// with a 0 at j, and at most k sequences with a 0 at j.
func NodeOK(k int, seqs []TritSeq, counts []int) bool {
	for j := 0; j < k; j++ {
		zeros, twos := 0, 0
		for i, seq := range seqs {
			switch seq[j] {
			case 0:
				zeros += counts[i]
			case 2:
				twos += counts[i]
			}
		}
		if twos > zeros && zeros <= k {
			return true
		}
	}
	return false
}

// TritHalfProblem builds the explicit trit-sequence form of the derived
// problem Π'_{1/2} of superweak k-coloring at degree Δ (Section 5.1,
// "An Equivalent Description"): labels are all 3^k trit sequences, edge
// configurations are the pairs summing tritwise to 22...2, and node
// configurations are the Δ-multisets passing NodeOK. The result is
// compressed (sequences unusable in any correct solution are dropped).
//
// Explicit enumeration of the node constraint is feasible for small k and
// Δ; it is the reference object the engine's HalfStep output is verified
// against (Experiment E4).
func TritHalfProblem(k, delta int) (*core.Problem, error) {
	if k < 2 {
		return nil, fmt.Errorf("superweak: need k >= 2, got %d", k)
	}
	seqs := AllTritSeqs(k)
	if len(seqs) > 64 {
		return nil, fmt.Errorf("superweak: explicit trit problem infeasible for k = %d", k)
	}
	names := make([]string, len(seqs))
	for i, s := range seqs {
		names[i] = s.String()
	}
	alpha, err := core.NewAlphabet(names...)
	if err != nil {
		return nil, err
	}
	edge := core.NewConstraint(2)
	for i, s := range seqs {
		for j := i; j < len(seqs); j++ {
			if s.SumsToTwo(seqs[j]) {
				edge.MustAdd(core.NewConfig(core.Label(i), core.Label(j)))
			}
		}
	}
	node := core.NewConstraint(delta)
	counts := make([]int, len(seqs))
	sel := []int{}
	var rec func(start, remaining int) error
	rec = func(start, remaining int) error {
		if remaining == 0 {
			if NodeOK(k, seqs, counts) {
				m := make(map[core.Label]int)
				for _, i := range sel {
					m[core.Label(i)]++
				}
				cfg, err := core.NewConfigCounts(m)
				if err != nil {
					return err
				}
				return node.Add(cfg)
			}
			return nil
		}
		for i := start; i < len(seqs); i++ {
			counts[i]++
			sel = append(sel, i)
			if err := rec(i, remaining-1); err != nil {
				return err
			}
			sel = sel[:len(sel)-1]
			counts[i]--
		}
		return nil
	}
	if err := rec(0, delta); err != nil {
		return nil, err
	}
	p, err := core.NewProblem(alpha, edge, node)
	if err != nil {
		return nil, err
	}
	return p.Compress(), nil
}

// ProvenanceToTrit converts a half-step label of the engine (its
// provenance: a set of original superweak labels, as produced by
// core.HalfStep on problems.Superweak(k, Δ)) to the corresponding trit
// sequence, or reports false if the set is not of the paper's canonical
// form.
//
// The original alphabet of problems.Superweak lists, for each color c
// (1-based), the labels (c,>), (c,<), (c,.) at indices 3(c-1)+{0,1,2}.
func ProvenanceToTrit(k int, prov bitset.Set) (TritSeq, bool) {
	if prov.Len() != 3*k {
		return nil, false
	}
	seq := make(TritSeq, k)
	for c := 0; c < k; c++ {
		demanding := prov.Contains(3 * c)
		accepting := prov.Contains(3*c + 1)
		plain := prov.Contains(3*c + 2)
		switch {
		case accepting && !plain && !demanding:
			seq[c] = 0
		case accepting && plain && !demanding:
			seq[c] = 1
		case accepting && plain && demanding:
			seq[c] = 2
		default:
			return nil, false
		}
	}
	return seq, true
}
