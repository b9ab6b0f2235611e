package core

import (
	"sort"

	"repro/internal/intern"
)

// Isomorphic reports whether p and q are the same problem up to a renaming
// of labels, returning a witnessing bijection when they are. This is the
// fixed-point test of the lower-bound recipe: in Section 4.4 the paper
// shows Π_1 = Π for sinkless coloring, which (with Theorem 2) yields the
// Ω(log n) lower bound.
//
// The search is a backtracking bijection search pruned by label
// invariants (multiplicity profiles in both constraints), which keeps it
// instantaneous for the alphabet sizes arising in practice.
func Isomorphic(p, q *Problem) (LabelMap, bool) {
	if p.Alpha.Size() != q.Alpha.Size() ||
		p.Delta() != q.Delta() ||
		p.Edge.Size() != q.Edge.Size() ||
		p.Node.Size() != q.Node.Size() {
		return nil, false
	}
	n := p.Alpha.Size()

	// Signatures of both problems are interned in one shared arena, so
	// equal handles mean equal signatures.
	f := NewFingerprinter()
	sigP, _ := f.labelSignatures(p, internSeq)
	sigQ, _ := f.labelSignatures(q, internSeq)

	// Candidate targets per source label: equal signatures only.
	cand := make([][]Label, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if sigP[i] == sigQ[j] {
				cand[i] = append(cand[i], Label(j))
			}
		}
		if len(cand[i]) == 0 {
			return nil, false
		}
	}

	// Assign the most constrained labels first.
	order := make([]Label, n)
	for i := range order {
		order[i] = Label(i)
	}
	sort.Slice(order, func(i, j int) bool { return len(cand[order[i]]) < len(cand[order[j]]) })

	pos := make([]int, n)
	for i, l := range order {
		pos[l] = i
	}

	// Forward checking: verify each configuration of p as soon as its
	// support is fully assigned (indexed by the assignment step at which
	// that happens). Without this, highly symmetric problems (e.g. the
	// k-coloring derivations of Section 4.5) explode factorially.
	type check struct {
		cfg  Config
		edge bool
	}
	checksAt := make([][]check, n)
	addChecks := func(c Constraint, isEdge bool) {
		for _, cfg := range c.Configs() {
			last := 0
			for _, l := range cfg.Support() {
				if pos[l] > last {
					last = pos[l]
				}
			}
			checksAt[last] = append(checksAt[last], check{cfg: cfg, edge: isEdge})
		}
	}
	addChecks(p.Edge, true)
	addChecks(p.Node, false)

	assignment := make(LabelMap, n)
	used := make([]bool, n)
	var rec func(step int) bool
	rec = func(step int) bool {
		if step == n {
			// All configurations already verified incrementally; the
			// counts match, so the map is a bijection onto q's configs.
			return true
		}
		l := order[step]
		for _, img := range cand[l] {
			if used[img] {
				continue
			}
			assignment[l] = img
			used[img] = true
			ok := true
			for _, ch := range checksAt[step] {
				mapped, err := ch.cfg.Remap(assignment)
				if err != nil {
					ok = false
					break
				}
				target := q.Node
				if ch.edge {
					target = q.Edge
				}
				if !target.Contains(mapped) {
					ok = false
					break
				}
			}
			if ok && rec(step+1) {
				return true
			}
			used[img] = false
			delete(assignment, l)
		}
		return false
	}
	if rec(0) {
		return assignment, true
	}
	return nil, false
}

// Fingerprint identifies an iso-invariant fingerprint within one
// Fingerprinter: two problems fingerprinted by the same Fingerprinter
// receive equal handles iff their description sizes and per-label
// signature multisets agree. A cheap necessary condition — distinct
// fingerprints prove non-isomorphism, equal fingerprints must be
// confirmed with Isomorphic — which makes it the right hash-bucket key
// for memoizing problems up to renaming (as the fixpoint driver does).
type Fingerprint = intern.Handle

// Fingerprinter hash-conses renaming-invariant fingerprints. All
// problems to be compared must pass through the same Fingerprinter;
// handles from different instances are unrelated. The arenas replace
// the engine's former string fingerprints (IsoInvariantKey) — no
// string is materialized anywhere on the memo path.
type Fingerprinter struct {
	profiles *intern.Table // sorted multiplicity vectors of configurations
	sigs     *intern.Table // per-label participation code sequences
	fps      *intern.Table // whole-problem fingerprints
}

// NewFingerprinter returns an empty fingerprint arena.
func NewFingerprinter() *Fingerprinter {
	return &Fingerprinter{
		profiles: intern.NewTable(0),
		sigs:     intern.NewTable(0),
		fps:      intern.NewTable(0),
	}
}

// Reset empties the fingerprint arenas in place, keeping their backing
// storage, so a pooled Fingerprinter can be reused across runs. Every
// previously returned Fingerprint is invalidated: fingerprints are only
// comparable within one Reset epoch.
func (f *Fingerprinter) Reset() {
	f.profiles.Reset()
	f.sigs.Reset()
	f.fps.Reset()
}

// Fingerprint returns the interned fingerprint of p: description sizes
// plus the sorted multiset of per-label signature handles.
func (f *Fingerprinter) Fingerprint(p *Problem) Fingerprint {
	h, _ := f.fingerprint(p, internSeq)
	return h
}

// Lookup returns the fingerprint of p if f has already issued it —
// for p or for any problem with the same fingerprint, such as a
// renamed copy of p — without interning anything: a miss leaves every
// arena unchanged. Memos that probe with Lookup and intern only on
// store therefore grow their arenas with their entries alone.
func (f *Fingerprinter) Lookup(p *Problem) (Fingerprint, bool) {
	return f.fingerprint(p, (*intern.Table).Lookup)
}

// tableOp resolves a word sequence to its handle in one arena:
// internSeq inserts on a miss, (*intern.Table).Lookup does not.
type tableOp func(t *intern.Table, seq []uint64) (intern.Handle, bool)

// internSeq is the inserting tableOp.
func internSeq(t *intern.Table, seq []uint64) (intern.Handle, bool) {
	return t.Intern(seq), true
}

// fingerprint computes p's fingerprint, resolving every sequence
// through op; it reports false as soon as op finds one missing.
func (f *Fingerprinter) fingerprint(p *Problem, op tableOp) (Fingerprint, bool) {
	sigs, ok := f.labelSignatures(p, op)
	if !ok {
		return 0, false
	}
	words := make([]uint64, 0, len(sigs)+4)
	words = append(words,
		uint64(p.Alpha.Size()), uint64(p.Delta()),
		uint64(p.Edge.Size()), uint64(p.Node.Size()))
	codes := make([]uint64, len(sigs))
	for i, h := range sigs {
		codes[i] = uint64(h)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	return op(f.fps, append(words, codes...))
}

// labelSignatures computes a renaming-invariant fingerprint per label —
// the sorted list of (constraint tag, multiplicity profile,
// own-multiplicity) participations — resolved through op to one handle
// per label. It reports false as soon as op finds a profile or a
// signature missing (every configuration has a non-empty support, so
// each profile enters some signature).
func (f *Fingerprinter) labelSignatures(p *Problem, op tableOp) ([]intern.Handle, bool) {
	n := p.Alpha.Size()
	codes := make([][]uint64, n)
	var profBuf []uint64
	collect := func(c Constraint, tag uint64) bool {
		for _, cfg := range c.Configs() {
			// Profile: sorted multiplicities of the configuration.
			profBuf = profBuf[:0]
			cfg.ForEach(func(_ Label, count int) { profBuf = append(profBuf, uint64(count)) })
			sort.Slice(profBuf, func(i, j int) bool { return profBuf[i] < profBuf[j] })
			prof, ok := op(f.profiles, profBuf)
			if !ok {
				return false
			}
			cfg.ForEach(func(l Label, count int) {
				codes[l] = append(codes[l], uint64(prof)<<32|uint64(count)<<1|tag)
			})
		}
		return true
	}
	if !collect(p.Edge, 0) || !collect(p.Node, 1) {
		return nil, false
	}
	out := make([]intern.Handle, n)
	for i := range codes {
		sort.Slice(codes[i], func(a, b int) bool { return codes[i][a] < codes[i][b] })
		h, ok := op(f.sigs, codes[i])
		if !ok {
			return nil, false
		}
		out[i] = h
	}
	return out, true
}
