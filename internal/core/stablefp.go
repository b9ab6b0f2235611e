package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// FingerprintVersion is the version tag hashed into every StableKey.
// It must be bumped whenever the canonical serialization produced by
// CanonicalBytes, the semantics of the speedup transformation, or
// anything else that makes previously persisted results stale changes.
// Bumping it changes every key, which orphans (never corrupts) the old
// records of a persistent store — this is the store's whole
// cache-invalidation rule.
const FingerprintVersion = 1

// StableFingerprint is a cross-process, cross-version-stable identity
// of an exact problem representation: the SHA-256 of the problem's
// canonical serialization, salted with FingerprintVersion.
//
// It complements Fingerprint: a Fingerprint is an arena-local handle
// that is invariant under label renaming (two isomorphic problems can
// share one), cheap, and meaningless outside its Fingerprinter. A
// StableFingerprint is the opposite trade — globally meaningful bytes,
// sensitive to the exact label names and numbering, equal exactly when
// CanonicalBytes are equal. Content-addressed persistent stores key by
// StableFingerprint; in-memory memo tables key by Fingerprint.
type StableFingerprint [32]byte

// String renders the fingerprint as lowercase hex, the form used in
// on-disk object names.
func (f StableFingerprint) String() string {
	return hex.EncodeToString(f[:])
}

// StableKey returns the stable fingerprint of p's exact representation.
// Two problems receive equal keys iff their CanonicalBytes are equal
// (same label names in the same label order, same constraint sets, same
// Δ) and both keys were produced at the same FingerprintVersion.
//
// Because Speedup, RenameCompact and Compress are deterministic
// functions of this exact representation, StableKey is a sound
// memoization key for their results: equal keys guarantee byte-identical
// derived problems.
func StableKey(p *Problem) StableFingerprint {
	return StableKeyOf(p.CanonicalBytes())
}

// StableKeyOf returns the stable fingerprint of a problem given its
// CanonicalBytes: StableKeyOf(p.CanonicalBytes()) == StableKey(p).
// Callers that need the serialization anyway pass it here instead of
// serializing the problem twice.
func StableKeyOf(canonical []byte) StableFingerprint {
	h := sha256.New()
	fmt.Fprintf(h, "repro-stable-fp v%d\x00", FingerprintVersion)
	h.Write(canonical)
	var out StableFingerprint
	h.Sum(out[:0])
	return out
}

// canonicalHeader opens every canonical serialization; its version is
// part of FingerprintVersion's remit (bump both together).
const canonicalHeader = "repro-problem v1"

// CanonicalBytes serializes the problem exactly and deterministically:
// equal outputs iff Equal problems (same names in the same label order,
// same constraint sets). Unlike String/Parse — which infer the alphabet
// from the configuration lines and therefore cannot represent unused
// labels, empty constraints, or a specific label numbering — the
// canonical form carries the alphabet and Δ explicitly, so
// ParseCanonical(p.CanonicalBytes()) reconstructs p exactly (modulo
// display provenance, which is not part of a problem's identity).
//
// The layout is line-oriented and human-readable:
//
//	repro-problem v1
//	delta: 3
//	alphabet: A B C
//	node: 1
//	A^2 B
//	edge: 2
//	A A
//	A B
//
// Label names appear in label order (names cannot contain whitespace,
// '^' or '#', so space-joining is unambiguous); configuration lines use
// the "name^k" shorthand with parts in label order and follow the
// deterministic canonical order of Constraint.Configs. Section headers
// carry explicit configuration counts so empty constraints parse
// unambiguously.
func (p *Problem) CanonicalBytes() []byte {
	var sb strings.Builder
	sb.WriteString(canonicalHeader)
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "delta: %d\n", p.Delta())
	sb.WriteString("alphabet:")
	for _, name := range p.Alpha.Names() {
		sb.WriteByte(' ')
		sb.WriteString(name)
	}
	sb.WriteByte('\n')
	writeSection := func(name string, c Constraint) {
		fmt.Fprintf(&sb, "%s: %d\n", name, c.Size())
		for _, cfg := range c.Configs() {
			sb.WriteString(cfg.String(p.Alpha))
			sb.WriteByte('\n')
		}
	}
	writeSection("node", p.Node)
	writeSection("edge", p.Edge)
	return []byte(sb.String())
}

// ParseAuto parses a problem in either supported text form, sniffing
// the first line: input opening with the canonical header goes through
// ParseCanonical (strict, representation-exact), anything else through
// Parse (the human-facing inferred-alphabet format). It exists so that
// interfaces accepting problems — the HTTP service, file-reading
// commands — can consume their own canonical output: every service
// response carries problems as CanonicalBytes, and feeding one back
// yields the exact same representation, hence the exact same StableKey.
func ParseAuto(text string) (*Problem, error) {
	trimmed := strings.TrimLeft(text, "\n")
	if first, _, _ := strings.Cut(trimmed, "\n"); first == canonicalHeader {
		return ParseCanonical([]byte(trimmed))
	}
	return Parse(text)
}

// ParseCanonical reconstructs a problem from CanonicalBytes output. It
// is strict: the header, the section order and the configuration counts
// must match exactly, and every label must belong to the declared
// alphabet. The round trip preserves label numbering, unused labels and
// empty constraints, so ParseCanonical(p.CanonicalBytes()).Equal(p)
// holds for every valid problem (provenance, a display aid, is not
// reconstructed).
func ParseCanonical(data []byte) (*Problem, error) {
	lines := strings.Split(string(data), "\n")
	// Canonical output ends with a newline; tolerate exactly that.
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	pos := 0
	next := func() (string, error) {
		if pos >= len(lines) {
			return "", fmt.Errorf("core: parse canonical: unexpected end of input at line %d", pos+1)
		}
		line := lines[pos]
		pos++
		return line, nil
	}

	line, err := next()
	if err != nil {
		return nil, err
	}
	if line != canonicalHeader {
		return nil, fmt.Errorf("core: parse canonical: bad header %q, want %q", line, canonicalHeader)
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	deltaStr, ok := strings.CutPrefix(line, "delta: ")
	if !ok {
		return nil, fmt.Errorf("core: parse canonical: line 2: want \"delta: <n>\", got %q", line)
	}
	delta, err := strconv.Atoi(deltaStr)
	if err != nil || delta < 1 || delta > MaxDelta {
		return nil, fmt.Errorf("core: parse canonical: line 2: bad delta %q (want 1 to %d)", deltaStr, MaxDelta)
	}

	line, err = next()
	if err != nil {
		return nil, err
	}
	if line != "alphabet:" && !strings.HasPrefix(line, "alphabet: ") {
		return nil, fmt.Errorf("core: parse canonical: line 3: want \"alphabet: ...\", got %q", line)
	}
	alpha, err := NewAlphabet(strings.Fields(strings.TrimPrefix(line, "alphabet:"))...)
	if err != nil {
		return nil, fmt.Errorf("core: parse canonical: line 3: %v", err)
	}

	lookup := func(name string) (Label, error) {
		l, ok := alpha.Lookup(name)
		if !ok {
			return 0, fmt.Errorf("label %q not in alphabet", name)
		}
		return l, nil
	}
	readSection := func(name string, arity int) (Constraint, error) {
		header, err := next()
		if err != nil {
			return Constraint{}, err
		}
		countStr, ok := strings.CutPrefix(header, name+": ")
		if !ok {
			return Constraint{}, fmt.Errorf("core: parse canonical: line %d: want %q header, got %q", pos, name, header)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 0 {
			return Constraint{}, fmt.Errorf("core: parse canonical: line %d: bad count %q", pos, countStr)
		}
		c := NewConstraint(arity)
		for i := 0; i < count; i++ {
			cfgLine, err := next()
			if err != nil {
				return Constraint{}, err
			}
			cfg, err := parseConfigLine(strings.Fields(cfgLine), lookup)
			if err != nil {
				return Constraint{}, fmt.Errorf("core: parse canonical: line %d: %v", pos, err)
			}
			if cfg.Arity() != arity {
				return Constraint{}, fmt.Errorf("core: parse canonical: line %d: configuration arity %d, want %d", pos, cfg.Arity(), arity)
			}
			if err := c.Add(cfg); err != nil {
				return Constraint{}, fmt.Errorf("core: parse canonical: line %d: %v", pos, err)
			}
		}
		return c, nil
	}

	node, err := readSection("node", delta)
	if err != nil {
		return nil, err
	}
	edge, err := readSection("edge", 2)
	if err != nil {
		return nil, err
	}
	if pos != len(lines) {
		return nil, fmt.Errorf("core: parse canonical: trailing content at line %d", pos+1)
	}
	return NewProblem(alpha, edge, node)
}
