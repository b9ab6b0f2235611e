// Package bitset provides a compact, arbitrary-width bitset used to
// represent sets of labels throughout the round elimination engine.
//
// Label alphabets grow quickly under the speedup transformation (labels of a
// derived problem are sets of labels of the previous problem), so set
// operations on label sets are on the hot path of every speedup step.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a fixed-universe bitset. The zero value is an empty set over an
// empty universe; use New to create a set over a universe of a given size.
//
// All binary operations (Union, Intersect, ...) require both operands to
// have the same universe size; this is the caller's responsibility and is
// enforced only by length checks in debug-style panics, since mixing
// universes is always a programming error.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over a universe of n elements {0, ..., n-1}.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a set over a universe of n elements containing exactly
// the given indices.
func FromIndices(n int, indices ...int) Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Full returns the set {0, ..., n-1} over a universe of n elements.
func Full(n int) Set {
	s := New(n)
	for w := range s.words {
		s.words[w] = ^uint64(0)
	}
	s.trim()
	return s
}

// Wrap returns a set over a universe of n elements sharing the given
// word storage without copying — the zero-allocation view used to read
// sets back out of an interning arena. The words must already be
// trimmed to the universe, and the caller must not invoke mutating
// methods (Add, Remove, ...InPlace) on the returned set.
func Wrap(n int, words []uint64) Set {
	if len(words) != (n+wordBits-1)/wordBits {
		panic("bitset: Wrap: word count does not match universe size")
	}
	return Set{n: n, words: words}
}

// Words exposes the backing words of the set (little-endian bit
// order: bit i of the set is bit i%64 of word i/64). The returned
// slice aliases the set and must not be modified; it is the canonical
// word sequence handed to the interning arena.
func (s Set) Words() []uint64 { return s.words }

// Compare orders sets over the same universe by the byte-lexicographic
// order of their little-endian encoding — the same total order the
// legacy string Key() induced, kept so that canonical orderings (and
// with them derived label numbering) survive the interning refactor.
// It returns -1, 0 or +1.
func Compare(a, b Set) int {
	a.sameUniverse(b)
	for i, w := range a.words {
		if w == b.words[i] {
			continue
		}
		// Byte-lex order over little-endian bytes is numeric order of
		// the byte-reversed word.
		if bits.ReverseBytes64(w) < bits.ReverseBytes64(b.words[i]) {
			return -1
		}
		return 1
	}
	return 0
}

// trim clears bits beyond the universe in the last word.
func (s *Set) trim() {
	if len(s.words) == 0 {
		return
	}
	rem := s.n % wordBits
	if rem != 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// Len returns the universe size.
func (s Set) Len() int { return s.n }

// Add inserts element i.
func (s Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= uint64(1) << uint(i%wordBits)
}

// Remove deletes element i.
func (s Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= uint64(1) << uint(i%wordBits)
}

// Contains reports whether element i is in the set.
func (s Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(uint64(1)<<uint(i%wordBits)) != 0
}

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index " + strconv.Itoa(i) + " out of range [0," + strconv.Itoa(s.n) + ")")
	}
}

// Count returns the number of elements in the set.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	c := Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	s.sameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &= w
	}
	return r
}

// IntersectInto sets dst = s ∩ t without allocating; all three sets
// must share a universe.
func (s Set) IntersectInto(t, dst Set) {
	s.sameUniverse(t)
	s.sameUniverse(dst)
	for i, w := range s.words {
		dst.words[i] = w & t.words[i]
	}
}

// Complement returns the complement of s within its universe.
func (s Set) Complement() Set {
	r := Set{n: s.n, words: make([]uint64, len(s.words))}
	for i, w := range s.words {
		r.words[i] = ^w
	}
	r.trim()
	return r
}

// IntersectInPlace sets s = s ∩ t.
func (s Set) IntersectInPlace(t Set) {
	s.sameUniverse(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// UnionInPlace sets s = s ∪ t.
func (s Set) UnionInPlace(t Set) {
	s.sameUniverse(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// ClearInPlace empties s without allocating.
func (s Set) ClearInPlace() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// FillInPlace sets s = {0, ..., n-1} without allocating.
func (s Set) FillInPlace() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same elements.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

func (s Set) sameUniverse(t Set) {
	if s.n != t.n {
		panic("bitset: operation on sets with different universes")
	}
}

// Indices returns the elements of the set in increasing order.
func (s Set) Indices() []int {
	return s.AppendIndices(make([]int, 0, s.Count()))
}

// AppendIndices appends the elements of the set to dst in increasing
// order and returns the extended slice — the allocation-free variant of
// Indices for callers that reuse scratch.
func (s Set) AppendIndices(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for each element in increasing order. If fn returns
// false, iteration stops early.
func (s Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Key returns a compact string usable as a map key. Two sets over the same
// universe have equal keys iff they are equal.
func (s Set) Key() string {
	var sb strings.Builder
	sb.Grow(len(s.words) * 8)
	for _, w := range s.words {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * uint(i)))
		}
		sb.Write(buf[:])
	}
	return sb.String()
}

// String renders the set as {i, j, ...}.
func (s Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
