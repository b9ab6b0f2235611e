package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOperations(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if s.Count() != 7 {
		t.Errorf("Count = %d, want 7", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) after Remove")
	}
	if got := s.Indices(); len(got) != 6 {
		t.Errorf("Indices len = %d, want 6", len(got))
	}
}

func TestFullAndComplement(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		f := Full(n)
		if f.Count() != n {
			t.Errorf("Full(%d).Count() = %d", n, f.Count())
		}
		c := f.Complement()
		if !c.Empty() {
			t.Errorf("Full(%d).Complement() not empty", n)
		}
	}
}

func TestOutOfRangeContains(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) {
		t.Error("Contains out of range returned true")
	}
}

func randomSet(rng *rand.Rand, n int) Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 100
	for iter := 0; iter < 200; iter++ {
		a := randomSet(rng, n)
		b := randomSet(rng, n)

		union := a.Clone()
		union.UnionInPlace(b)
		inter := a.Intersect(b)
		diff := a.Intersect(b.Complement())

		// |A∪B| + |A∩B| = |A| + |B|
		if union.Count()+inter.Count() != a.Count()+b.Count() {
			t.Fatal("inclusion-exclusion violated")
		}
		// (A∩B̄) ∪ (A∩B) = A
		diff.UnionInPlace(inter)
		if !diff.Equal(a) {
			t.Fatal("difference identity violated")
		}
		// subset relations
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			t.Fatal("intersection not subset")
		}
		if !a.SubsetOf(union) || !b.SubsetOf(union) {
			t.Fatal("operand not subset of union")
		}
		// Intersects consistent with Intersect
		if a.Intersects(b) != !inter.Empty() {
			t.Fatal("Intersects inconsistent")
		}
		// Complement involution
		if !a.Complement().Complement().Equal(a) {
			t.Fatal("complement not involutive")
		}
		// Key equality iff Equal
		if (a.Key() == b.Key()) != a.Equal(b) {
			t.Fatal("Key equality mismatch")
		}
	}
}

func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 300
		s := New(n)
		want := map[int]bool{}
		for _, r := range raw {
			i := int(r) % n
			s.Add(i)
			want[i] = true
		}
		got := s.Indices()
		if len(got) != len(want) {
			return false
		}
		prev := -1
		for _, i := range got {
			if !want[i] || i <= prev {
				return false
			}
			prev = i
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInPlaceOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		a := randomSet(rng, 80)
		b := randomSet(rng, 80)
		c := a.Clone()
		c.IntersectInPlace(b)
		if !c.Equal(a.Intersect(b)) {
			t.Fatal("IntersectInPlace mismatch")
		}
		d := a.Clone()
		d.UnionInPlace(b)
		for i := 0; i < 80; i++ {
			if d.Contains(i) != (a.Contains(i) || b.Contains(i)) {
				t.Fatalf("UnionInPlace mismatch at %d", i)
			}
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(10, 1, 3, 5, 7)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Errorf("early stop visited %v", seen)
	}
}
