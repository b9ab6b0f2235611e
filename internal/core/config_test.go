package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigBasics(t *testing.T) {
	c := NewConfig(2, 0, 1, 0)
	if c.Arity() != 4 {
		t.Errorf("arity = %d, want 4", c.Arity())
	}
	if c.Multiplicity(0) != 2 || c.Multiplicity(1) != 1 || c.Multiplicity(3) != 0 {
		t.Error("multiplicities wrong")
	}
	if got := c.Support(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("support = %v", got)
	}
	exp := c.Expand()
	if len(exp) != 4 || exp[0] != 0 || exp[1] != 0 || exp[2] != 1 || exp[3] != 2 {
		t.Errorf("expand = %v", exp)
	}
}

func TestConfigOrderIndependence(t *testing.T) {
	f := func(raw []uint8) bool {
		labels := make([]Label, len(raw))
		for i, r := range raw {
			labels[i] = Label(r % 5)
		}
		a := NewConfig(labels...)
		rand.New(rand.NewSource(int64(len(raw)))).Shuffle(len(labels), func(i, j int) {
			labels[i], labels[j] = labels[j], labels[i]
		})
		b := NewConfig(labels...)
		return a.Equal(b) && a.Key() == b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigWithWithout(t *testing.T) {
	c := NewConfig(0, 1)
	d := NewConfig(0, 1, 1)
	e := d.WithoutLabel(1)
	if !e.Equal(c) {
		t.Error("WithoutLabel did not remove one occurrence")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithoutLabel on absent label should panic")
		}
	}()
	c.WithoutLabel(9)
}

func TestConfigCountsValidation(t *testing.T) {
	if _, err := NewConfigCounts(map[Label]int{0: 0}); err == nil {
		t.Error("zero multiplicity accepted")
	}
	if _, err := NewConfigCounts(map[Label]int{0: -1}); err == nil {
		t.Error("negative multiplicity accepted")
	}
}

func TestConfigRemap(t *testing.T) {
	c := NewConfig(0, 1, 1)
	m := map[Label]Label{0: 5, 1: 5}
	got, err := c.Remap(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Multiplicity(5) != 3 || got.Arity() != 3 {
		t.Error("remap collapse wrong")
	}
	if _, err := c.Remap(map[Label]Label{0: 1}); err == nil {
		t.Error("partial remap accepted")
	}
}

func TestConfigString(t *testing.T) {
	a := MustAlphabet("A", "B")
	c := NewConfig(0, 0, 1)
	if got := c.String(a); got != "A^2 B" {
		t.Errorf("String = %q, want \"A^2 B\"", got)
	}
}

func TestConstraintBasics(t *testing.T) {
	c := NewConstraint(2)
	c.MustAdd(NewConfig(0, 1))
	if !c.ContainsLabels(1, 0) {
		t.Error("multiset membership should be order independent")
	}
	if c.ContainsLabels(0, 0) {
		t.Error("absent config reported present")
	}
	if err := c.Add(NewConfig(0)); err == nil {
		t.Error("wrong arity accepted")
	}
	if c.Size() != 1 {
		t.Errorf("size = %d, want 1", c.Size())
	}
	c.MustAdd(NewConfig(0, 1)) // duplicate: no-op
	if c.Size() != 1 {
		t.Error("duplicate insertion changed size")
	}
}

func TestConstraintConfigsDeterministic(t *testing.T) {
	c := NewConstraint(2)
	c.MustAdd(NewConfig(1, 1))
	c.MustAdd(NewConfig(0, 1))
	c.MustAdd(NewConfig(0, 0))
	a := c.Configs()
	b := c.Configs()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("Configs order not deterministic")
		}
	}
}

func TestEdgeRelationComp(t *testing.T) {
	// g = {{0,1},{1,1}} over alphabet {0,1,2}.
	g := NewConstraint(2)
	g.MustAdd(NewConfig(0, 1))
	g.MustAdd(NewConfig(1, 1))
	rel := newEdgeRelation(g, 3)
	if !rel.compatible(0, 1) || !rel.compatible(1, 0) || !rel.compatible(1, 1) {
		t.Error("relation wrong")
	}
	if rel.compatible(0, 0) || rel.compatible(2, 1) {
		t.Error("false positives in relation")
	}
	s := NewConfig(0, 1) // support {0,1}
	_ = s
	// comp({0}) = {1}; comp({0,1}) = {1}; comp({1}) = {0,1}; comp({2}) = {}.
	check := func(members []int, want []int) {
		in := bsFrom(3, members)
		got := rel.comp(in)
		wantSet := bsFrom(3, want)
		if !got.Equal(wantSet) {
			t.Errorf("comp(%v) = %v, want %v", members, got, wantSet)
		}
	}
	check([]int{0}, []int{1})
	check([]int{0, 1}, []int{1})
	check([]int{1}, []int{0, 1})
	check([]int{2}, []int{})
	check([]int{}, []int{0, 1, 2})
}
