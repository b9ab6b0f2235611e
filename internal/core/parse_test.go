package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	text := `
# sinkless coloring at Δ=3
node:
0^2 1
edge:
0 0
0 1
`
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Delta() != 3 || p.Alpha.Size() != 2 {
		t.Fatalf("Δ=%d labels=%d", p.Delta(), p.Alpha.Size())
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if _, ok := Isomorphic(p, q); !ok {
		t.Error("round trip not isomorphic")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"no header", "A B\nedge:\nA B"},
		{"no node section", "edge:\nA B"},
		{"no edge section", "node:\nA A"},
		{"edge arity", "node:\nA A\nedge:\nA A A"},
		{"node arity mismatch", "node:\nA A\nB B B\nedge:\nA B"},
		{"bad multiplicity", "node:\nA^0 A\nedge:\nA A"},
		{"bad multiplicity syntax", "node:\nA^x A\nedge:\nA A"},
		{"empty label", "node:\n^2\nedge:\nA A"},
	}
	for _, c := range cases {
		if _, err := Parse(c.text); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseMultiplicityShorthand(t *testing.T) {
	p := MustParse("node:\nX^3\nedge:\nX X")
	cfgs := p.Node.Configs()
	if len(cfgs) != 1 || cfgs[0].Arity() != 3 || cfgs[0].Multiplicity(0) != 3 {
		t.Error("multiplicity shorthand mishandled")
	}
}

func TestParseComments(t *testing.T) {
	p := MustParse("# header\nnode:\n# interior comment\nA A\nedge:\nA A\n# trailing")
	if p.Node.Size() != 1 || p.Edge.Size() != 1 {
		t.Error("comments affected parsing")
	}
}

func TestStringStable(t *testing.T) {
	p := MustParse("node:\nB A\nA A\nedge:\nA B\nA A")
	if p.String() != p.String() {
		t.Error("String not deterministic")
	}
	if !strings.Contains(p.String(), "node:") || !strings.Contains(p.String(), "edge:") {
		t.Error("String missing sections")
	}
}

// oversizedBodies are short problem texts whose multiplicities ask for
// more than any step supports: a 28-byte problem of Δ = 10^8, whose
// half step would recurse once per unit of multiplicity, and one whose
// multiplicities sum past the int range.
var oversizedBodies = []string{
	"node:\na^100000000\nedge:\na a",
	"node:\na^4611686018427387904 b^4611686018427387904\nedge:\na b",
}

// TestParseRefusesOversizedArity: Parse refuses both oversized bodies,
// ParseCanonical refuses the canonical form of the first and a line
// that overflows under a small delta header, and neither panics.
func TestParseRefusesOversizedArity(t *testing.T) {
	for _, text := range oversizedBodies {
		if p, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted Δ = %d", text, p.Delta())
		}
	}
	for _, text := range []string{
		canonicalHeader + "\ndelta: 100000000\nalphabet: a\nnode: 1\na^100000000\nedge: 1\na^2\n",
		canonicalHeader + "\ndelta: 2\nalphabet: a b\nnode: 1\na^4611686018427387904 b^4611686018427387904\nedge: 1\na b\n",
	} {
		if p, err := ParseCanonical([]byte(text)); err == nil {
			t.Errorf("ParseCanonical(%q) accepted Δ = %d", text, p.Delta())
		}
	}
}

// TestParseDeltaCap: Δ = MaxDelta parses in both forms and round-trips;
// MaxDelta + 1 is refused by both, whether the multiplicity sits on
// one label or is spread over two.
func TestParseDeltaCap(t *testing.T) {
	p, err := Parse(fmt.Sprintf("node:\na^%d\nedge:\na a", MaxDelta))
	if err != nil || p.Delta() != MaxDelta {
		t.Fatalf("Δ = %d: %v", MaxDelta, err)
	}
	if q, err := ParseCanonical(p.CanonicalBytes()); err != nil || !q.Equal(p) {
		t.Fatalf("Δ = %d canonical round trip: %v", MaxDelta, err)
	}
	for _, text := range []string{
		fmt.Sprintf("node:\na^%d\nedge:\na a", MaxDelta+1),
		fmt.Sprintf("node:\na^%d b\nedge:\na b", MaxDelta),
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted Δ = %d", text, MaxDelta+1)
		}
	}
	over := strings.Replace(string(p.CanonicalBytes()), fmt.Sprint(MaxDelta), fmt.Sprint(MaxDelta+1), -1)
	if _, err := ParseCanonical([]byte(over)); err == nil {
		t.Errorf("ParseCanonical(%q) accepted Δ = %d", over, MaxDelta+1)
	}
}
