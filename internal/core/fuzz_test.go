package core

import (
	"testing"
)

// fuzzSeedCorpus holds well-formed problem descriptions drawn from the
// paper's catalog (sinkless coloring, sinkless orientation, 3-coloring
// on rings, pointer weak 2-coloring) plus edge-case syntax: comments,
// alternate section spellings, multiplicity shorthand, and blank lines.
var fuzzSeedCorpus = []string{
	"node:\n0^2 1\nedge:\n0 0\n0 1\n",
	"node:\n0^2 1\n0 1^2\n1^3\nedge:\n0 1\n",
	"node:\n1^2\n2^2\n3^2\nedge:\n1 2\n1 3\n2 3\n",
	"# weak 2-coloring, pointer form\nnodes:\n1> 1.^2\n2> 2.^2\nedges:\n1> 2>\n1> 2.\n1. 2>\n1. 2.\n1. 1.\n2. 2.\n",
	"node:\nA\nedge:\nA A\n",
	"node:\n\nX^3\nedge:\nX X\n# trailing comment",
}

// FuzzParse checks the parser on arbitrary input: it must never panic,
// and whenever it accepts a problem, the problem must round-trip
// through the String rendering — reparsing yields a problem with the
// same description sizes that is isomorphic to the original, and one
// round-trip reaches a formatting fixed point.
func FuzzParse(f *testing.F) {
	for _, seed := range append(fuzzSeedCorpus, oversizedBodies...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<12 {
			return // keep adversarial alphabets small enough to re-verify
		}
		p, err := Parse(text)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted problem fails validation: %v\ninput: %q", err, text)
		}
		rendered := p.String()
		q, err := Parse(rendered)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\nformatted: %q", err, rendered)
		}
		if q.Stats() != p.Stats() {
			t.Fatalf("round-trip changed description sizes: %+v -> %+v\ninput: %q", p.Stats(), q.Stats(), text)
		}
		// The reparsed alphabet may be a permutation of the original
		// (Parse numbers labels by first occurrence); isomorphism is the
		// right equivalence. Skip degenerate blowup candidates.
		if p.Alpha.Size() <= 8 {
			if _, ok := Isomorphic(p, q); !ok {
				t.Fatalf("round-trip lost the problem up to renaming\ninput: %q\nformatted: %q", text, rendered)
			}
		}
		// One round-trip must reach a formatting fixed point: parsing
		// the rendering of q reproduces q's rendering byte for byte.
		qr := q.String()
		r, err := Parse(qr)
		if err != nil {
			t.Fatalf("second reparse failed: %v", err)
		}
		if r.String() != qr {
			t.Fatalf("formatting did not stabilize after one round-trip\nfirst: %q\nsecond: %q", qr, r.String())
		}
	})
}
