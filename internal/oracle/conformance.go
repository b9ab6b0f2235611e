package oracle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fixpoint"
)

// This file cross-validates the round-elimination machinery against the
// brute-force oracle, in the spirit of Bastide–Fraigniaud
// (arXiv:2108.01989): the oracle decides solvability from first
// principles (exhaustive search over view-consistent output
// assignments), independently of core.Speedup and internal/fixpoint, so
// the relations below are falsifiable statements about the
// implementation.
//
// The relations checked are exactly the directions of the paper's
// theorems that hold on arbitrary concrete families:
//
//   - Zero-round: on a pairing-complete family (every port pair
//     realized by some edge), a 0-round algorithm exists iff
//     core.ZeroRoundSolvableNoInput holds — the adversary argument of
//     Section 3 becomes exact.
//
//   - Speedup soundness (the upper-bound direction of Theorem 1): if
//     Speedup(Π) is solvable in t−1 rounds on a family whose instances
//     carry edge orientations, then Π is solvable in t rounds on the
//     same family. The decoding uses only Properties 2/3/5/6 of the
//     derived constraints and one extra round, with the orientation
//     breaking the W = X tie on each edge — it holds on every graph,
//     unlike the speedup direction, which needs t-independence and
//     girth and is therefore NOT asserted on small instances.
//
//   - Fixpoint upper bound: when the iterated-speedup driver classifies
//     Π as ZeroRound after s steps, iterating the decoding gives an
//     s-round algorithm for Π on oriented families, so the oracle must
//     report Π solvable in s rounds there.

// Families bundles the concrete instance sets a conformance run uses.
type Families struct {
	// Plain carries no inputs and should be pairing-complete for the
	// zero-round equivalence to be exact.
	Plain []Instance
	// Oriented carries an edge orientation on every instance, the
	// input Theorem 2's simplification requires for decoding.
	Oriented []Instance
}

// DefaultFamilies returns the stock conformance families at a given Δ:
// every port numbering of C_4 (plus all its orientations) for Δ = 2,
// and the small Δ-regular named graphs with seeded port shuffles and
// orientations otherwise. Deterministic for a given seed.
func DefaultFamilies(delta int, seed int64) (Families, error) {
	if delta == 2 {
		plain, err := Cycles(4)
		if err != nil {
			return Families{}, err
		}
		oriented, err := WithAllOrientations(plain)
		if err != nil {
			return Families{}, err
		}
		return Families{Plain: plain, Oriented: oriented}, nil
	}
	bases, err := RegularBases(delta, 2*delta+4)
	if err != nil {
		return Families{}, err
	}
	return Families{
		Plain:    WithShuffledPorts(bases, 6, seed),
		Oriented: WithRandomOrientations(WithShuffledPorts(bases, 3, seed+1), 3, seed+2),
	}, nil
}

// Check is one verified relation between the oracle and the
// round-elimination machinery.
type Check struct {
	Name   string `json:"name"`
	Holds  bool   `json:"holds"`
	Detail string `json:"detail"`
}

// Report is the outcome of a conformance run for one problem.
type Report struct {
	Problem string  `json:"problem"`
	Delta   int     `json:"delta"`
	MaxT    int     `json:"max_rounds"`
	OK      bool    `json:"ok"`
	Checks  []Check `json:"checks"`
}

// Conformance cross-validates p's oracle verdicts against its
// Speedup derivation and fixpoint classification, for round counts up
// to maxT. Options are forwarded to every Decide call.
func Conformance(name string, p *core.Problem, fams Families, maxT int, opts ...Option) (*Report, error) {
	if maxT < 1 {
		return nil, fmt.Errorf("oracle: conformance needs maxT >= 1, got %d", maxT)
	}
	o := buildOptions(opts)
	rep := &Report{Problem: name, Delta: p.Delta(), MaxT: maxT, OK: true}
	add := func(c Check) {
		rep.Checks = append(rep.Checks, c)
		rep.OK = rep.OK && c.Holds
	}

	// Zero-round equivalence on the plain family.
	zeroCheck := func(label string, q *core.Problem) error {
		_, zr := core.ZeroRoundSolvableNoInput(q)
		v0, err := Decide(q, fams.Plain, 0, opts...)
		if err != nil {
			return err
		}
		pc := PairingComplete(fams.Plain, q.Delta())
		holds := v0.Solvable == zr
		if !pc {
			// Without pairing-completeness only the upper-bound
			// direction is sound.
			holds = !zr || v0.Solvable
		}
		add(Check{
			Name:  label,
			Holds: holds,
			Detail: fmt.Sprintf("ZeroRoundSolvableNoInput=%v oracle@0=%v pairingComplete=%v",
				zr, v0.Solvable, pc),
		})
		return nil
	}
	if err := zeroCheck("zero-round", p); err != nil {
		return nil, err
	}

	// Speedup soundness on the oriented family, one pair per t. The
	// derivation runs under the conformance worker count.
	sp, err := core.Speedup(p, core.WithWorkers(o.workers))
	if err != nil {
		return nil, fmt.Errorf("oracle: conformance: speedup of %s: %w", name, err)
	}
	origAt := map[int]*Verdict{} // Π verdicts on the oriented family, by t
	for t := 1; t <= maxT; t++ {
		d, err := Decide(sp, fams.Oriented, t-1, opts...)
		if err != nil {
			return nil, err
		}
		o, err := Decide(p, fams.Oriented, t, opts...)
		if err != nil {
			return nil, err
		}
		origAt[t] = o
		add(Check{
			Name:  fmt.Sprintf("speedup-soundness/t=%d", t),
			Holds: !d.Solvable || o.Solvable,
			Detail: fmt.Sprintf("Speedup(Π)@%d solvable=%v, Π@%d solvable=%v",
				t-1, d.Solvable, t, o.Solvable),
		})
	}
	// The derived problem must satisfy the zero-round equivalence too.
	if err := zeroCheck("zero-round/speedup", sp); err != nil {
		return nil, err
	}

	// Fixpoint upper bound: a ZeroRound classification after s steps
	// promises an s-round algorithm on oriented families. The driver
	// runs under a tight state budget (WithFixpointStates) so heavy
	// trajectories degrade to an unasserted BudgetExceeded.
	res, err := fixpoint.Run(p, fixpoint.Options{
		MaxSteps: maxT,
		Core:     []core.Option{core.WithMaxStates(o.fixpointStates), core.WithWorkers(o.workers)},
	})
	if err != nil {
		return nil, err
	}
	if res.Kind == fixpoint.ZeroRound && res.Steps >= 1 {
		// res.Steps <= maxT, so the speedup loop above already decided
		// this exact point — reuse its verdict instead of re-searching.
		o := origAt[res.Steps]
		if o == nil {
			var err error
			o, err = Decide(p, fams.Oriented, res.Steps, opts...)
			if err != nil {
				return nil, err
			}
		}
		add(Check{
			Name:  "fixpoint-upper-bound",
			Holds: o.Solvable,
			Detail: fmt.Sprintf("trajectory 0-round solvable after %d steps; oracle Π@%d solvable=%v on oriented family",
				res.Steps, res.Steps, o.Solvable),
		})
	} else {
		add(Check{
			Name:  "fixpoint-upper-bound",
			Holds: true,
			Detail: fmt.Sprintf("fixpoint classification %q within %d steps carries no oracle-checkable upper bound",
				res.Kind, maxT),
		})
	}
	return rep, nil
}
