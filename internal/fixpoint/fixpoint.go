// Package fixpoint iterates the automatic speedup transformation of
// Brandt (PODC 2019) to a fixed point, mechanizing the paper's
// lower-bound recipe: if iterated round elimination maps a problem back
// into its own isomorphism class without ever becoming 0-round
// solvable, the problem requires Ω(log n) rounds on the corresponding
// graph classes (Section 4.4 proves exactly this for sinkless
// coloring).
//
// The driver applies core.Speedup repeatedly, memoizes every derived
// problem's isomorphism class (hash-bucketed by interned
// core.Fingerprint handles, confirmed by core.Isomorphic), and
// classifies the trajectory:
//
//   - FixedPoint: Π_{i} is isomorphic to Π_{i-1} — one more round of
//     speedup changes nothing, the paper's fixed-point situation.
//   - Cycle: Π_{i} is isomorphic to some earlier Π_{j}, j < i-1 — the
//     trajectory is eventually periodic with period > 1, which is just
//     as good for lower bounds (the class never escapes the cycle).
//   - Collapsed: a derived problem has no usable configuration left;
//     iteration cannot continue (and the original problem is "easy" in
//     the sense that round elimination empties it).
//   - ZeroRound: a derived problem is 0-round solvable without inputs,
//     ending the descent of Theorem 1 (upper-bound side).
//   - BudgetExceeded: the step limit or core's WithMaxStates state
//     budget ran out before the trajectory closed.
package fixpoint

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
)

// Kind classifies the outcome of an iterated speedup run.
type Kind int

const (
	// FixedPoint: the last derived problem is isomorphic to its
	// predecessor.
	FixedPoint Kind = iota + 1
	// Cycle: the last derived problem is isomorphic to an earlier,
	// non-adjacent trajectory entry.
	Cycle
	// Collapsed: a derived problem became empty (no usable label
	// supports both constraints).
	Collapsed
	// ZeroRound: the input or a derived problem is 0-round solvable
	// without inputs. Checked before trajectory closure: a 0-round
	// solvable fixed point carries no lower bound.
	ZeroRound
	// BudgetExceeded: MaxSteps or the core state budget was exhausted
	// before the trajectory closed.
	BudgetExceeded
)

// String renders the classification for logs and CLI output.
func (k Kind) String() string {
	switch k {
	case FixedPoint:
		return "fixed point"
	case Cycle:
		return "cycle"
	case Collapsed:
		return "collapsed"
	case ZeroRound:
		return "zero-round solvable"
	case BudgetExceeded:
		return "budget exceeded"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options tunes a Run.
type Options struct {
	// MaxSteps bounds the number of speedup applications; 0 selects
	// DefaultMaxSteps.
	MaxSteps int
	// Core options are forwarded to every core.Speedup call (worker
	// count, state budget).
	Core []core.Option
	// Memo, when non-nil, caches speedup steps across runs (and across
	// processes, when backed by a persistent store). A hit replaces the
	// core.Speedup call entirely; because the transformation is a
	// deterministic function of the exact input representation, the
	// trajectory — and hence every classification and printed byte — is
	// identical with and without a memo. A memo hit spends no state
	// budget, so for the identity to hold the memo must be scoped to
	// the WithMaxStates budget in Core: never serve steps cached under
	// one budget to a run under another (store-backed memos fold the
	// budget into the record key; a MapMemo must simply not be reused
	// across budgets).
	Memo Memo
	// Observe, when non-nil, is invoked synchronously for every
	// trajectory entry the moment it is appended — index 0 is the
	// compressed input, index i the i-th derived problem — before the
	// run's classification is known. Streaming consumers (the HTTP
	// service's NDJSON fixpoint endpoint) render entries from this
	// callback; because each entry is final once appended, bytes
	// streamed step-by-step equal bytes rendered from the finished
	// Result.
	Observe func(index int, p *core.Problem)
	// Ctx, when non-nil, bounds the run: cancellation is polled at each
	// step boundary and surfaces as Run returning ctx's error. Steps
	// already completed have been offered to Memo, so an interrupted
	// run leaves its progress behind as memoized steps — a later
	// identical run replays them as cache hits and produces the exact
	// trajectory an uninterrupted run would have (the service's
	// graceful-shutdown checkpoint contract, mirroring cmd/sweep's
	// kill -9 resume).
	Ctx context.Context
}

// Memo is a pluggable cache of speedup steps, keyed by the exact input
// problem representation. Implementations must return, for a given
// input, exactly the compact-renamed problem a cold
// core.Speedup + RenameCompact would produce (store-backed memos
// guarantee this by keying on core.StableKey and round-tripping through
// the canonical serialization). Lookup failures of any kind must
// surface as a miss — a memo may only ever accelerate a run, never
// change or fail it. Implementations must be safe for concurrent use;
// Run may be invoked from many goroutines sharing one memo.
type Memo interface {
	// LookupStep returns the memoized compact derived problem of in.
	LookupStep(in *core.Problem) (*core.Problem, bool)
	// StoreStep records that one speedup step maps in to out.
	StoreStep(in, out *core.Problem)
}

// MapMemo is the trivial in-process Memo: a mutex-guarded map keyed by
// the canonical serialization. Use it to share steps across the many
// Run calls of one batch process (trajectories of related problems
// frequently pass through identical intermediate problems); use a
// store-backed memo to share them across processes. Scope one MapMemo
// to one WithMaxStates budget — see Options.Memo.
type MapMemo struct {
	mu sync.RWMutex
	m  map[string]*core.Problem
}

// NewMapMemo returns an empty in-memory memo.
func NewMapMemo() *MapMemo {
	return &MapMemo{m: make(map[string]*core.Problem)}
}

// LookupStep returns the memoized compact derived problem of in.
func (m *MapMemo) LookupStep(in *core.Problem) (*core.Problem, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out, ok := m.m[string(in.CanonicalBytes())]
	return out, ok
}

// StoreStep records that one speedup step maps in to out.
func (m *MapMemo) StoreStep(in, out *core.Problem) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[string(in.CanonicalBytes())] = out
}

// Len reports the number of memoized steps.
func (m *MapMemo) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

// fingerprinterPool recycles the per-run isomorphism-fingerprint arenas
// (core.Fingerprinter holds three interning tables that would otherwise
// be rebuilt from scratch on every Run).
var fingerprinterPool = sync.Pool{New: func() any { return core.NewFingerprinter() }}

// DefaultMaxSteps bounds the iteration when Options.MaxSteps is unset.
// Trajectories that neither close nor collapse within this many steps
// are typically growing without bound.
const DefaultMaxSteps = 16

// Result is the classified trajectory of an iterated speedup run.
type Result struct {
	// Kind is the trajectory classification.
	Kind Kind
	// Trajectory holds Π_0 (the compressed input) followed by each
	// derived problem, compact-renamed. For FixedPoint and Cycle the
	// last entry is the one isomorphic to Trajectory[CycleStart].
	Trajectory []*core.Problem
	// Steps is the number of speedup applications performed.
	Steps int
	// CycleStart/CycleLen describe the closure for FixedPoint (CycleLen
	// 1) and Cycle (CycleLen > 1): Trajectory[len-1] ≅
	// Trajectory[CycleStart] and CycleLen = len-1-CycleStart.
	CycleStart int
	CycleLen   int
	// Witness maps labels of the last trajectory entry onto
	// Trajectory[CycleStart] for FixedPoint and Cycle.
	Witness core.LabelMap
	// Err records the underlying state-budget error when Kind is
	// BudgetExceeded because core.Speedup gave up (nil when the step
	// limit ran out instead).
	Err error
}

// Last returns the final problem of the trajectory.
func (r *Result) Last() *core.Problem {
	return r.Trajectory[len(r.Trajectory)-1]
}

// Run iterates core.Speedup from p until the trajectory closes
// (fixed point or cycle), trivializes (collapsed or 0-round solvable),
// or exhausts its budget. The input is compressed first so that the
// isomorphism comparisons see the same normal form core.Speedup
// produces. Errors other than budget exhaustion (which classifies as
// BudgetExceeded) are returned as-is.
func Run(p *core.Problem, opts Options) (*Result, error) {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	start := p.Compress()
	res := &Result{Trajectory: []*core.Problem{start}}
	if opts.Observe != nil {
		opts.Observe(0, start)
	}
	if start.Node.Size() == 0 || start.Edge.Size() == 0 {
		res.Kind = Collapsed
		return res, nil
	}
	// 0-round solvability takes precedence over trajectory closure: a
	// problem that is both a fixed point and 0-round solvable carries
	// no lower bound (the paper's recipe requires the trajectory to
	// never become 0-round solvable).
	if _, ok := core.ZeroRoundSolvableNoInput(start); ok {
		res.Kind = ZeroRound
		return res, nil
	}

	// Isomorphism-class memo: interned invariant fingerprint →
	// trajectory indices, confirmed pairwise by core.Isomorphic within
	// a bucket. One Fingerprinter spans the whole run, so fingerprints
	// of different trajectory entries are comparable handles. The
	// fingerprinter's arenas are pooled per-run scratch: fingerprints
	// never leave Run, so recycling them cannot be observed in a Result.
	fp := fingerprinterPool.Get().(*core.Fingerprinter)
	defer func() {
		fp.Reset()
		fingerprinterPool.Put(fp)
	}()
	buckets := map[core.Fingerprint][]int{fp.Fingerprint(start): {0}}

	cur := start
	for step := 1; step <= maxSteps; step++ {
		if opts.Ctx != nil {
			select {
			case <-opts.Ctx.Done():
				return nil, opts.Ctx.Err()
			default:
			}
		}
		next, hit := (*core.Problem)(nil), false
		if opts.Memo != nil {
			next, hit = opts.Memo.LookupStep(cur)
		}
		if !hit {
			derived, err := core.Speedup(cur, opts.Core...)
			if err != nil {
				if errors.Is(err, core.ErrStateBudget) {
					res.Kind = BudgetExceeded
					res.Err = err
					return res, nil
				}
				return nil, err
			}
			next, _ = derived.RenameCompact()
			if opts.Memo != nil {
				opts.Memo.StoreStep(cur, next)
			}
		}
		res.Trajectory = append(res.Trajectory, next)
		res.Steps = step
		if opts.Observe != nil {
			opts.Observe(step, next)
		}

		if next.Node.Size() == 0 || next.Edge.Size() == 0 {
			res.Kind = Collapsed
			return res, nil
		}
		if _, ok := core.ZeroRoundSolvableNoInput(next); ok {
			res.Kind = ZeroRound
			return res, nil
		}

		key := fp.Fingerprint(next)
		for _, j := range buckets[key] {
			if m, ok := core.Isomorphic(next, res.Trajectory[j]); ok {
				res.CycleStart = j
				res.CycleLen = step - j
				res.Witness = m
				if res.CycleLen == 1 {
					res.Kind = FixedPoint
				} else {
					res.Kind = Cycle
				}
				return res, nil
			}
		}
		buckets[key] = append(buckets[key], step)
		cur = next
	}
	res.Kind = BudgetExceeded
	return res, nil
}
