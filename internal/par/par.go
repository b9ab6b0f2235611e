// Package par is the shared parallel-execution substrate of the
// reproduction: one dynamic work-stealing worker pool, for workers
// that may accumulate private state and may fail, and an atomic
// countdown budget whose semantics are identical for every worker
// count.
//
// It exists so that every enumeration hot path — the round-elimination
// engine in internal/core, the simulator's per-node output loop in
// internal/sim, and the brute-force solvability oracle in
// internal/oracle — parallelizes through one pool with one set of
// invariants: deterministic results for every worker count, and budget
// exhaustion meaning "total work exceeded N" no matter how the work was
// scheduled. One worker is a special case only inside the pool, which
// runs it as a plain in-order loop, so a caller has one code path at
// every worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerCount resolves an effective worker count for n independent work
// items: the configured count (GOMAXPROCS when <= 0), clamped to n and
// floored at 1.
func WorkerCount(configured, n int) int {
	w := configured
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunSharded executes fn(worker, i) for i in [0, n) across the given
// number of workers, handing out indices in ascending order through an
// atomic cursor (dynamic work-stealing, which tolerates wildly
// unbalanced item costs); the worker id in [0, workers) lets fn
// accumulate into per-worker state without locking. The first error
// (in worker order) aborts the remaining items of every worker and is
// returned. Items already handed out run to completion, so every item
// below a failing one has finished by then. With workers <= 1 it is a
// plain in-order loop with zero goroutine overhead.
func RunSharded(workers, n int, fn func(worker, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var cursor atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Budget is a concurrency-safe countdown over a work cap. Every worker
// of a pool shares it, so the "total units spent" semantics are
// identical for every worker count: Take succeeds exactly n times in
// total.
type Budget struct {
	remaining atomic.Int64
}

// NewBudget returns a budget of n units.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.remaining.Store(int64(n))
	return b
}

// Take consumes one unit; it reports false once the budget is spent.
func (b *Budget) Take() bool {
	return b.remaining.Add(-1) >= 0
}

// Gate is a counting semaphore used for admission control: it bounds
// how many callers may be inside a section at once, with the excess
// queueing in Enter until a slot frees or their context is done. Unlike
// Budget — which counts total work and never refills — a Gate bounds
// *concurrent* work and recycles its slots, which is what a long-running
// service needs to keep an unbounded request stream from launching an
// unbounded number of engine computations.
type Gate struct {
	slots    chan struct{}
	observer GateObserver // nil = unobserved
}

// GateObserver receives admission-control events from a Gate, the seam
// the service's metrics layer hangs queue-depth gauges and wait-time
// histograms on. Every Enter call fires GateQueued exactly once,
// followed by exactly one of GateEntered or GateRefused; every Leave
// fires GateLeft. Implementations must be safe for concurrent use and
// must not block — they run inline on the admission path.
type GateObserver interface {
	// GateQueued fires when an Enter caller starts waiting for a slot
	// (including callers that acquire one immediately).
	GateQueued()
	// GateEntered fires when an Enter caller acquires a slot, with the
	// time it spent waiting.
	GateEntered(wait time.Duration)
	// GateRefused fires when an Enter caller gives up (its context was
	// done), with the time it spent waiting.
	GateRefused(wait time.Duration)
	// GateLeft fires when a slot is released.
	GateLeft()
}

// NewGate returns a gate admitting at most n concurrent holders;
// n <= 0 selects runtime.GOMAXPROCS(0).
func NewGate(n int) *Gate {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Cap reports the gate's admission capacity.
func (g *Gate) Cap() int { return cap(g.slots) }

// SetObserver attaches an admission observer (nil detaches). It must
// be called before the gate is shared between goroutines — typically
// right after NewGate — as the field is read without synchronization
// on the admission path.
func (g *Gate) SetObserver(o GateObserver) { g.observer = o }

// Enter blocks until a slot is free or ctx is done, and reports whether
// the slot was acquired. A context that is already done is always
// refused, even when slots are free — so a shutdown signal reliably
// stops new admissions. Every successful Enter must be paired with
// exactly one Leave; after a false return the caller must not Leave.
func (g *Gate) Enter(ctx context.Context) bool {
	if o := g.observer; o != nil {
		o.GateQueued()
		start := time.Now()
		ok := g.enter(ctx)
		if ok {
			o.GateEntered(time.Since(start))
		} else {
			o.GateRefused(time.Since(start))
		}
		return ok
	}
	return g.enter(ctx)
}

// enter is the unobserved admission path.
func (g *Gate) enter(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return false
	default:
	}
	select {
	case g.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// Leave releases a slot acquired by Enter.
func (g *Gate) Leave() {
	<-g.slots
	if o := g.observer; o != nil {
		o.GateLeft()
	}
}
