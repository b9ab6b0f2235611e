package par_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

func TestWorkerCount(t *testing.T) {
	cases := []struct{ configured, n, wantMax, wantMin int }{
		{1, 100, 1, 1},
		{8, 3, 3, 3},
		{4, 100, 4, 4},
		{-1, 0, 1, 1}, // floors at 1 even for empty work
	}
	for _, tc := range cases {
		got := par.WorkerCount(tc.configured, tc.n)
		if got < tc.wantMin || got > tc.wantMax {
			t.Errorf("WorkerCount(%d, %d) = %d, want in [%d, %d]",
				tc.configured, tc.n, got, tc.wantMin, tc.wantMax)
		}
	}
	if got := par.WorkerCount(0, 64); got < 1 {
		t.Errorf("GOMAXPROCS default resolved to %d", got)
	}
}

// TestRunShardedCoversEveryIndex: every index is visited exactly once,
// for one worker and for several.
func TestRunShardedCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 1000
		var hits [n]atomic.Int32
		if err := par.RunSharded(workers, n, func(_, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestRunShardedErrorAborts: an error stops the pool and is returned;
// the sharded worker ids stay within range.
func TestRunShardedErrorAborts(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := par.RunSharded(workers, 100, func(w, i int) error {
			if w < 0 || w >= workers {
				t.Fatalf("worker id %d out of range [0,%d)", w, workers)
			}
			if i == 17 {
				return sentinel
			}
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: got err %v, want sentinel", workers, err)
		}
		if ran.Load() >= 100 {
			t.Fatalf("workers=%d: pool did not abort", workers)
		}
	}
}

// TestBudgetExactCount: Take succeeds exactly n times in total no
// matter how many goroutines are draining it.
func TestBudgetExactCount(t *testing.T) {
	for _, workers := range []int{1, 8} {
		b := par.NewBudget(500)
		var ok atomic.Int64
		_ = par.RunSharded(workers, 2000, func(_, i int) error {
			if b.Take() {
				ok.Add(1)
			}
			return nil
		})
		if got := ok.Load(); got != 500 {
			t.Fatalf("workers=%d: %d successful takes, want 500", workers, got)
		}
	}
}

// TestGateBoundsConcurrency: at most Cap() holders are ever inside the
// gated section, and queued entries are admitted as slots free up.
func TestGateBoundsConcurrency(t *testing.T) {
	g := par.NewGate(3)
	if g.Cap() != 3 {
		t.Fatalf("Cap() = %d, want 3", g.Cap())
	}
	var inside, peak atomic.Int64
	_ = par.RunSharded(8, 64, func(_, i int) error {
		if !g.Enter(context.Background()) {
			t.Error("Enter with background context must succeed")
			return nil
		}
		cur := inside.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inside.Add(-1)
		g.Leave()
		return nil
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent holders, gate capacity 3", p)
	}
}

// TestGateEnterCancel: a full gate rejects an already-canceled context
// instead of blocking, and the rejected caller consumes no slot.
func TestGateEnterCancel(t *testing.T) {
	g := par.NewGate(1)
	if !g.Enter(context.Background()) {
		t.Fatal("first Enter must succeed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if g.Enter(ctx) {
		t.Fatal("Enter with canceled context on a full gate must fail")
	}
	g.Leave()
	if !g.Enter(context.Background()) {
		t.Fatal("slot must be reusable after Leave")
	}
	g.Leave()
}

// TestGateDefaultCap: n <= 0 selects GOMAXPROCS.
func TestGateDefaultCap(t *testing.T) {
	if got := par.NewGate(0).Cap(); got < 1 {
		t.Fatalf("default capacity %d, want >= 1", got)
	}
}

// countingObserver tallies gate events for the observer test.
type countingObserver struct {
	queued, entered, refused, left atomic.Int64
	waits                          atomic.Int64 // nonzero waits observed
}

func (o *countingObserver) GateQueued() { o.queued.Add(1) }
func (o *countingObserver) GateEntered(wait time.Duration) {
	o.entered.Add(1)
	if wait > 0 {
		o.waits.Add(1)
	}
}
func (o *countingObserver) GateRefused(wait time.Duration) { o.refused.Add(1) }
func (o *countingObserver) GateLeft()                      { o.left.Add(1) }

// TestGateObserver: every Enter fires GateQueued then exactly one of
// GateEntered/GateRefused, every Leave fires GateLeft, and admission
// semantics are unchanged by observation.
func TestGateObserver(t *testing.T) {
	obs := &countingObserver{}
	g := par.NewGate(1)
	g.SetObserver(obs)

	if !g.Enter(context.Background()) {
		t.Fatal("first Enter must succeed")
	}
	// Full gate + canceled context: refused, no slot consumed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if g.Enter(ctx) {
		t.Fatal("Enter with canceled context on a full gate must fail")
	}
	// A second holder queues until the first leaves.
	acquired := make(chan struct{})
	go func() {
		if g.Enter(context.Background()) {
			close(acquired)
		}
	}()
	// The waiter may or may not have queued yet; Leave unblocks it
	// either way.
	g.Leave()
	<-acquired
	g.Leave()

	if got := obs.queued.Load(); got != 3 {
		t.Fatalf("GateQueued fired %d times, want 3", got)
	}
	if got := obs.entered.Load(); got != 2 {
		t.Fatalf("GateEntered fired %d times, want 2", got)
	}
	if got := obs.refused.Load(); got != 1 {
		t.Fatalf("GateRefused fired %d times, want 1", got)
	}
	if got := obs.left.Load(); got != 2 {
		t.Fatalf("GateLeft fired %d times, want 2", got)
	}
}
