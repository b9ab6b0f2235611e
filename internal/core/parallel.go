package core

import (
	"repro/internal/par"
)

// The enumeration hot paths share the repository-wide parallel
// substrate of internal/par; these aliases keep core's historical
// names while the implementation lives in one place shared with
// internal/sim and internal/oracle.

// stateBudget is a concurrency-safe countdown over the WithMaxStates
// cap: take succeeds exactly maxStates times in total, for every
// worker count.
type stateBudget = par.Budget

func newStateBudget(n int) *stateBudget { return par.NewBudget(n) }

// runSharded executes fn(worker, i) for i in [0, n) across workers
// with dynamic work-stealing, per-worker accumulators and error
// propagation; see par.RunSharded.
func runSharded(workers, n int, fn func(worker, i int) error) error {
	return par.RunSharded(workers, n, fn)
}
