package core

// Pooled per-run scratch for the enumeration hot paths. Every speedup
// step builds and discards the same short-lived structures — interning
// arenas for closed-set dedup, label-multiplicity count maps — and at
// service request rates those allocations, not the set algebra,
// dominate the profile. The pools below recycle them across calls; the
// maximal-set search instead keeps per-worker stacks for the length of
// one call and interns nothing until it returns (see explorer).
// Nothing pooled ever escapes into a result: results are built from
// fresh or arena-owned storage, and each helper's Put runs only after
// the last read of the scratch, so pooling is invisible to the
// byte-identity contract (locked by the golden corpus tests).

import (
	"sync"

	"repro/internal/intern"
)

// maxPooledTableWords bounds the arena size kept for reuse: a table
// whose data grew beyond this is a one-off giant (huge derived
// alphabet) and is dropped so the pool cannot pin its memory forever.
const maxPooledTableWords = 1 << 16

// tablePool recycles interning arenas used as per-call dedup scratch.
var tablePool = sync.Pool{New: func() any { return intern.NewTable(64) }}

// getTable returns an empty scratch arena.
func getTable() *intern.Table { return tablePool.Get().(*intern.Table) }

// putTable resets and recycles a scratch arena (oversized ones are
// dropped; see maxPooledTableWords).
func putTable(t *intern.Table) {
	if t.WordCap() > maxPooledTableWords {
		return
	}
	t.Reset()
	tablePool.Put(t)
}

// labelCountsPool recycles the Label-multiplicity maps the multiset
// enumerations (liftConfig, allChoicesIn) accumulate into.
var labelCountsPool = sync.Pool{New: func() any { return make(map[Label]int, 8) }}

// getLabelCounts returns an empty multiplicity map.
func getLabelCounts() map[Label]int { return labelCountsPool.Get().(map[Label]int) }

// putLabelCounts clears and recycles a multiplicity map.
func putLabelCounts(m map[Label]int) {
	clear(m)
	labelCountsPool.Put(m)
}
