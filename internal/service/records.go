package service

import (
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// recordTier is one source of warm records: the chain of the
// preloaded pack and the persistent store (a store.Source), a
// memory-only engine's memRecords, or, through peerGet, a key's ring
// owner. A record that fails validation (checksum, truncation,
// version) comes back as an error, which the serve path degrades to a
// miss.
type recordTier interface {
	GetStep(in *core.Problem, maxStates int) (*core.Problem, bool, error)
	GetRendered(in *core.Problem, par store.TrajectoryParams) ([]byte, bool, error)
	GetVerdict(in *core.Problem, par store.VerdictParams) ([]byte, bool, error)
}

// recordSink is the engine's writable record tier: the persistent
// store, or memRecords when the engine is memory-only. A failed put
// costs warmth, never correctness, so callers drop its error.
type recordSink interface {
	recordTier
	PutStep(in, out *core.Problem, maxStates int) error
	PutRendered(in *core.Problem, par store.TrajectoryParams, body []byte) error
	PutVerdict(in *core.Problem, par store.VerdictParams, result []byte) error
}

// lookup reads one record through the engine's local tiers in order —
// the chain of the pack and the store, then a memory-only engine's
// memRecords — and returns the first hit; err reports a damaged record
// when no tier hit. Each tier counts its own warm-lookup outcomes (see
// countedSource and memRecords).
func lookup[P, V any](e *Engine, get func(recordTier, *core.Problem, P) (V, bool, error), in *core.Problem, par P) (V, bool, error) {
	var damaged error
	for _, t := range e.tiers {
		v, ok, err := get(t, in, par)
		if ok {
			return v, true, nil
		}
		if damaged == nil {
			damaged = err
		}
	}
	var zero V
	return zero, false, damaged
}

// countedSource wraps a local record source so that each step or
// verdict fetch counts one warm-lookup outcome: under "pack" for the
// pack, under the kind's own tier ("step", "verdict") for the store.
// Rendered fetches are left to lookupFixpoint, which folds the whole
// rendered chain into one outcome per request.
func (m *Metrics) countedSource(src store.Source, pack bool) store.Source {
	if m == nil || src == nil {
		return src
	}
	return func(kind store.Kind, key core.StableFingerprint) ([]byte, bool, error) {
		payload, ok, err := src(kind, key)
		switch {
		case kind == store.KindRendered:
			// Counted once per request by lookupFixpoint.
		case pack:
			m.warmLookup("pack", warmOutcome(ok, err))
		default:
			m.warmLookup(kind.Ext(), warmOutcome(ok, err))
		}
		return payload, ok, err
	}
}

// stepMemo is the fixpoint.Memo of one state budget: the record tiers,
// then, for a clustered engine, the step's ring owner. Steps are stored
// in the sink only: the owner commits its own copy when it computes.
type stepMemo struct {
	e         *Engine
	maxStates int
}

// LookupStep consults the record tiers, then the owning peer.
func (m stepMemo) LookupStep(in *core.Problem) (*core.Problem, bool) {
	if out, ok, _ := lookup(m.e, recordTier.GetStep, in, m.maxStates); ok {
		return out, true
	}
	return m.e.peerStep(in, m.maxStates)
}

// StoreStep commits the step to the sink.
func (m stepMemo) StoreStep(in, out *core.Problem) { _ = m.e.sink.PutStep(in, out, m.maxStates) }

// maxMemRecords bounds each in-process record map: a memory-only
// engine's steps and verdicts, and every engine's half steps.
const maxMemRecords = 4096

// memRecords is the record sink of a memory-only engine and its last
// record tier. It keeps decoded steps, keyed like fixpoint.MapMemo by
// canonical input but with the budget alongside, and rendered
// verdicts, each map under maxMemRecords entries, and counts its own
// step and verdict lookups. It keeps no rendered records: the
// raw-text rendered memo is memory mode's fixpoint tier,
// and a repeat that misses it replays its steps from the step map.
type memRecords struct {
	steps    *boundedMap[stepKey, *core.Problem]
	verdicts *boundedMap[store.VerdictParams, []byte]
	metrics  *Metrics
}

// stepKey identifies a memory-mode step: its input's canonical bytes
// and the budget it was computed under, since a memo hit spends no
// budget.
type stepKey struct {
	in        string
	maxStates int
}

// GetStep returns the step stored for in under maxStates.
func (m memRecords) GetStep(in *core.Problem, maxStates int) (*core.Problem, bool, error) {
	out, ok := m.steps.get(stepKey{string(in.CanonicalBytes()), maxStates})
	m.metrics.warmLookup("step", warmOutcome(ok, nil))
	return out, ok, nil
}

// PutStep stores the step in → out under maxStates.
func (m memRecords) PutStep(in, out *core.Problem, maxStates int) error {
	m.steps.put(stepKey{string(in.CanonicalBytes()), maxStates}, out)
	return nil
}

// GetRendered always misses.
func (memRecords) GetRendered(*core.Problem, store.TrajectoryParams) ([]byte, bool, error) {
	return nil, false, nil
}

// PutRendered drops the body.
func (memRecords) PutRendered(*core.Problem, store.TrajectoryParams, []byte) error { return nil }

// GetVerdict returns the verdict stored under par, the same identity
// the store folds into its record key.
func (m memRecords) GetVerdict(_ *core.Problem, par store.VerdictParams) ([]byte, bool, error) {
	body, ok := m.verdicts.get(par)
	m.metrics.warmLookup("verdict", warmOutcome(ok, nil))
	return body, ok, nil
}

// PutVerdict stores the verdict under par.
func (m memRecords) PutVerdict(_ *core.Problem, par store.VerdictParams, result []byte) error {
	m.verdicts.put(par, result)
	return nil
}

// boundedMap is a concurrency-safe map of at most max entries. A put
// that would add an entry beyond max first clears the map wholesale:
// an epoch eviction, crude but constant-time, and safe because every
// entry can be recomputed. Holders of a value taken before a clear
// keep it.
type boundedMap[K comparable, V any] struct {
	mu  sync.RWMutex
	m   map[K]V
	max int
}

func newBoundedMap[K comparable, V any](max int) *boundedMap[K, V] {
	return &boundedMap[K, V]{m: make(map[K]V), max: max}
}

// get returns the value stored under k.
func (b *boundedMap[K, V]) get(k K) (V, bool) {
	b.mu.RLock()
	v, ok := b.m[k]
	b.mu.RUnlock()
	return v, ok
}

// put stores v under k, clearing the map first when k is new and the
// map is full.
func (b *boundedMap[K, V]) put(k K, v V) {
	b.mu.Lock()
	if _, ok := b.m[k]; !ok && len(b.m) >= b.max {
		clear(b.m)
	}
	b.m[k] = v
	b.mu.Unlock()
}

// len reports the number of entries.
func (b *boundedMap[K, V]) len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.m)
}
