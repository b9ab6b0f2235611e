// Package service is the round-elimination query engine behind the
// HTTP daemon (cmd/serve) and the thin command-line clients: it turns
// the repository's batch machinery — the speedup engine (internal/core),
// the iterated fixpoint driver (internal/fixpoint), the brute-force
// solvability oracle (internal/oracle) and the persistent result store
// (internal/store) — into a long-running concurrent service.
//
// Every query is keyed by the stable fingerprint of its exact input
// representation (core.StableKey) plus its budget parameters, which
// buys the two properties the whole layer is built around:
//
//   - In-flight deduplication: identical queries arriving concurrently
//     share one computation (a singleflight keyed by the stable key).
//     Late arrivals subscribe to the computation in progress — for the
//     streaming fixpoint endpoint they receive the NDJSON lines already
//     produced and then follow along live.
//   - Warm serving: finished results are committed to the persistent
//     result store (speedup steps, classified trajectories, rendered
//     verdicts) and replayed from it in microseconds. Because every
//     response is rendered from canonical problem serializations and
//     deterministic structs, a warm response is byte-identical to the
//     cold response — the same contract cmd/sweep relies on for its
//     resume-after-kill reports. A preloaded pack artifact (Config.Pack,
//     built by cmd/sweep -pack) adds a read-only warm tier consulted
//     before the store, with the same byte-identity guarantee.
//
// Admission control: actual engine computations (speedup enumeration,
// fixpoint iteration, oracle search) pass through a par.Gate bounding
// how many run concurrently; warm store reads bypass the gate. An
// unbounded request stream therefore queues instead of launching an
// unbounded number of enumerations. A computation whose every
// subscriber has departed (disconnect, timeout) is cancelled at its
// next step boundary — its completed steps are already memoized, so a
// retried query resumes byte-identically instead of recomputing.
//
// Observability: with Config.Metrics attached, the engine counts
// singleflight leaders/followers, warm-tier hit/miss/corrupt outcomes
// per record tier (a corrupt record degrades to recomputation, never a
// failed query), and gate queue depth/wait time (via par.GateObserver). The
// instruments feed GET /metrics and GET /v1/stats exclusively —
// nothing in response rendering reads them, which is how the
// byte-identity contract survives instrumentation.
//
// Shutdown: Close cancels the engine's run context. In-flight fixpoint
// iterations stop at the next step boundary, but every step they
// completed has already been committed to the store's step memo — so a
// restarted service replays those steps as cache hits and answers the
// interrupted query byte-identically to an uninterrupted run. This is
// cmd/sweep's kill -9 checkpoint contract, applied to a daemon.
//
// Without a store directory the engine runs memory-only: the same
// deduplication and byte-identity hold, with warmth scoped to the
// process lifetime (and memory growing with the set of distinct queries
// served — give a long-running daemon a store).
package service

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/par"
	"repro/internal/store"
)

// Config tunes an Engine.
type Config struct {
	// StoreDir is the persistent result store directory; empty selects
	// memory-only operation.
	StoreDir string
	// Workers is the core.WithWorkers count used inside each engine
	// computation (0 = GOMAXPROCS).
	Workers int
	// MaxInflight bounds how many engine computations run concurrently
	// (the par.Gate admission budget); 0 = GOMAXPROCS.
	MaxInflight int
	// Pack, when non-nil, is a preloaded warm-cache artifact
	// (store.OpenPack) consulted before the JSON store and before
	// computing cold. The engine takes ownership: Close releases it.
	// Pack-served replies are byte-identical to store-served and cold
	// replies — the pack holds the same canonical payloads under the
	// same keys.
	Pack *store.PackReader
	// Metrics, when non-nil, receives the engine's singleflight,
	// warm-lookup and admission-gate instrumentation. Metrics are
	// observational only: no response byte ever depends on them.
	Metrics *Metrics
	// Peers, when non-nil, joins the engine to a static cluster: record
	// lookups that miss every local tier ask the key's ring owner
	// before computing cold, and the peer protocol endpoints are
	// mounted so other members can do the same (see PeerConfig).
	Peers *PeerConfig
}

// Engine answers speedup, fixpoint, verify and catalog queries with
// in-flight deduplication and store-backed warm serving. Create one
// with New; an Engine is safe for concurrent use by any number of
// request goroutines.
type Engine struct {
	st      *store.Store      // nil = memory-only
	pk      *store.PackReader // nil = no preloaded pack tier
	gate    *par.Gate
	workers int
	metrics *Metrics  // nil = unobserved
	peers   *peerTier // nil = solo (no cluster)

	runCtx    context.Context
	stop      context.CancelFunc
	closeOnce sync.Once

	mu           sync.Mutex
	stepMemos    map[int]fixpoint.Memo          // memory mode: budget → step memo
	halves       map[string]*core.Problem       // half-step cache (no store record kind)
	trajCache    map[string]*fixpoint.Result    // memory mode: trajectory warm cache
	verdictCache map[store.VerdictParams][]byte // memory mode: rendered verdict warm cache
	flight       map[string]*call

	// failMemos maps a budget to its memo of state-budget failures.
	// Unlike stepMemos it exists in every store mode: failures have no
	// record kind.
	failMemos map[int]*fixpoint.IsoFailureMemo

	// rendered memoizes complete fixpoint response bodies by exact raw
	// request text — the hottest warm tier, consulted before parsing.
	// Guarded by its own lock so rendered hits never contend with the
	// flight table or the memory-mode caches.
	renderedMu sync.RWMutex
	rendered   map[renderedKey][]byte

	// stepHook, when non-nil, fires synchronously after each fixpoint
	// trajectory entry is emitted. Test seam: shutdown tests use it to
	// close the engine at a deterministic point mid-trajectory.
	stepHook func(index int)
}

// New opens the store (when configured) and returns a ready engine.
func New(cfg Config) (*Engine, error) {
	e := &Engine{
		workers:      cfg.Workers,
		pk:           cfg.Pack,
		gate:         par.NewGate(cfg.MaxInflight),
		metrics:      cfg.Metrics,
		stepMemos:    make(map[int]fixpoint.Memo),
		failMemos:    make(map[int]*fixpoint.IsoFailureMemo),
		halves:       make(map[string]*core.Problem),
		trajCache:    make(map[string]*fixpoint.Result),
		verdictCache: make(map[store.VerdictParams][]byte),
		flight:       make(map[string]*call),
		rendered:     make(map[renderedKey][]byte),
	}
	e.metrics.observeGate(e.gate)
	if cfg.Peers != nil {
		pt, err := newPeerTier(cfg.Peers)
		if err != nil {
			return nil, err
		}
		e.peers = pt
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		e.st = st
	}
	e.runCtx, e.stop = context.WithCancel(context.Background())
	return e, nil
}

// Store returns the engine's persistent store handle, nil in
// memory-only mode.
func (e *Engine) Store() *store.Store { return e.st }

// Close cancels the engine's run context and releases the preloaded
// pack (when one is attached): computations in flight stop at their
// next step boundary (their completed steps remain committed to the
// store), and subsequent queries fail with ErrClosed. Close is
// idempotent — only the first call does anything, and any shutdown
// error is reported exactly once (later calls return nil), so a
// deferred Close racing an explicit shutdown-path Close (the cmd/serve
// grace-expiry sequence) is safe. Pack lookups racing Close degrade to
// misses — a request still rendering after shutdown recomputes instead
// of touching released memory.
func (e *Engine) Close() error {
	var err error
	e.closeOnce.Do(func() {
		e.stop()
		if e.pk != nil {
			err = e.pk.Close()
		}
	})
	return err
}

// ErrClosed reports a query issued against a closed (shutting-down)
// engine; the HTTP layer maps it to 503.
var ErrClosed = fmt.Errorf("service: engine is shutting down")

// coreOpts assembles the per-computation core options from the engine
// configuration and a request's state budget.
func (e *Engine) coreOpts(maxStates int) []core.Option {
	opts := []core.Option{core.WithWorkers(e.workers)}
	if maxStates > 0 {
		opts = append(opts, core.WithMaxStates(maxStates))
	}
	return opts
}

// stepMemo returns the budget-scoped speedup-step memo chain: the
// preloaded pack first (when attached), then the store-backed tier or a
// per-budget in-memory map, then — for a clustered engine — the step's
// ring owner (peerStepMemo), each with outcome accounting when metrics
// are attached. Stores always land in the local writable tier.
func (e *Engine) stepMemo(maxStates int) fixpoint.Memo {
	var m fixpoint.Memo
	if e.st != nil {
		m = storeStepMemo{e: e, maxStates: maxStates}
	} else {
		e.mu.Lock()
		mm, ok := e.stepMemos[maxStates]
		if !ok {
			mm = fixpoint.NewMapMemo()
			e.stepMemos[maxStates] = mm
		}
		e.mu.Unlock()
		m = mm
		if e.metrics != nil {
			m = observedMemo{inner: mm, metrics: e.metrics}
		}
	}
	if e.peers != nil {
		m = peerStepMemo{e: e, maxStates: maxStates, inner: m}
	}
	if e.pk != nil {
		m = packStepMemo{e: e, maxStates: maxStates, inner: m}
	}
	return m
}

// failureMemo returns the budget-scoped memo of state-budget failures,
// kept in process in every store mode, with hit/miss accounting when
// metrics are attached.
func (e *Engine) failureMemo(maxStates int) fixpoint.FailureMemo {
	e.mu.Lock()
	fm, ok := e.failMemos[maxStates]
	if !ok {
		fm = fixpoint.NewIsoFailureMemo()
		e.failMemos[maxStates] = fm
	}
	e.mu.Unlock()
	if e.metrics == nil {
		return fm
	}
	return observedFailureMemo{inner: fm, metrics: e.metrics}
}

// storeStepMemo adapts the store's budget-scoped step records to
// fixpoint.Memo with corrupt-aware outcome accounting: a record that
// fails validation (checksum, truncation, version) degrades to a miss
// on the serve path — the step is recomputed byte-identically — and
// surfaces only as a "corrupt" warm-lookup outcome.
type storeStepMemo struct {
	e         *Engine
	maxStates int
}

// LookupStep counts the lookup outcome and degrades validation
// failures to misses.
func (m storeStepMemo) LookupStep(in *core.Problem) (*core.Problem, bool) {
	out, ok, err := m.e.st.GetStep(in, m.maxStates)
	m.e.metrics.warmLookup("step", warmOutcome(ok, err))
	if !ok || err != nil {
		return nil, false
	}
	return out, true
}

// StoreStep commits the step record; write failures are dropped (a
// damaged store slows runs down, never fails them).
func (m storeStepMemo) StoreStep(in, out *core.Problem) {
	_ = m.e.st.PutStep(in, out, m.maxStates)
}

// packStepMemo consults the preloaded pack before the inner tier. Pack
// hits never reach the inner memo; misses (including validation
// failures, counted "corrupt") fall through. Stores bypass the
// read-only pack entirely.
type packStepMemo struct {
	e         *Engine
	maxStates int
	inner     fixpoint.Memo
}

// LookupStep tries the pack, counts its outcome, and falls through to
// the inner tier on anything but a hit.
func (m packStepMemo) LookupStep(in *core.Problem) (*core.Problem, bool) {
	out, ok, err := m.e.pk.GetStep(in, m.maxStates)
	m.e.metrics.warmLookup("pack", warmOutcome(ok, err))
	if ok {
		return out, true
	}
	return m.inner.LookupStep(in)
}

// StoreStep delegates to the writable inner tier.
func (m packStepMemo) StoreStep(in, out *core.Problem) { m.inner.StoreStep(in, out) }

// observedMemo wraps a step memo with warm-tier hit/miss accounting.
// Lookups and stores pass through untouched — observation can never
// change what a memo returns.
type observedMemo struct {
	inner   fixpoint.Memo
	metrics *Metrics
}

// LookupStep counts the lookup outcome and delegates.
func (o observedMemo) LookupStep(in *core.Problem) (*core.Problem, bool) {
	out, ok := o.inner.LookupStep(in)
	o.metrics.warmLookup("step", warmOutcome(ok, nil))
	return out, ok
}

// StoreStep delegates.
func (o observedMemo) StoreStep(in, out *core.Problem) { o.inner.StoreStep(in, out) }

// observedFailureMemo wraps a failure memo with warm-tier hit/miss
// accounting under the "failure" tier.
type observedFailureMemo struct {
	inner   fixpoint.FailureMemo
	metrics *Metrics
}

// LookupFailure counts the lookup outcome and delegates.
func (o observedFailureMemo) LookupFailure(in *core.Problem) (error, bool) {
	err, ok := o.inner.LookupFailure(in)
	o.metrics.warmLookup("failure", warmOutcome(ok, nil))
	return err, ok
}

// StoreFailure delegates.
func (o observedFailureMemo) StoreFailure(in *core.Problem, err error) { o.inner.StoreFailure(in, err) }

// enter acquires an engine-computation slot, failing with ErrClosed
// once the engine is shutting down.
func (e *Engine) enter() error {
	if !e.gate.Enter(e.runCtx) {
		return ErrClosed
	}
	return nil
}

// call is one deduplicated computation in flight: subscribers stream
// its finalized chunks as they appear and collect its final value. The
// call carries its computation context (derived from the engine's run
// context): when the last subscriber departs before the computation
// finishes, the call is detached from the flight table and its context
// cancelled, so an abandoned fixpoint stops at its next step boundary
// instead of burning the gate slot for nobody — with every completed
// step already memoized, a retry resumes byte-identically.
type call struct {
	ctx    context.Context    // computation context: engine run ctx + abandonment
	cancel context.CancelFunc // cancels ctx; idempotent
	mu     sync.Mutex
	wake   chan struct{} // closed and replaced on every state change
	chunks [][]byte      // finalized stream chunks, in emission order
	done   bool
	val    any
	err    error

	subs      int    // live subscribers
	abandoned bool   // the abandon path already ran
	abandon   func() // detaches the call and cancels its context
}

func newCall() *call {
	return &call{wake: make(chan struct{})}
}

// emit appends one finalized chunk and wakes subscribers.
func (c *call) emit(chunk []byte) {
	c.mu.Lock()
	c.chunks = append(c.chunks, chunk)
	close(c.wake)
	c.wake = make(chan struct{})
	c.mu.Unlock()
}

// finish publishes the final value and wakes subscribers for the last
// time.
func (c *call) finish(val any, err error) {
	c.mu.Lock()
	c.val, c.err, c.done = val, err, true
	close(c.wake)
	c.mu.Unlock()
}

// follow streams the call's chunks through sink (when non-nil) as they
// finalize and returns the final value. It honors ctx for the waiting
// subscriber without affecting the computation — unless this was the
// last subscriber, in which case departing abandons the call (see
// call). A subscriber that leaves early (disconnect, timeout) returns
// its ctx error; the computation keeps running for the remaining
// subscribers.
func (c *call) follow(ctx context.Context, sink func([]byte) error) (any, error) {
	c.mu.Lock()
	c.subs++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.subs--
		drop := c.subs == 0 && !c.done && !c.abandoned && c.abandon != nil
		if drop {
			c.abandoned = true
		}
		c.mu.Unlock()
		if drop {
			c.abandon()
		}
	}()
	next := 0
	for {
		c.mu.Lock()
		chunks, done, val, err := c.chunks[next:], c.done, c.val, c.err
		wake := c.wake
		c.mu.Unlock()
		next += len(chunks)
		for _, chunk := range chunks {
			if sink != nil {
				if serr := sink(chunk); serr != nil {
					return nil, serr
				}
			}
		}
		if done {
			return val, err
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// inflight deduplicates computations by key: the first caller (the
// singleflight leader) spawns compute on its own goroutine, and every
// caller — leader included — subscribes via follow. The computation
// outlives any one subscriber, but not all of them: when the last
// subscriber departs before compute finishes, the call is detached
// from the flight table (so a fresh identical query starts a fresh
// call, replaying the memoized prefix) and its context is cancelled,
// stopping the computation at its next step boundary. compute must
// call finish exactly once and may emit chunks before that.
func (e *Engine) inflight(ctx context.Context, key string, sink func([]byte) error, compute func(c *call)) (any, error) {
	e.mu.Lock()
	c, ok := e.flight[key]
	if !ok {
		c = newCall()
		c.ctx, c.cancel = context.WithCancel(e.runCtx)
		c.abandon = func() {
			e.dropCall(key, c)
			c.cancel()
		}
		e.flight[key] = c
		go func() {
			compute(c)
			e.dropCall(key, c)
			c.cancel()
		}()
	}
	e.mu.Unlock()
	e.metrics.flightCall(!ok)
	return c.follow(ctx, sink)
}

// dropCall removes a call from the flight table if it is still the
// call registered under key (abandonment and computation completion
// both drop; a fresh call may already have replaced an abandoned one).
func (e *Engine) dropCall(key string, c *call) {
	e.mu.Lock()
	if e.flight[key] == c {
		delete(e.flight, key)
	}
	e.mu.Unlock()
}
