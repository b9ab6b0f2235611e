package service

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/store"
)

// FixpointRequest asks for the classified iterated-speedup trajectory
// of one problem, streamed step-by-step as NDJSON.
type FixpointRequest struct {
	// Problem is the input problem, in either text format.
	Problem string `json:"problem"`
	// MaxSteps bounds the iteration; 0 selects fixpoint.DefaultMaxSteps,
	// at most MaxRequestSteps.
	MaxSteps int `json:"max_steps,omitempty"`
	// MaxStates is the per-step core.WithMaxStates budget; 0 selects
	// the engine default. Both budgets are part of the cache identity.
	MaxStates int `json:"max_states,omitempty"`
}

// FixpointEntry is one NDJSON line of the trajectory stream: entry 0
// is the compressed input Π_0, entry i the i-th derived problem Π_i.
type FixpointEntry struct {
	// Index is the trajectory position.
	Index int `json:"index"`
	// Problem is the entry's rendering.
	Problem ProblemView `json:"problem"`
}

// FixpointClassification is the final NDJSON line of the stream.
type FixpointClassification struct {
	// Classification is the fixpoint.Kind string ("fixed point",
	// "cycle", "collapsed", "zero-round solvable", "budget exceeded").
	Classification string `json:"classification"`
	// Steps is the number of speedup applications performed.
	Steps int `json:"steps"`
	// CycleStart and CycleLen describe trajectory closure (fixed
	// points have CycleLen 1); both are 0 for other classifications.
	CycleStart int `json:"cycle_start"`
	CycleLen   int `json:"cycle_len"`
	// BudgetError carries the state-budget error message when the
	// classification is "budget exceeded" because the enumeration gave
	// up (empty when the step limit ran out instead).
	BudgetError string `json:"budget_error,omitempty"`
}

// renderedKey identifies one fully-rendered fixpoint response body:
// the exact raw problem text plus the effective budgets. Keying on the
// raw text rather than the parsed problem is what lets a memo hit skip
// parsing entirely — correct because parsing is deterministic, so the
// same text under the same budgets always renders the same body.
type renderedKey struct {
	problem   string
	maxSteps  int
	maxStates int
}

// maxRenderedMemo bounds the in-process rendered-body memo. On
// overflow the memo is cleared wholesale — an epoch eviction, crude
// but constant-time, and safe because every entry can be re-rendered
// from the record tiers below.
const maxRenderedMemo = 4096

// Fixpoint answers one fixpoint query, writing the NDJSON stream —
// one FixpointEntry line per trajectory entry, then one
// FixpointClassification line — through sink as lines finalize. A warm
// hit (rendered memo, rendered record, or stored trajectory — see
// FixpointBody) replays the complete body as a single chunk; a cold
// run streams each entry the moment the underlying driver appends it,
// and concurrent identical queries subscribe to the same run, so every
// client of a key receives byte-identical bytes.
func (e *Engine) Fixpoint(ctx context.Context, req FixpointRequest, sink func(line []byte) error) error {
	body, ok, err := e.FixpointBody(req)
	if err != nil {
		return err
	}
	if ok {
		return sink(body)
	}
	return e.fixpointCold(ctx, req, sink)
}

// fixpointCold is the computing half of Fixpoint, entered after
// FixpointBody reported a full warm miss (the HTTP handler calls the
// halves separately so a warm body can be served fully buffered with a
// Content-Length while a cold run streams).
func (e *Engine) fixpointCold(ctx context.Context, req FixpointRequest, sink func(line []byte) error) error {
	// FixpointBody validated and parsed the request already;
	// re-deriving the identity here is noise next to the computation.
	maxSteps := req.MaxSteps
	if maxSteps == 0 {
		maxSteps = fixpoint.DefaultMaxSteps
	}
	p, err := parseProblem(req.Problem)
	if err != nil {
		return err
	}
	params := store.TrajectoryParams{MaxSteps: maxSteps, MaxStates: req.MaxStates}
	rkey := renderedKey{problem: req.Problem, maxSteps: maxSteps, maxStates: req.MaxStates}
	key := fixpointFlightKey(p, params)
	_, err = e.inflight(ctx, key, sink, func(c *call) {
		c.finish(e.computeFixpoint(c, p, params, key, rkey))
	})
	return err
}

// FixpointBody returns the exact NDJSON response body for req when a
// warm tier can supply it without computing, in order of decreasing
// warmth: the in-process rendered memo (keyed by raw request text —
// a hit is one map lookup, no parsing), the rendered records of the
// pack and the store, the trajectory tiers (rendering the stored
// result and memoizing the body), and — for a clustered engine — the
// key's ring owner over the peer protocol, with the fetched record
// checksum-verified and backfilled locally. ok is false when only a
// cold computation can answer — the caller falls back to Fixpoint's
// streaming path. The returned body is shared and must not be
// modified. Because every tier stores bytes rendered by the same
// deterministic pipeline, a body served here is byte-identical to the
// cold stream for the same request.
func (e *Engine) FixpointBody(req FixpointRequest) ([]byte, bool, error) {
	maxSteps := req.MaxSteps
	if maxSteps == 0 {
		maxSteps = fixpoint.DefaultMaxSteps
	}
	if err := validateRequestBudgets(maxSteps, req.MaxStates); err != nil {
		return nil, false, err
	}
	rkey := renderedKey{problem: req.Problem, maxSteps: maxSteps, maxStates: req.MaxStates}
	e.renderedMu.RLock()
	body, ok := e.rendered[rkey]
	e.renderedMu.RUnlock()
	if ok {
		e.metrics.warmLookup("rendered", "hit")
		return body, true, nil
	}
	p, err := parseProblem(req.Problem)
	if err != nil {
		return nil, false, err
	}
	params := store.TrajectoryParams{MaxSteps: maxSteps, MaxStates: req.MaxStates}
	if body, ok := e.lookupRendered(p, params); ok {
		e.memoizeRendered(rkey, body)
		return body, true, nil
	}
	key := fixpointFlightKey(p, params)
	if res, ok := e.lookupTrajectory(key, p, params); ok {
		body = RenderFixpointNDJSON(res)
		e.memoizeRendered(rkey, body)
		return body, true, nil
	}
	// Every local tier missed: ask the key's ring owner before
	// computing cold (no-op for a solo engine). A peer-served body is
	// backfilled into the local record tiers and memoized like any
	// other warm hit.
	if body, ok := e.peerFixpoint(key, p, params); ok {
		e.memoizeRendered(rkey, body)
		return body, true, nil
	}
	return nil, false, nil
}

// fixpointFlightKey is the singleflight and memory-cache key of one
// fixpoint query: stable problem fingerprint plus both budgets.
func fixpointFlightKey(p *core.Problem, params store.TrajectoryParams) string {
	return fmt.Sprintf("fixpoint|%s|max_steps=%d|max_states=%d",
		core.StableKey(p), params.MaxSteps, params.MaxStates)
}

// lookupRendered consults the rendered-record tiers — the preloaded
// pack, then the persistent store — and folds both consults into one
// "rendered" warm-lookup outcome (at most one outcome per request for
// the tier, with "corrupt" reported if any consulted record failed
// validation). Failures of any kind degrade to a miss: the caller
// re-renders from the trajectory tiers or recomputes, never serves a
// damaged body.
func (e *Engine) lookupRendered(p *core.Problem, params store.TrajectoryParams) ([]byte, bool) {
	corrupt := false
	if e.pk != nil {
		body, ok, err := e.pk.GetRendered(p, params)
		if ok {
			e.metrics.warmLookup("rendered", "hit")
			return body, true
		}
		corrupt = corrupt || err != nil
	}
	if e.st != nil {
		body, ok, err := e.st.GetRendered(p, params)
		if ok {
			e.metrics.warmLookup("rendered", "hit")
			return body, true
		}
		corrupt = corrupt || err != nil
	}
	if corrupt {
		e.metrics.warmLookup("rendered", "corrupt")
	} else {
		e.metrics.warmLookup("rendered", "miss")
	}
	return nil, false
}

// memoizeRendered publishes a rendered body under its raw-text key.
func (e *Engine) memoizeRendered(k renderedKey, body []byte) {
	e.renderedMu.Lock()
	if len(e.rendered) >= maxRenderedMemo {
		clear(e.rendered)
	}
	e.rendered[k] = body
	e.renderedMu.Unlock()
}

// lookupTrajectory consults the warm tiers in order — the preloaded
// pack (when attached), then the persistent store or the in-process
// cache — and counts one outcome per tier consulted. Lookup failures
// of any kind degrade to a miss on the serve path; validation failures
// (checksum, truncation, version) additionally count as "corrupt" so
// operators can see a damaged store behind byte-identical responses.
func (e *Engine) lookupTrajectory(key string, p *core.Problem, params store.TrajectoryParams) (*fixpoint.Result, bool) {
	if e.pk != nil {
		res, ok, err := e.pk.GetTrajectory(p, params)
		e.metrics.warmLookup("pack", warmOutcome(ok, err))
		if ok {
			return res, true
		}
	}
	if e.st != nil {
		res, ok, err := e.st.GetTrajectory(p, params)
		e.metrics.warmLookup("trajectory", warmOutcome(ok, err))
		if err != nil || !ok {
			return nil, false
		}
		return res, true
	}
	e.mu.Lock()
	res, ok := e.trajCache[key]
	e.mu.Unlock()
	e.metrics.warmLookup("trajectory", warmOutcome(ok, nil))
	return res, ok
}

// computeFixpoint runs the driver under the admission gate, emitting
// each trajectory line as the driver appends the entry, and commits
// the classified trajectory plus its rendered body to the warm tiers
// on success. The run is bounded by the call's context — engine
// shutdown and subscriber abandonment both stop it at the next step
// boundary, with every completed step already checkpointed through the
// step memo.
func (e *Engine) computeFixpoint(c *call, p *core.Problem, params store.TrajectoryParams, key string, rkey renderedKey) (any, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	defer e.gate.Leave()
	// body accumulates the exact bytes emitted to subscribers — the
	// rendered response committed below, so a later rendered-tier hit
	// replays this stream verbatim.
	var body []byte
	res, err := fixpoint.Run(p, fixpoint.Options{
		MaxSteps: params.MaxSteps,
		Core:     e.coreOpts(params.MaxStates),
		Memo:     e.stepMemo(params.MaxStates),
		Failures: e.failureMemo(params.MaxStates),
		Ctx:      c.ctx,
		Observe: func(index int, q *core.Problem) {
			line := marshalLine(FixpointEntry{Index: index, Problem: viewOf(q)})
			body = append(body, line...)
			c.emit(line)
			if e.stepHook != nil {
				e.stepHook(index)
			}
		},
	})
	if err != nil {
		if e.runCtx.Err() != nil {
			// Interrupted by shutdown. Completed steps are already in
			// the step memo; a restarted engine resumes from them.
			return nil, ErrClosed
		}
		if c.ctx.Err() != nil {
			// Every subscriber departed and the call was abandoned; a
			// racing late subscriber sees a retryable failure. The
			// memoized steps make its retry a warm resume.
			return nil, unavailable("computation canceled: every subscriber disconnected")
		}
		return nil, err
	}
	line := marshalLine(classificationOf(res))
	body = append(body, line...)
	c.emit(line)
	if e.st != nil {
		// Failed commits only cost warmth, never correctness.
		_ = e.st.PutTrajectory(p, params, res)
		_ = e.st.PutRendered(p, params, body)
	} else {
		e.mu.Lock()
		e.trajCache[key] = res
		e.mu.Unlock()
	}
	e.memoizeRendered(rkey, body)
	return res, nil
}

// classificationOf condenses a classified trajectory into its final
// stream line, a pure function of the result (what makes cold and warm
// streams byte-identical).
func classificationOf(res *fixpoint.Result) FixpointClassification {
	cls := FixpointClassification{
		Classification: res.Kind.String(),
		Steps:          res.Steps,
		CycleStart:     res.CycleStart,
		CycleLen:       res.CycleLen,
	}
	if res.Err != nil {
		cls.BudgetError = res.Err.Error()
	}
	return cls
}

// RenderFixpointNDJSON renders the complete NDJSON response body of a
// classified trajectory — every entry line then the classification
// line, the exact bytes the cold stream emits incrementally. cmd/sweep
// uses it to pre-render bodies into the store so a later daemon serves
// them from the rendered tier without marshaling.
func RenderFixpointNDJSON(res *fixpoint.Result) []byte {
	b := getBuf()
	defer putBuf(b)
	for i, q := range res.Trajectory {
		b.encode(FixpointEntry{Index: i, Problem: viewOf(q)})
	}
	b.encode(classificationOf(res))
	return bytes.Clone(b.buf.Bytes())
}

// marshalLine renders one NDJSON line (marshaled value plus newline)
// through a pooled buffer; only the exact-size retained copy escapes.
func marshalLine(v any) []byte {
	b := getBuf()
	defer putBuf(b)
	b.encode(v)
	return bytes.Clone(b.buf.Bytes())
}
