package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// SpeedupRequest asks for the speedup transformation of one problem:
// either Steps full steps Π → Π'_1 → … (each compact-renamed, exactly
// the per-step normal form the fixpoint driver and the result store
// use) or, with Half, the single half step Π → Π'_1/2.
type SpeedupRequest struct {
	// Problem is the input problem, in the human text format or the
	// canonical serialization (sniffed by core.ParseAuto).
	Problem string `json:"problem"`
	// Half selects the half step Π → Π'_1/2; it cannot be combined
	// with Steps > 1.
	Half bool `json:"half,omitempty"`
	// Steps is the number of full steps to apply; 0 means 1, at most
	// MaxRequestSteps.
	Steps int `json:"steps,omitempty"`
	// MaxStates is the per-step core.WithMaxStates enumeration budget;
	// 0 selects the engine default. The budget is part of the cache
	// identity (a step computed under one budget never answers for
	// another).
	MaxStates int `json:"max_states,omitempty"`
}

// SpeedupResponse carries the derived problems, one view per applied
// step (a single entry for Half).
type SpeedupResponse struct {
	// Input is the parsed input problem as served: its key is the
	// stable key the query was deduplicated and cached under.
	Input ProblemView `json:"input"`
	// Half echoes the request's half flag.
	Half bool `json:"half,omitempty"`
	// Derived holds Π'_1 … Π'_steps (or just Π'_1/2 with Half), each
	// compact-renamed.
	Derived []ProblemView `json:"derived"`
}

// Speedup answers one speedup query: steps are served from the
// budget-scoped step memo (the persistent store when configured),
// computed under the admission gate on a miss, and committed back, so
// identical queries are deduplicated in flight and byte-identical warm
// or cold.
func (e *Engine) Speedup(ctx context.Context, req SpeedupRequest) (*SpeedupResponse, error) {
	steps := req.Steps
	if steps == 0 {
		steps = 1
	}
	if err := validateRequestBudgets(steps, req.MaxStates); err != nil {
		return nil, err
	}
	if req.Half && steps != 1 {
		return nil, badRequest("half cannot be combined with steps > 1")
	}
	p, err := parseProblem(req.Problem)
	if err != nil {
		return nil, err
	}

	key := fmt.Sprintf("speedup|%s|half=%t|steps=%d|max_states=%d",
		core.StableKey(p), req.Half, steps, req.MaxStates)
	val, err := e.inflight(ctx, key, nil, func(c *call) {
		c.finish(e.computeSpeedup(p, req.Half, steps, req.MaxStates))
	})
	if err != nil {
		return nil, err
	}
	return val.(*SpeedupResponse), nil
}

// computeSpeedup runs (or replays) the requested transformation.
func (e *Engine) computeSpeedup(p *core.Problem, half bool, steps, maxStates int) (*SpeedupResponse, error) {
	resp := &SpeedupResponse{Input: viewOf(p), Half: half}
	if half {
		out, err := e.halfStep(p, maxStates)
		if err != nil {
			return nil, err
		}
		resp.Derived = []ProblemView{viewOf(out)}
		return resp, nil
	}
	memo, failures := stepMemo{e: e, maxStates: maxStates}, e.failureMemo(maxStates)
	cur := p
	for i := 0; i < steps; i++ {
		next, hit := memo.LookupStep(cur)
		if !hit {
			if err, failed := failures.LookupFailure(cur); failed {
				return nil, infeasible(err)
			}
			if err := e.enter(); err != nil {
				return nil, err
			}
			derived, err := core.Speedup(cur, e.coreOpts(maxStates)...)
			e.gate.Leave()
			if err != nil {
				if errors.Is(err, core.ErrStateBudget) {
					failures.StoreFailure(cur, err)
					return nil, infeasible(err)
				}
				return nil, err
			}
			next, _ = derived.RenameCompact()
			memo.StoreStep(cur, next)
		}
		resp.Derived = append(resp.Derived, viewOf(next))
		cur = next
	}
	return resp, nil
}

// halfStep computes (or replays from the in-process cache) a
// compact-renamed half step. Half steps have no persistent record kind
// — the store keeps full-step normal forms only — so their warmth is
// scoped to the process and bounded by maxMemRecords.
func (e *Engine) halfStep(p *core.Problem, maxStates int) (*core.Problem, error) {
	key := fmt.Sprintf("%s|max_states=%d", core.StableKey(p), maxStates)
	out, ok := e.halves.get(key)
	e.metrics.warmLookup("half", warmOutcome(ok, nil))
	if ok {
		return out, nil
	}
	if err := e.enter(); err != nil {
		return nil, err
	}
	derived, err := core.HalfStep(p, e.coreOpts(maxStates)...)
	e.gate.Leave()
	if err != nil {
		if errors.Is(err, core.ErrStateBudget) {
			return nil, infeasible(err)
		}
		return nil, err
	}
	out, _ = derived.RenameCompact()
	e.halves.put(key, out)
	return out, nil
}
