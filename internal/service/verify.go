package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/problems"
	"repro/internal/store"
)

// VerifyRequest asks the brute-force solvability oracle about one
// catalog problem — a single decision, or the full conformance harness
// with Conformance. The fields mirror cmd/verify's flags; optional
// numeric fields are pointers so that an omitted field takes the
// documented default while an explicit 0 (e.g. a 0-round decision)
// stays 0.
type VerifyRequest struct {
	// Problem is the catalog problem name (see the catalog endpoint).
	Problem string `json:"problem"`
	// Rounds is the round count t to decide; omitted = 1.
	Rounds *int `json:"rounds,omitempty"`
	// MaxN bounds the sized instance families; omitted = 5.
	MaxN *int `json:"n,omitempty"`
	// Family names the instance family (oracle.FamilyNames); omitted =
	// oracle.DefaultFamilyName for the problem's Δ.
	Family string `json:"family,omitempty"`
	// Seed drives the shuffled/oriented family variants; omitted = 1.
	Seed *int64 `json:"seed,omitempty"`
	// Relaxed exempts nodes of degree != Δ from the node constraint
	// (tree families).
	Relaxed bool `json:"relaxed,omitempty"`
	// Conformance runs the conformance harness instead of a single
	// decision.
	Conformance bool `json:"conformance,omitempty"`
}

// Decision is the JSON envelope for a single oracle decision — the
// schema cmd/verify prints and the verify endpoint serves.
type Decision struct {
	// Problem is the catalog name decided.
	Problem string `json:"problem"`
	// Family is the resolved instance-family name.
	Family string `json:"family"`
	// Seed is the family seed in force.
	Seed int64 `json:"seed"`
	// Verdict is the oracle's verdict, witness included when solvable.
	Verdict *oracle.Verdict `json:"verdict"`
}

// VerifyResponse is a rendered oracle verdict.
type VerifyResponse struct {
	// Negative reports a completed negative outcome — a decided
	// UNSOLVABLE verdict or a failed conformance check. cmd/verify
	// exits 2 on it; the HTTP layer serves 409. (Exit 1 / HTTP 4xx
	// mean the decision could not be made at all.)
	Negative bool
	// Body is the compact-rendered verdict JSON: a Decision envelope,
	// or an oracle conformance Report.
	Body []byte
}

// Verify answers one oracle query. Rendered verdicts are cached in the
// persistent store (keyed by the problem's stable key plus every
// semantics-bearing parameter; worker counts do not change the bytes
// and are not part of the identity), so a warm verdict is served
// without rerunning the search and is byte-identical to the cold one.
func (e *Engine) Verify(ctx context.Context, req VerifyRequest) (*VerifyResponse, error) {
	if req.Problem == "" {
		return nil, badRequest("problem is required")
	}
	p, err := lookupCatalog(req.Problem)
	if err != nil {
		return nil, err
	}
	rounds := intOr(req.Rounds, 1)
	maxN := intOr(req.MaxN, 5)
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	// Lower bounds only: the engine serves both the CLI (uncapped — a
	// caller's own hardware, like cmd/sweep) and the HTTP service,
	// whose per-request ceilings (MaxVerifyRounds, MaxVerifyN) are
	// enforced by the handler before the request reaches the engine.
	if rounds < 0 {
		return nil, badRequest("rounds must be >= 0, got %d", rounds)
	}
	if maxN < 1 {
		return nil, badRequest("n must be >= 1, got %d", maxN)
	}
	family := req.Family
	if family == "" {
		family = oracle.DefaultFamilyName(p.Delta())
	}
	params := store.VerdictParams{
		Problem:     req.Problem,
		Rounds:      rounds,
		MaxN:        maxN,
		Family:      family,
		Seed:        seed,
		Relaxed:     req.Relaxed,
		Conformance: req.Conformance,
	}

	// The flight key renders every VerdictParams field via %+v, so it
	// cannot drift from the store-record identity the way a
	// hand-written field list could.
	key := fmt.Sprintf("verify|%s|%+v", core.StableKey(p), params)
	body, ok, _ := lookup(e, recordTier.GetVerdict, p, params)
	if ok {
		return &VerifyResponse{Negative: negativeOf(body), Body: body}, nil
	}
	val, err := e.inflight(ctx, key, nil, func(c *call) {
		c.finish(e.computeVerdict(p, params))
	})
	if err != nil {
		return nil, err
	}
	return val.(*VerifyResponse), nil
}

// computeVerdict runs the oracle under the admission gate and commits
// the rendered verdict to the sink.
func (e *Engine) computeVerdict(p *core.Problem, params store.VerdictParams) (any, error) {
	if err := e.enter(); err != nil {
		return nil, err
	}
	defer e.gate.Leave()

	opts := []oracle.Option{oracle.WithWorkers(e.workers)}
	if params.Relaxed {
		opts = append(opts, oracle.WithRelaxedDegrees())
	}
	var rendered any
	if params.Conformance {
		fams, err := oracle.DefaultFamilies(p.Delta(), params.Seed)
		if err != nil {
			return nil, infeasible(err)
		}
		maxT := params.Rounds
		if maxT < 1 {
			maxT = 1
		}
		rep, err := oracle.Conformance(params.Problem, p, fams, maxT, opts...)
		if err != nil {
			return nil, infeasible(err)
		}
		rendered = rep
	} else {
		insts, err := oracle.BuildFamily(params.Family, p.Delta(), params.MaxN, params.Seed)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		v, err := oracle.Decide(p, insts, params.Rounds, opts...)
		if err != nil {
			return nil, infeasible(err)
		}
		rendered = Decision{Problem: params.Problem, Family: params.Family, Seed: params.Seed, Verdict: v}
	}
	body, err := json.Marshal(rendered)
	if err != nil {
		return nil, err
	}
	_ = e.sink.PutVerdict(p, params, body)
	return &VerifyResponse{Negative: negativeOf(body), Body: body}, nil
}

// negativeOf recovers the negative/positive outcome from a rendered
// verdict body: a decision is negative when its verdict is unsolvable,
// a conformance report when it is not OK. Pure in the bytes, so cold
// and warm verdicts map to the same HTTP status and exit code.
func negativeOf(body []byte) bool {
	var probe struct {
		Verdict *struct {
			Solvable bool `json:"solvable"`
		} `json:"verdict"`
		OK *bool `json:"ok"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return false
	}
	if probe.Verdict != nil {
		return !probe.Verdict.Solvable
	}
	if probe.OK != nil {
		return !*probe.OK
	}
	return false
}

// lookupCatalog resolves a catalog problem name, mapping failure to a
// 404 that lists the known names.
func lookupCatalog(name string) (*core.Problem, error) {
	var known []string
	for _, e := range problems.Catalog() {
		if e.Name == name {
			return e.Problem, nil
		}
		known = append(known, e.Name)
	}
	sort.Strings(known)
	return nil, notFound("unknown problem %q; catalog: %s", name, strings.Join(known, ", "))
}

// intOr dereferences an optional int field.
func intOr(v *int, def int) int {
	if v == nil {
		return def
	}
	return *v
}
