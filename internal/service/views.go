package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/store"
)

// ProblemView is the JSON rendering of one problem: its stable key,
// description-size statistics, and the exact canonical serialization.
// The canonical text can be posted back as the "problem" field of any
// query (core.ParseAuto sniffs it), reproducing the exact
// representation and therefore the exact key.
type ProblemView struct {
	// Key is the lowercase-hex core.StableKey of the representation.
	Key string `json:"key"`
	// Delta is the problem's node-constraint arity Δ.
	Delta int `json:"delta"`
	// Labels counts the alphabet.
	Labels int `json:"labels"`
	// EdgeConfigs counts the edge constraint's configurations.
	EdgeConfigs int `json:"edge_configs"`
	// NodeConfigs counts the node constraint's configurations.
	NodeConfigs int `json:"node_configs"`
	// Canonical is the exact core.CanonicalBytes serialization.
	Canonical string `json:"canonical"`
}

// viewOf renders a problem. Pure: equal representations yield equal
// views, which is what makes every response body a deterministic
// function of its inputs.
func viewOf(p *core.Problem) ProblemView {
	s := p.Stats()
	canonical := p.CanonicalBytes()
	return ProblemView{
		Key:         core.StableKeyOf(canonical).String(),
		Delta:       s.Delta,
		Labels:      s.Labels,
		EdgeConfigs: s.EdgeConfigs,
		NodeConfigs: s.NodeConfigs,
		Canonical:   string(canonical),
	}
}

// StatusError carries the HTTP status a query failure maps to; the
// command-line clients map the same classes to their documented exit
// codes instead (400/404/422 are all "the decision could not be made",
// exit 1).
type StatusError struct {
	// Code is the HTTP status.
	Code int
	// Err is the underlying failure.
	Err error
}

// Error renders the underlying failure.
func (e *StatusError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *StatusError) Unwrap() error { return e.Err }

// badRequest tags a malformed-request failure (HTTP 400).
func badRequest(format string, args ...any) error {
	return &StatusError{Code: http.StatusBadRequest, Err: fmt.Errorf(format, args...)}
}

// notFound tags an unknown-resource failure (HTTP 404).
func notFound(format string, args ...any) error {
	return &StatusError{Code: http.StatusNotFound, Err: fmt.Errorf(format, args...)}
}

// infeasible tags a could-not-decide failure (HTTP 422): the request
// was well-formed but the computation gave up, e.g. on a state budget.
func infeasible(err error) error {
	return &StatusError{Code: http.StatusUnprocessableEntity, Err: err}
}

// unavailable tags a transient retryable failure (HTTP 503), e.g. a
// computation abandoned because its every subscriber departed.
func unavailable(format string, args ...any) error {
	return &StatusError{Code: http.StatusServiceUnavailable, Err: fmt.Errorf(format, args...)}
}

// StatusOf maps a query error to its HTTP status: an explicit
// StatusError's code, 503 for a shutting-down engine, 504 for a
// request that ran out of its wall-clock budget (the per-request
// timeout cmd/serve arms), 500 otherwise.
func StatusOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	if errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// Per-query ceilings. A shared daemon must bound the work one request
// can demand: budgets beyond these belong to batch tooling (cmd/sweep)
// on a machine the caller owns, not to a service multiplexing clients.
const (
	// MaxRequestSteps caps the iteration counts (speedup steps,
	// fixpoint max steps) a query may request.
	MaxRequestSteps = 64
	// MaxRequestStates caps a query's core.WithMaxStates budget at the
	// engine's own default: a request may tighten the enumeration
	// budget, never raise it.
	MaxRequestStates = 4_000_000
	// MaxVerifyN caps the verify endpoint's instance-family size bound
	// (the families grow exponentially in n).
	MaxVerifyN = 16
	// MaxVerifyRounds caps the decided round count (view classes grow
	// towerishly in t).
	MaxVerifyRounds = 8
)

// ValidateBudgets rejects the iteration/state budgets every
// speedup-flavoured entry point shares: maxSteps must be positive and
// maxStates non-negative. cmd/speedup, cmd/sweep and the HTTP handlers
// all call this, so the accepted domain cannot drift between them.
// (The upper caps above are service-query concerns and are enforced by
// the engine's request validation, not here — the batch CLIs stay
// uncapped.)
func ValidateBudgets(maxSteps, maxStates int) error {
	if maxSteps < 1 {
		return badRequest("max steps must be >= 1, got %d", maxSteps)
	}
	if maxStates < 0 {
		return badRequest("max states must be >= 0, got %d", maxStates)
	}
	return nil
}

// validateRequestBudgets applies the service-query ceilings on top of
// ValidateBudgets.
func validateRequestBudgets(maxSteps, maxStates int) error {
	if err := ValidateBudgets(maxSteps, maxStates); err != nil {
		return err
	}
	if maxSteps > MaxRequestSteps {
		return badRequest("max steps must be <= %d, got %d", MaxRequestSteps, maxSteps)
	}
	if maxStates > MaxRequestStates {
		return badRequest("max states must be <= %d, got %d", MaxRequestStates, maxStates)
	}
	return nil
}

// parseProblem parses a request's problem text (either format, see
// core.ParseAuto), mapping failure to a 400.
func parseProblem(text string) (*core.Problem, error) {
	if text == "" {
		return nil, badRequest("empty problem")
	}
	p, err := core.ParseAuto(text)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return p, nil
}

// OpenStepMemo is the shared store-or-memory memo wiring of the
// command-line clients: it opens the persistent result store at dir
// when non-empty and returns a step memo scoped to the given
// core.WithMaxStates budget, or a fresh in-memory memo (and a nil
// store) when dir is empty. The returned store handle lets callers
// also checkpoint trajectories (cmd/sweep) against the same directory.
func OpenStepMemo(dir string, maxStates int) (fixpoint.Memo, *store.Store, error) {
	if dir == "" {
		return fixpoint.NewMapMemo(), nil, nil
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	return st.StepMemo(maxStates), st, nil
}
