package store

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fixpoint"
)

// TrajectoryParams identifies the budget under which a trajectory was
// classified. Conclusive classifications (fixed point, cycle,
// collapsed, zero-round) do not depend on the budget that happened to
// be in force, but BudgetExceeded ones do — so the budget is part of
// the record identity, and a lookup only ever returns a result that a
// cold run with the same flags would have produced byte-identically.
type TrajectoryParams struct {
	// MaxSteps is the fixpoint iteration bound (fixpoint.Options.MaxSteps).
	MaxSteps int
	// MaxStates is the per-step core.WithMaxStates budget; 0 means the
	// core default was in force.
	MaxStates int
}

// tag renders the params into the key-derivation discriminator.
func (p TrajectoryParams) tag() string {
	return fmt.Sprintf("|traj|max_steps=%d|max_states=%d", p.MaxSteps, p.MaxStates)
}

// trajectoryPayload is the JSON payload of a KindTrajectory record: a
// fixpoint.Result with every problem in canonical serialization.
type trajectoryPayload struct {
	FPVersion  int      `json:"fp_version"`
	MaxSteps   int      `json:"max_steps"`
	MaxStates  int      `json:"max_states"`
	Input      string   `json:"input"`
	Kind       int      `json:"kind"`
	Steps      int      `json:"steps"`
	CycleStart int      `json:"cycle_start"`
	CycleLen   int      `json:"cycle_len"`
	Witness    [][2]int `json:"witness,omitempty"`
	ErrMsg     string   `json:"err,omitempty"`
	Trajectory []string `json:"trajectory"`
}

// PutTrajectory persists a classified fixpoint run: res must be the
// result of fixpoint.Run(in-equivalent, ...) under the given params.
// The full trajectory is stored, so a later GetTrajectory reproduces
// the result byte-for-byte (problems, classification, witness, and —
// for BudgetExceeded — the budget error message).
func (s *Store) PutTrajectory(in *core.Problem, par TrajectoryParams, res *fixpoint.Result) error {
	canonical := in.CanonicalBytes()
	payload := trajectoryPayload{
		FPVersion:  core.FingerprintVersion,
		MaxSteps:   par.MaxSteps,
		MaxStates:  par.MaxStates,
		Input:      string(canonical),
		Kind:       int(res.Kind),
		Steps:      res.Steps,
		CycleStart: res.CycleStart,
		CycleLen:   res.CycleLen,
		Trajectory: make([]string, len(res.Trajectory)),
	}
	for i, p := range res.Trajectory {
		payload.Trajectory[i] = string(p.CanonicalBytes())
	}
	for from, to := range res.Witness {
		payload.Witness = append(payload.Witness, [2]int{int(from), int(to)})
	}
	sort.Slice(payload.Witness, func(i, j int) bool { return payload.Witness[i][0] < payload.Witness[j][0] })
	if res.Err != nil {
		payload.ErrMsg = res.Err.Error()
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: put trajectory: %w", err)
	}
	return s.putRecord(KindTrajectory, subKey(core.StableKeyOf(canonical), par.tag()), data)
}

// GetTrajectory looks up the classified fixpoint run for the exact
// problem in under the exact params. Corrupt records surface their
// sentinel; records whose embedded input or params disagree with the
// query are a miss.
func (src Source) GetTrajectory(in *core.Problem, par TrajectoryParams) (*fixpoint.Result, bool, error) {
	canonical := in.CanonicalBytes()
	payload, ok, err := decode[trajectoryPayload](src, KindTrajectory, subKey(core.StableKeyOf(canonical), par.tag()))
	if !ok {
		return nil, false, err
	}
	if payload.FPVersion != core.FingerprintVersion ||
		payload.MaxSteps != par.MaxSteps || payload.MaxStates != par.MaxStates ||
		payload.Input != string(canonical) {
		return nil, false, nil
	}
	res := &fixpoint.Result{
		Kind:       fixpoint.Kind(payload.Kind),
		Steps:      payload.Steps,
		CycleStart: payload.CycleStart,
		CycleLen:   payload.CycleLen,
		Trajectory: make([]*core.Problem, len(payload.Trajectory)),
	}
	for i, text := range payload.Trajectory {
		p, err := core.ParseCanonical([]byte(text))
		if err != nil {
			return nil, false, fmt.Errorf("store: get trajectory: entry %d: %w", i, err)
		}
		res.Trajectory[i] = p
	}
	if len(payload.Witness) > 0 {
		res.Witness = make(core.LabelMap, len(payload.Witness))
		for _, pair := range payload.Witness {
			res.Witness[core.Label(pair[0])] = core.Label(pair[1])
		}
	}
	if payload.ErrMsg != "" {
		res.Err = &storedBudgetError{msg: payload.ErrMsg}
	}
	return res, true, nil
}

// storedBudgetError restores a persisted budget-exhaustion error: the
// original message byte-for-byte, still matching
// errors.Is(err, core.ErrStateBudget).
type storedBudgetError struct{ msg string }

func (e *storedBudgetError) Error() string { return e.msg }
func (e *storedBudgetError) Unwrap() error { return core.ErrStateBudget }
