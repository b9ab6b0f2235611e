package store

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fixpoint"
)

// TrajectoryParams identifies the budget under which a fixpoint query
// was classified, and with the input problem it keys the query's
// rendered record. Conclusive classifications (fixed point, cycle,
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

// tag renders the params into the key-derivation discriminator of a
// KindTrajectory record.
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

// PutTrajectory persists a classified fixpoint run as a KindTrajectory
// record: res must be the result of fixpoint.Run(in-equivalent, ...)
// under the given params. Nothing in the program writes or reads these
// records any more — the rendered record holds the same trajectory and
// is what every warm path serves, and Pack leaves them out. The method
// stays for servebench's put probe, which times it next to PutRendered.
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
