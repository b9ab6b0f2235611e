package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// renderedTag renders TrajectoryParams into the key-derivation
// discriminator of a KindRendered record. A rendered record's identity
// is the query's — (StableKey, MaxSteps, MaxStates) — under a tag of
// its own, distinct from the trajectory kind's, so an older store's
// trajectory record never shares a key with a rendered one.
func renderedTag(p TrajectoryParams) string {
	return fmt.Sprintf("|rendered|max_steps=%d|max_states=%d", p.MaxSteps, p.MaxStates)
}

// renderedPayload is the JSON payload of a KindRendered record. Body
// holds the exact NDJSON response body verbatim — the store does not
// interpret it, only replays it, like a verdict's Result. Input is the
// canonical problem serialization, doubling as the collision guard.
type renderedPayload struct {
	FPVersion int    `json:"fp_version"`
	MaxSteps  int    `json:"max_steps"`
	MaxStates int    `json:"max_states"`
	Input     string `json:"input"`
	Body      string `json:"body"`
}

// PutRendered persists the pre-rendered NDJSON response body of the
// classified fixpoint query for the exact problem in under the exact
// params. body must be the exact bytes the cold stream emitted —
// committing anything else would break the byte-identity contract that
// makes the rendered tier indistinguishable from re-rendering. Commit
// is atomic, like every record write.
func (s *Store) PutRendered(in *core.Problem, par TrajectoryParams, body []byte) error {
	canonical := in.CanonicalBytes()
	payload, err := json.Marshal(renderedPayload{
		FPVersion: core.FingerprintVersion,
		MaxSteps:  par.MaxSteps,
		MaxStates: par.MaxStates,
		Input:     string(canonical),
		Body:      string(body),
	})
	if err != nil {
		return fmt.Errorf("store: put rendered: %w", err)
	}
	return s.putRecord(KindRendered, subKey(core.StableKeyOf(canonical), renderedTag(par)), payload)
}

// GetRendered looks up the pre-rendered response body for the exact
// problem in under the exact params. Corrupt records surface their
// sentinel; records whose embedded input or params disagree with the
// query are a miss — in both cases the caller degrades to replaying
// the steps (or recomputing), never to a wrong body.
func (src Source) GetRendered(in *core.Problem, par TrajectoryParams) ([]byte, bool, error) {
	canonical := in.CanonicalBytes()
	payload, ok, err := decode[renderedPayload](src, KindRendered, subKey(core.StableKeyOf(canonical), renderedTag(par)))
	if !ok {
		return nil, false, err
	}
	if payload.FPVersion != core.FingerprintVersion ||
		payload.MaxSteps != par.MaxSteps || payload.MaxStates != par.MaxStates ||
		payload.Input != string(canonical) {
		return nil, false, nil
	}
	return []byte(payload.Body), true, nil
}
