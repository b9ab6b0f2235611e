package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// VerdictParams identifies the query a stored oracle verdict answers:
// the named problem, the instance family and its size/seed parameters,
// the round count, and whether the run was a single decision or the
// conformance harness. Family must be the resolved (non-empty) family
// name. The oracle's output is deterministic in these parameters plus
// the exact problem representation, and worker counts do not change its
// bytes, so they are not part of the identity.
type VerdictParams struct {
	// Problem is the catalog name the verdict envelope reports.
	Problem string
	// Rounds is the decided round count t (the conformance max for
	// conformance runs).
	Rounds int
	// MaxN is the sized-family bound.
	MaxN int
	// Family is the resolved instance-family name.
	Family string
	// Seed drives the shuffled/oriented family variants.
	Seed int64
	// Relaxed records oracle.WithRelaxedDegrees.
	Relaxed bool
	// Conformance distinguishes conformance reports from decisions.
	Conformance bool
}

// tag renders the params into the key-derivation discriminator.
func (p VerdictParams) tag() string {
	return fmt.Sprintf("|verdict|problem=%s|rounds=%d|n=%d|family=%s|seed=%d|relaxed=%t|conformance=%t",
		p.Problem, p.Rounds, p.MaxN, p.Family, p.Seed, p.Relaxed, p.Conformance)
}

// verdictPayload is the JSON payload of a KindVerdict record. Result
// holds the rendered verdict JSON verbatim — the store does not
// interpret it, it only replays it, so a warm lookup serves the exact
// bytes the cold run rendered.
type verdictPayload struct {
	FPVersion   int             `json:"fp_version"`
	Problem     string          `json:"problem"`
	Rounds      int             `json:"rounds"`
	MaxN        int             `json:"n"`
	Family      string          `json:"family"`
	Seed        int64           `json:"seed"`
	Relaxed     bool            `json:"relaxed"`
	Conformance bool            `json:"conformance"`
	Input       string          `json:"input"`
	Result      json.RawMessage `json:"result"`
}

// PutVerdict persists the rendered oracle verdict for the exact problem
// in under the exact params; result must be valid JSON (it is embedded
// as a raw message). Commit is atomic, like every record write.
func (s *Store) PutVerdict(in *core.Problem, par VerdictParams, result []byte) error {
	canonical := in.CanonicalBytes()
	payload, err := json.Marshal(verdictPayload{
		FPVersion:   core.FingerprintVersion,
		Problem:     par.Problem,
		Rounds:      par.Rounds,
		MaxN:        par.MaxN,
		Family:      par.Family,
		Seed:        par.Seed,
		Relaxed:     par.Relaxed,
		Conformance: par.Conformance,
		Input:       string(canonical),
		Result:      json.RawMessage(result),
	})
	if err != nil {
		return fmt.Errorf("store: put verdict: %w", err)
	}
	return s.putRecord(KindVerdict, subKey(core.StableKeyOf(canonical), par.tag()), payload)
}

// GetVerdict looks up the rendered oracle verdict for the exact problem
// in under the exact params. Corrupt records surface their sentinel;
// records whose embedded input or params disagree with the query are a
// miss.
func (src Source) GetVerdict(in *core.Problem, par VerdictParams) ([]byte, bool, error) {
	canonical := in.CanonicalBytes()
	payload, ok, err := decode[verdictPayload](src, KindVerdict, subKey(core.StableKeyOf(canonical), par.tag()))
	if !ok {
		return nil, false, err
	}
	if payload.FPVersion != core.FingerprintVersion ||
		payload.Problem != par.Problem || payload.Rounds != par.Rounds ||
		payload.MaxN != par.MaxN || payload.Family != par.Family ||
		payload.Seed != par.Seed || payload.Relaxed != par.Relaxed ||
		payload.Conformance != par.Conformance ||
		payload.Input != string(canonical) {
		return nil, false, nil
	}
	return []byte(payload.Result), true, nil
}
