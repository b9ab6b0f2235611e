package store

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// Source fetches the validated payload stored under (kind, key) from
// one place records live: ok is false when there is none, and a
// damaged record reports its corruption sentinel. Its methods are the
// typed getters every source shares — GetStep, GetRendered and
// GetVerdict, each written once — plus RawRecord. A
// getter derives the record key from its query once, fetches the
// payload and runs the collision guard: a payload whose embedded input
// or parameters disagree with the query is a miss, never a wrong
// result. *Store reads object files, *PackReader binary-searches its
// key table, FrameSource reads the one frame a peer shipped, and Chain
// consults several sources under one key, so every source answers
// identical payload bytes identically.
type Source func(kind Kind, key core.StableFingerprint) ([]byte, bool, error)

// Chain consults srcs in order under one key and returns the first
// hit. A damaged record falls through to the next source, and its
// sentinel is reported only when no source hits: a damaged tier costs
// warmth, never availability. Nil sources are skipped, so callers can
// pass optional tiers unconditionally; a chain of none is nil.
func Chain(srcs ...Source) Source {
	var live []Source
	for _, src := range srcs {
		if src != nil {
			live = append(live, src)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return func(kind Kind, key core.StableFingerprint) ([]byte, bool, error) {
		var damaged error
		for _, src := range live {
			payload, ok, err := src(kind, key)
			if ok {
				return payload, true, nil
			}
			if damaged == nil {
				damaged = err
			}
		}
		return nil, false, damaged
	}
}

// RawRecord returns the record under (kind, key) as complete framed
// bytes: the fetched payload, framed by the store's record encoder.
// Framing is deterministic, so the frame is byte-identical to the
// object file the payload was committed as, whichever source fetched
// it — a peer serves pack and store records indistinguishably. A
// damaged record yields its corruption sentinel, never bytes, so a
// peer server built on RawRecord only ships frames that were intact at
// their source.
func (src Source) RawRecord(kind Kind, key core.StableFingerprint) ([]byte, bool, error) {
	payload, ok, err := src(kind, key)
	if !ok {
		return nil, false, err
	}
	return encodeRecord(kind, payload), true, nil
}

// FrameSource reads the one record frame a peer shipped. The frame
// carries no key, so it answers every key, once the frame validates as
// the asked kind (magic, container version, kind, length, SHA-256
// trailer); the typed getter's collision guard is what then ties the
// payload to the query. Nothing the wire delivered is trusted before
// both checks pass, so a corrupt or byzantine peer degrades to a miss.
func FrameSource(frame []byte) Source {
	return func(kind Kind, _ core.StableFingerprint) ([]byte, bool, error) {
		payload, err := decodeRecord(frame, kind)
		return payload, err == nil, err
	}
}

// decode fetches the payload under (kind, key) through src and
// unmarshals it into a new P, which only a hit allocates. ok is false
// when the record is absent or damaged.
func decode[P any](src Source, kind Kind, key core.StableFingerprint) (*P, bool, error) {
	payload, ok, err := src(kind, key)
	if !ok {
		return nil, false, err
	}
	rec := new(P)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, false, fmt.Errorf("store: decode %s record: %w", kind.Ext(), err)
	}
	return rec, true, nil
}
