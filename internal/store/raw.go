package store

import (
	"os"

	"repro/internal/core"
)

// This file is the store's raw-record surface: whole framed records —
// header, payload, SHA-256 trailer — exposed as byte slices, plus the
// exported key derivations and frame decoders a transport needs to
// move records between stores without ever trusting the wire. It
// exists for internal/cluster's peer protocol: the serving side ships
// validated frames verbatim, and the receiving side re-runs the full
// decode (frame checksum, container version, kind, and the payload's
// embedded canonical-input collision guard) before using a single
// byte, so a corrupt or byzantine peer degrades to a cache miss, never
// to a wrong result.

// StepRecordKey derives the object key of the memoized speedup step
// for problem in under the given state budget — the same key PutStep
// and GetStep use internally.
func StepRecordKey(in *core.Problem, maxStates int) core.StableFingerprint {
	return stepKey(in.CanonicalBytes(), maxStates)
}

// RenderedRecordKey derives the object key of the pre-rendered
// response body for problem in under the given params — the same key
// PutRendered and GetRendered use internally.
func RenderedRecordKey(in *core.Problem, par TrajectoryParams) core.StableFingerprint {
	return subKey(core.StableKey(in), renderedTag(par))
}

// RawRecord returns the complete framed record bytes stored under
// (kind, key) — exactly the file the store committed. The frame is
// validated before it is returned: a present-but-corrupt record yields
// its corruption sentinel (ErrBadMagic, ErrVersionMismatch,
// ErrKindMismatch, ErrTruncated, ErrChecksum), never damaged bytes, so
// a peer server built on RawRecord can only ship frames that were
// intact on its own disk. ok is false when no record exists.
func (s *Store) RawRecord(kind Kind, key core.StableFingerprint) ([]byte, bool, error) {
	data, err := os.ReadFile(s.objectPath(kind, key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if _, derr := decodeRecord(data, kind); derr != nil {
		return nil, false, derr
	}
	return data, true, nil
}

// payload is the store's recordReader: the payload of the record
// RawRecord read and validated.
func (s *Store) payload(kind Kind, key core.StableFingerprint) ([]byte, bool, error) {
	frame, ok, err := s.RawRecord(kind, key)
	if !ok {
		return nil, false, err
	}
	return frame[recordHeaderSize : len(frame)-checksumSize], true, nil
}

// RawRecord returns the record under (kind, key) as complete framed
// bytes, re-framing the pack's stored payload through the store's
// record encoder. Framing is deterministic, so the frame is
// byte-identical to the store file the payload was packed from — a
// peer can serve pack-tier and store-tier records indistinguishably.
// The error return is always nil (the pack was fully validated at
// open); the signature matches (*Store).RawRecord so both back one
// RecordSource interface.
func (pr *PackReader) RawRecord(kind Kind, key core.StableFingerprint) ([]byte, bool, error) {
	payload, ok, _ := pr.lookup(kind, key)
	if !ok {
		return nil, false, nil
	}
	return encodeRecord(kind, payload), true, nil
}

// frameReader reads the one record frame a peer shipped. The frame
// carries no key, so it answers every key: its own validation and the
// payload's collision guard are what tie it to the query.
func frameReader(frame []byte) recordReader {
	return func(kind Kind, _ core.StableFingerprint) ([]byte, bool, error) {
		payload, err := decodeRecord(frame, kind)
		return payload, err == nil, err
	}
}

// DecodeStepRecord validates a transported step-record frame against
// the queried problem and budget and returns the decoded output
// problem. The full receiving-side trust chain runs here: frame magic,
// container version, kind, length, SHA-256 trailer, then the payload's
// embedded input/budget collision guard. Any frame damage yields a
// corruption sentinel; a guard mismatch is a miss (ok false, err nil).
func DecodeStepRecord(frame []byte, in *core.Problem, maxStates int) (*core.Problem, bool, error) {
	return frameReader(frame).GetStep(in, maxStates)
}

// DecodeRenderedRecord validates a transported rendered-body frame
// against the queried problem and params and returns the exact NDJSON
// response body — the same trust chain as DecodeStepRecord.
func DecodeRenderedRecord(frame []byte, in *core.Problem, par TrajectoryParams) ([]byte, bool, error) {
	return frameReader(frame).GetRendered(in, par)
}
