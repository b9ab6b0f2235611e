// Package store is the content-addressed persistent result store of the
// reproduction: memoized speedup steps, rendered oracle verdicts and
// pre-rendered fixpoint response bodies, keyed by the stable
// fingerprint of their exact input problem (core.StableKey) and
// written as versioned, checksummed records with atomic
// rename-on-commit.
//
// Brandt's speedup transformation is a deterministic function of the
// problem representation, which makes its results perfectly cacheable:
// a record computed once is valid forever, until the semantics change —
// at which point core.FingerprintVersion is bumped, every key changes,
// and the old records become unreachable (the entire cache-invalidation
// story; no record is ever migrated or rewritten in place).
//
// On disk a store is a directory:
//
//	<root>/objects/<kk>/<64-hex-key>.step      one memoized speedup step
//	<root>/objects/<kk>/<64-hex-key>.verdict   one rendered oracle verdict
//	<root>/objects/<kk>/<64-hex-key>.rendered  one rendered fixpoint body
//
// where <kk> is the first two hex digits of the key (fan-out). A store
// written by an older version may also hold <key>.traj classified
// trajectories; nothing reads them and Pack leaves them out, but the
// kind stays registered, so such a store still opens. Each
// file is a framed record: an 8-byte magic, big-endian container
// version and kind, the payload length, a JSON payload, and a SHA-256
// checksum over everything preceding it. Readers validate the frame and
// additionally compare the payload's embedded canonical input against
// the queried problem, so a hash collision (or a mislabeled object)
// degrades to a cache miss, never to a wrong result.
//
// Concurrency: records are immutable once visible. Writers stage into a
// temp file and fsync+rename, so any number of concurrent readers and
// writers — including separate OS processes sweeping into one store
// directory — observe only complete records. All writers of one key
// produce identical bytes, so rename races are benign.
package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fixpoint"
)

// Store is a handle to one store directory. Its embedded Source reads
// object files, so its typed getters and RawRecord are the ones every
// record source shares. The zero value is not usable; call Open. A
// Store is safe for concurrent use by multiple goroutines (and the
// directory by multiple processes).
type Store struct {
	Source // readObject: the validated payload of one object file
	root   string
}

// Open initializes (creating directories as needed) and returns the
// store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{root: dir}
	s.Source = s.readObject
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// objectPath maps (kind, key) to the record's final path.
func (s *Store) objectPath(kind Kind, key core.StableFingerprint) string {
	hexKey := key.String()
	return filepath.Join(s.root, "objects", hexKey[:2], hexKey+"."+kind.Ext())
}

// putRecord frames and atomically commits a payload.
func (s *Store) putRecord(kind Kind, key core.StableFingerprint, payload []byte) error {
	return writeAtomic(s.objectPath(kind, key), encodeRecord(kind, payload))
}

// readObject is the store's Source: the payload of the object file
// under (kind, key), read and validated.
func (s *Store) readObject(kind Kind, key core.StableFingerprint) ([]byte, bool, error) {
	data, err := os.ReadFile(s.objectPath(kind, key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	payload, err := decodeRecord(data, kind)
	if err != nil {
		return nil, false, err
	}
	return payload, true, nil
}

// stepPayload is the JSON payload of a KindStep record. Input and
// Output are core.CanonicalBytes serializations; Input doubles as a
// collision guard (GetStep compares it against the queried problem).
type stepPayload struct {
	FPVersion int    `json:"fp_version"`
	MaxStates int    `json:"max_states"`
	Input     string `json:"input"`
	Output    string `json:"output"`
}

// stepKey derives the step-record key: the input problem (by its
// canonical serialization) plus the state budget the step ran under. The budget is part of the identity
// for the same reason it is in TrajectoryParams — a step computed
// under a generous budget must not answer for a run whose tighter
// budget would have exhausted mid-step, or a warm store would change
// classifications relative to a cold run with identical flags.
func stepKey(canonical []byte, maxStates int) core.StableFingerprint {
	return subKey(core.StableKeyOf(canonical), fmt.Sprintf("|step|max_states=%d", maxStates))
}

// PutStep persists one memoized speedup step: in is the exact problem
// the step was applied to, out the compact-renamed derived problem
// (what fixpoint.Run appends to a trajectory), maxStates the
// core.WithMaxStates budget in force (0 = engine default). The record
// is committed atomically; it is safe to race with readers and other
// writers.
func (s *Store) PutStep(in, out *core.Problem, maxStates int) error {
	canonical := in.CanonicalBytes()
	payload, err := json.Marshal(stepPayload{
		FPVersion: core.FingerprintVersion,
		MaxStates: maxStates,
		Input:     string(canonical),
		Output:    string(out.CanonicalBytes()),
	})
	if err != nil {
		return fmt.Errorf("store: put step: %w", err)
	}
	return s.putRecord(KindStep, stepKey(canonical, maxStates), payload)
}

// GetStep looks up the memoized speedup step for the exact problem in
// under the exact state budget. A present-but-corrupt record is
// reported via one of the corruption sentinels; a record whose embedded
// input or budget does not match the query (hash collision, foreign
// file) is a miss.
func (src Source) GetStep(in *core.Problem, maxStates int) (*core.Problem, bool, error) {
	canonical := in.CanonicalBytes()
	rec, ok, err := decode[stepPayload](src, KindStep, stepKey(canonical, maxStates))
	if !ok {
		return nil, false, err
	}
	if rec.FPVersion != core.FingerprintVersion || rec.MaxStates != maxStates ||
		rec.Input != string(canonical) {
		return nil, false, nil
	}
	out, err := core.ParseCanonical([]byte(rec.Output))
	if err != nil {
		return nil, false, fmt.Errorf("store: get step: %w", err)
	}
	return out, true, nil
}

// StepMemo returns a fixpoint.Memo view of the store scoped to one
// state budget (core.WithMaxStates; 0 = engine default). The caller
// must pass the same budget it forwards to fixpoint.Options.Core —
// that is what keeps a warm store byte-identical to a cold run with
// the same flags. Every lookup failure — I/O, corruption, collision —
// degrades to a cache miss, and write failures are dropped, so a
// damaged store can slow a run down but never fail or poison it.
func (s *Store) StepMemo(maxStates int) fixpoint.Memo {
	return stepMemo{s: s, maxStates: maxStates}
}

// stepMemo adapts budget-scoped step records to fixpoint.Memo.
type stepMemo struct {
	s         *Store
	maxStates int
}

// LookupStep returns the memoized compact derived problem of in.
func (m stepMemo) LookupStep(in *core.Problem) (*core.Problem, bool) {
	out, ok, err := m.s.GetStep(in, m.maxStates)
	if err != nil || !ok {
		return nil, false
	}
	return out, true
}

// StoreStep records that one speedup step maps in to out.
func (m stepMemo) StoreStep(in, out *core.Problem) {
	_ = m.s.PutStep(in, out, m.maxStates)
}

// subKey derives a distinct key from a problem key and a discriminator
// tag, for record types parameterized beyond the input problem.
func subKey(base core.StableFingerprint, tag string) core.StableFingerprint {
	h := sha256.New()
	h.Write(base[:])
	h.Write([]byte(tag))
	var out core.StableFingerprint
	h.Sum(out[:0])
	return out
}
