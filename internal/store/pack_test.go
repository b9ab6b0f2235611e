package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/problems"
)

// packParams is the fixpoint budget the pack tests populate under —
// small enough to stay fast, identical across populate and lookup.
var packParams = TrajectoryParams{MaxSteps: 2, MaxStates: 8_000}

// packVerdictParams is the verdict identity the pack tests store under.
var packVerdictParams = VerdictParams{
	Problem: "sinkless-coloring/delta=3", Rounds: 1, MaxN: 3, Family: "regular", Seed: 1,
}

// packRun classifies p under packParams with s's step memo, so the run
// commits its step records (or, when they are there, replays them).
func packRun(t testing.TB, s *Store, p *core.Problem) *fixpoint.Result {
	t.Helper()
	res, err := fixpoint.Run(p, fixpoint.Options{
		MaxSteps: packParams.MaxSteps,
		Core:     []core.Option{core.WithMaxStates(packParams.MaxStates), core.WithWorkers(1)},
		Memo:     s.StepMemo(packParams.MaxStates),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// populatePackStore fills s with a representative record mix — step
// records (via the memo), rendered checkpoints, and a rendered
// verdict — and returns the problems it used.
func populatePackStore(t testing.TB, s *Store) []*core.Problem {
	t.Helper()
	probs := []*core.Problem{
		problems.SinklessColoring(3),
		problems.SinklessOrientation(3),
		problems.WeakTwoColoringPointer(3),
	}
	for _, p := range probs {
		if err := s.PutRendered(p, packParams, testBody(packRun(t, s, p))); err != nil {
			t.Fatal(err)
		}
	}
	rendered := []byte(`{"problem":"sinkless-coloring/delta=3","solvable":true}`)
	if err := s.PutVerdict(probs[0], packVerdictParams, rendered); err != nil {
		t.Fatal(err)
	}
	return probs
}

// objectFiles returns relative path → content for every object in the
// store.
func objectFiles(t *testing.T, s *Store) map[string][]byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Root(), "objects", "*", "*.*"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(matches))
	for _, m := range matches {
		rel, err := filepath.Rel(s.Root(), m)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		files[rel] = data
	}
	return files
}

// packOf packs s into a fresh file and returns the opened reader plus
// the artifact path. The reader is closed with the test.
func packOf(t *testing.T, s *Store) (*PackReader, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "warm.repack")
	if _, err := s.Pack(path); err != nil {
		t.Fatal(err)
	}
	pr, err := OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pr.Close() })
	return pr, path
}

// TestPackRoundTripIdentity is the pack acceptance lock: every lookup
// served from the pack is byte-identical to the JSON store's answer,
// unpacking rematerializes byte-identical object files, and
// pack → unpack → pack reproduces the artifact bit-exactly.
func TestPackRoundTripIdentity(t *testing.T) {
	s := openTemp(t)
	probs := populatePackStore(t, s)
	pr, packPath := packOf(t, s)

	if pr.Len() == 0 {
		t.Fatal("pack is empty")
	}

	// Every rendered body, step, and verdict answers identically from
	// both tiers.
	for i, p := range probs {
		want, ok, err := s.GetRendered(p, packParams)
		if !ok || err != nil {
			t.Fatalf("store rendered %d: ok=%v err=%v", i, ok, err)
		}
		got, ok, err := pr.GetRendered(p, packParams)
		if !ok || err != nil {
			t.Fatalf("pack rendered %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rendered %d not byte-identical across tiers", i)
		}
		// Step records: walk the trajectory re-asking the memo
		// questions.
		res := packRun(t, s, p)
		for j := 0; j+1 < len(res.Trajectory); j++ {
			in := res.Trajectory[j]
			sOut, sOK, _ := s.GetStep(in, packParams.MaxStates)
			pOut, pOK, perr := pr.GetStep(in, packParams.MaxStates)
			if sOK != pOK || perr != nil {
				t.Fatalf("step (%d,%d): store ok=%v, pack ok=%v err=%v", i, j, sOK, pOK, perr)
			}
			if sOK && !bytes.Equal(sOut.CanonicalBytes(), pOut.CanonicalBytes()) {
				t.Fatalf("step (%d,%d) not byte-identical across tiers", i, j)
			}
		}
	}
	wantV, ok, err := s.GetVerdict(probs[0], packVerdictParams)
	if !ok || err != nil {
		t.Fatalf("store verdict: ok=%v err=%v", ok, err)
	}
	gotV, ok, err := pr.GetVerdict(probs[0], packVerdictParams)
	if !ok || err != nil {
		t.Fatalf("pack verdict: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(gotV, wantV) {
		t.Fatalf("verdict bytes differ: %q vs %q", gotV, wantV)
	}

	// Walk: sorted key order, full coverage.
	var keys [][]byte
	if err := pr.Walk(func(kind Kind, key core.StableFingerprint, payload []byte) error {
		kb := append([]byte{byte(kind)}, key[:]...)
		keys = append(keys, kb)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != pr.Len() {
		t.Fatalf("walk visited %d of %d records", len(keys), pr.Len())
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
		t.Fatal("walk order is not sorted")
	}

	// Unpack rematerializes byte-identical object files...
	s2 := openTemp(t)
	n, err := Unpack(pr, s2)
	if err != nil {
		t.Fatal(err)
	}
	if n != pr.Len() {
		t.Fatalf("unpacked %d of %d records", n, pr.Len())
	}
	orig, rebuilt := objectFiles(t, s), objectFiles(t, s2)
	if len(orig) != len(rebuilt) {
		t.Fatalf("object count differs after unpack: %d vs %d", len(orig), len(rebuilt))
	}
	for rel, data := range orig {
		if !bytes.Equal(rebuilt[rel], data) {
			t.Fatalf("object %s not byte-identical after unpack", rel)
		}
	}

	// ...and re-packing the rebuilt store reproduces the artifact
	// bit-exactly.
	pack2 := filepath.Join(t.TempDir(), "warm2.repack")
	if _, err := s2.Pack(pack2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(pack2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("pack → unpack → pack is not bit-exact: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestPackLookupMisses: absent keys and foreign parameters miss, never
// mis-serve.
func TestPackLookupMisses(t *testing.T) {
	s := openTemp(t)
	probs := populatePackStore(t, s)
	pr, _ := packOf(t, s)

	other := TrajectoryParams{MaxSteps: packParams.MaxSteps + 1, MaxStates: packParams.MaxStates}
	if _, ok, err := pr.GetRendered(probs[0], other); ok || err != nil {
		t.Fatalf("different params: ok=%v err=%v, want miss", ok, err)
	}
	if _, ok, err := pr.GetRendered(problems.SinklessColoring(4), packParams); ok || err != nil {
		t.Fatalf("absent problem: ok=%v err=%v, want miss", ok, err)
	}
	if _, ok, err := pr.GetStep(probs[0], packParams.MaxStates+1); ok || err != nil {
		t.Fatalf("different budget: ok=%v err=%v, want miss", ok, err)
	}
	if _, ok, err := pr.GetVerdict(probs[0], VerdictParams{Problem: "other"}); ok || err != nil {
		t.Fatalf("absent verdict: ok=%v err=%v, want miss", ok, err)
	}
}

// TestPackClosedDegradesToMiss: lookups after Close return misses
// (never touch the released mapping), and Close is idempotent.
func TestPackClosedDegradesToMiss(t *testing.T) {
	s := openTemp(t)
	probs := populatePackStore(t, s)
	pr, _ := packOf(t, s)
	if err := pr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok, err := pr.GetRendered(probs[0], packParams); ok || err != nil {
		t.Fatalf("closed pack lookup: ok=%v err=%v, want miss", ok, err)
	}
	if err := pr.Walk(func(Kind, core.StableFingerprint, []byte) error { return nil }); err == nil {
		t.Fatal("Walk on a closed pack succeeded")
	}
}

// mutatePack rewrites the pack file through fn.
func mutatePack(t *testing.T, path string, fn func(data []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPackCorruption: every damage mode fails OpenPack with its
// sentinel — the serve path degrades on exactly these errors.
func TestPackCorruption(t *testing.T) {
	build := func(t *testing.T) string {
		s := openTemp(t)
		populatePackStore(t, s)
		path := filepath.Join(t.TempDir(), "warm.repack")
		if _, err := s.Pack(path); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("flipped byte", func(t *testing.T) {
		path := build(t)
		mutatePack(t, path, func(data []byte) []byte {
			data[len(data)/2] ^= 0x40
			return data
		})
		if _, err := OpenPack(path); !errors.Is(err, ErrChecksum) {
			t.Fatalf("OpenPack = %v, want ErrChecksum", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		path := build(t)
		mutatePack(t, path, func(data []byte) []byte { return data[:len(data)-7] })
		if _, err := OpenPack(path); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("OpenPack = %v, want ErrChecksum or ErrTruncated", err)
		}
	})
	t.Run("sub-header", func(t *testing.T) {
		path := build(t)
		mutatePack(t, path, func(data []byte) []byte { return data[:packHeaderSize-1] })
		if _, err := OpenPack(path); !errors.Is(err, ErrTruncated) {
			t.Fatalf("OpenPack = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		path := build(t)
		mutatePack(t, path, func(data []byte) []byte {
			copy(data[:8], "NOTAPACK")
			return data
		})
		if _, err := OpenPack(path); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("OpenPack = %v, want ErrBadMagic", err)
		}
	})
	reseal := func(data []byte) []byte {
		copy(data[len(data)-checksumSize:], shaOf(data[:len(data)-checksumSize]))
		return data
	}
	t.Run("container version", func(t *testing.T) {
		path := build(t)
		mutatePack(t, path, func(data []byte) []byte {
			binary.BigEndian.PutUint32(data[8:12], PackFormatVersion+1)
			return reseal(data)
		})
		if _, err := OpenPack(path); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("OpenPack = %v, want ErrVersionMismatch", err)
		}
	})
	t.Run("fingerprint version", func(t *testing.T) {
		path := build(t)
		mutatePack(t, path, func(data []byte) []byte {
			binary.BigEndian.PutUint32(data[12:16], uint32(core.FingerprintVersion+1))
			return reseal(data)
		})
		if _, err := OpenPack(path); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("OpenPack = %v, want ErrVersionMismatch", err)
		}
	})
}

// resealPack recomputes a pack image's SHA-256 trailer, so a mutated
// image reaches the checks that follow the checksum.
func resealPack(data []byte) []byte {
	copy(data[len(data)-checksumSize:], shaOf(data[:len(data)-checksumSize]))
	return data
}

// swapFirstKeys swaps keys 0 and 1 of a pack image's key table.
func swapFirstKeys(data []byte) []byte {
	k0 := data[packHeaderSize : packHeaderSize+packKeyLen]
	k1 := data[packHeaderSize+packKeyLen : packHeaderSize+2*packKeyLen]
	var tmp [packKeyLen]byte
	copy(tmp[:], k0)
	copy(k0, k1)
	copy(k1, tmp[:])
	return data
}

// TestPackRefusesStaleAndUnsortedPacks: OpenPack refuses a pack of the
// previous format and a pack whose key table is not strictly increasing
// (binary search would miss records in it), each resealed so that its
// checksum holds.
func TestPackRefusesStaleAndUnsortedPacks(t *testing.T) {
	s := openTemp(t)
	populatePackStore(t, s)
	_, path := packOf(t, s)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Clone(valid)
	binary.BigEndian.PutUint32(stale[8:12], PackFormatVersion-1)
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"previous format": {resealPack(stale), ErrVersionMismatch},
		"unsorted keys":   {resealPack(swapFirstKeys(bytes.Clone(valid))), ErrTruncated},
	} {
		bad := filepath.Join(t.TempDir(), "bad.repack")
		if err := os.WriteFile(bad, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenPack(bad); !errors.Is(err, tc.want) {
			t.Errorf("%s: OpenPack = %v, want %v", name, err, tc.want)
		}
	}
}

// FuzzParsePack fuzzes the pack parser past its checksum: each input
// gets the current magic and versions and a recomputed SHA-256 trailer
// before parsing, so mutations reach the section geometry, the entry
// bounds and the key-order check. parsePack must fail, or return a
// reader whose Walk visits Len records that each look up to their own
// payload; it must never panic.
func FuzzParsePack(f *testing.F) {
	s := openTemp(f)
	populatePackStore(f, s)
	path := filepath.Join(f.TempDir(), "seed.repack")
	if _, err := s.Pack(path); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:packHeaderSize])
	f.Add(swapFirstKeys(bytes.Clone(valid)))

	type record struct {
		kind    Kind
		key     core.StableFingerprint
		payload []byte
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if len(data) >= packHeaderSize+checksumSize {
			copy(data, packMagic)
			binary.BigEndian.PutUint32(data[8:12], PackFormatVersion)
			binary.BigEndian.PutUint32(data[12:16], uint32(core.FingerprintVersion))
			resealPack(data)
		}
		pr, err := parsePack(data)
		if err != nil {
			return
		}
		var walked []record
		if err := pr.Walk(func(kind Kind, key core.StableFingerprint, payload []byte) error {
			walked = append(walked, record{kind, key, payload})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(walked) != pr.Len() {
			t.Fatalf("walk visited %d of %d records", len(walked), pr.Len())
		}
		for i, r := range walked {
			if got, ok, _ := pr.lookup(r.kind, r.key); !ok || !bytes.Equal(got, r.payload) {
				t.Fatalf("record %d does not look up to itself", i)
			}
		}
	})
}

// TestPackSkipsCorruptRecords: a damaged record costs the artifact one
// entry, never the whole pack.
func TestPackSkipsCorruptRecords(t *testing.T) {
	s := openTemp(t)
	in, _ := putOneStep(t, s)
	probs := populatePackStore(t, s)

	// Count clean records, then corrupt the one putOneStep wrote.
	clean, err := s.Pack(filepath.Join(t.TempDir(), "clean.repack"))
	if err != nil {
		t.Fatal(err)
	}
	victim := s.objectPath(KindStep, stepKey(in.CanonicalBytes(), 0))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeaderSize] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "warm.repack")
	stats, err := s.Pack(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 || stats.Entries != clean.Entries-1 {
		t.Fatalf("stats = %+v, want Skipped=1 Entries=%d", stats, clean.Entries-1)
	}
	pr, err := OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if _, ok, err := pr.GetStep(in, 0); ok || err != nil {
		t.Fatalf("corrupt record leaked into the pack: ok=%v err=%v", ok, err)
	}
	if _, ok, err := pr.GetRendered(probs[0], packParams); !ok || err != nil {
		t.Fatalf("healthy record missing from the pack: ok=%v err=%v", ok, err)
	}
}

// TestPackEmptyStore: an empty store packs to a valid, empty artifact.
func TestPackEmptyStore(t *testing.T) {
	s := openTemp(t)
	path := filepath.Join(t.TempDir(), "empty.repack")
	stats, err := s.Pack(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 0 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want empty", stats)
	}
	pr, err := OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if pr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", pr.Len())
	}
	if _, ok, err := pr.GetStep(sinkless(t), 0); ok || err != nil {
		t.Fatalf("lookup in empty pack: ok=%v err=%v, want miss", ok, err)
	}
}

// TestPackReaderAtFallback drives parsePack over heap bytes — the exact
// path the non-mmap fallback takes — and verifies a lookup.
func TestPackReaderAtFallback(t *testing.T) {
	s := openTemp(t)
	probs := populatePackStore(t, s)
	_, path := packOf(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := parsePack(data)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if _, ok, err := pr.GetRendered(probs[0], packParams); !ok || err != nil {
		t.Fatalf("fallback lookup: ok=%v err=%v, want hit", ok, err)
	}
}

// TestPackDeterministicAcrossOrders: packing is a pure function of the
// record set, not of directory enumeration order — two stores populated
// in different orders pack bit-identically.
func TestPackDeterministicAcrossOrders(t *testing.T) {
	sA, sB := openTemp(t), openTemp(t)
	populatePackStore(t, sA)
	// Populate B in a different order.
	probs := []*core.Problem{
		problems.WeakTwoColoringPointer(3),
		problems.SinklessOrientation(3),
		problems.SinklessColoring(3),
	}
	rendered := []byte(`{"problem":"sinkless-coloring/delta=3","solvable":true}`)
	if err := sB.PutVerdict(problems.SinklessColoring(3), packVerdictParams, rendered); err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		if err := sB.PutRendered(p, packParams, testBody(packRun(t, sB, p))); err != nil {
			t.Fatal(err)
		}
	}
	pA := filepath.Join(t.TempDir(), "a.repack")
	pB := filepath.Join(t.TempDir(), "b.repack")
	if _, err := sA.Pack(pA); err != nil {
		t.Fatal(err)
	}
	if _, err := sB.Pack(pB); err != nil {
		t.Fatal(err)
	}
	bA, _ := os.ReadFile(pA)
	bB, _ := os.ReadFile(pB)
	if !bytes.Equal(bA, bB) {
		t.Fatalf("population order changed the pack bytes: %d vs %d", len(bA), len(bB))
	}
}

// TestPackSkipsTrajectoryRecords: an older store's trajectory records
// stay in the store but not in its pack, which is bit-identical to the
// pack of the same store without them.
func TestPackSkipsTrajectoryRecords(t *testing.T) {
	s := openTemp(t)
	probs := populatePackStore(t, s)
	_, cleanPath := packOf(t, s)
	if err := s.PutTrajectory(probs[0], packParams, packRun(t, s, probs[0])); err != nil {
		t.Fatal(err)
	}
	if trajs, _ := filepath.Glob(filepath.Join(s.Root(), "objects", "*", "*.traj")); len(trajs) != 1 {
		t.Fatalf("store holds %d trajectory record(s), want 1", len(trajs))
	}
	pr, path := packOf(t, s)
	if err := pr.Walk(func(kind Kind, _ core.StableFingerprint, _ []byte) error {
		if kind == KindTrajectory {
			t.Error("the pack holds a trajectory record")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	withTraj, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, withTraj) {
		t.Fatal("a trajectory record changed the pack bytes")
	}
}
