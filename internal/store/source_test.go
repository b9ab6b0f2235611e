package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
)

// rawTestStore builds a store holding one step and one rendered
// record for the returned problem and params.
func rawTestStore(t *testing.T) (*Store, *core.Problem, TrajectoryParams) {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := sinkless(t)
	par := TrajectoryParams{MaxSteps: 2, MaxStates: 8000}
	res, err := fixpoint.Run(p, fixpoint.Options{MaxSteps: par.MaxSteps, Core: []core.Option{core.WithMaxStates(par.MaxStates)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutStep(p, res.Trajectory[0], par.MaxStates); err != nil {
		t.Fatal(err)
	}
	if err := st.PutRendered(p, par, []byte("body-bytes\n")); err != nil {
		t.Fatal(err)
	}
	return st, p, par
}

// keyOf returns the record key a typed getter derives for its query,
// recorded by a source that holds nothing.
func keyOf(get func(Source)) core.StableFingerprint {
	var key core.StableFingerprint
	get(func(_ Kind, k core.StableFingerprint) ([]byte, bool, error) {
		key = k
		return nil, false, nil
	})
	return key
}

// renderedKey is the key GetRendered derives for (p, par).
func renderedKey(p *core.Problem, par TrajectoryParams) core.StableFingerprint {
	return keyOf(func(src Source) { src.GetRendered(p, par) })
}

// TestRawRecordRoundTrip: RawRecord frames decode back to exactly what
// the typed getters return, for every record kind the peer protocol
// ships.
func TestRawRecordRoundTrip(t *testing.T) {
	st, p, par := rawTestStore(t)

	frame, ok, err := st.RawRecord(KindStep, stepKey(p.CanonicalBytes(), par.MaxStates))
	if err != nil || !ok {
		t.Fatalf("step RawRecord: ok=%v err=%v", ok, err)
	}
	out, ok, err := FrameSource(frame).GetStep(p, par.MaxStates)
	if err != nil || !ok {
		t.Fatalf("frame GetStep: ok=%v err=%v", ok, err)
	}
	want, _, _ := st.GetStep(p, par.MaxStates)
	if !bytes.Equal(out.CanonicalBytes(), want.CanonicalBytes()) {
		t.Fatal("decoded step differs from GetStep")
	}

	frame, ok, err = st.RawRecord(KindRendered, renderedKey(p, par))
	if err != nil || !ok {
		t.Fatalf("rendered RawRecord: ok=%v err=%v", ok, err)
	}
	body, ok, err := FrameSource(frame).GetRendered(p, par)
	if err != nil || !ok {
		t.Fatalf("frame GetRendered: ok=%v err=%v", ok, err)
	}
	if string(body) != "body-bytes\n" {
		t.Fatalf("decoded body = %q", body)
	}
}

// TestRawRecordMissAndCorrupt: absent records are a clean miss; a
// damaged file surfaces its corruption sentinel rather than bytes.
func TestRawRecordMissAndCorrupt(t *testing.T) {
	st, p, par := rawTestStore(t)
	other := TrajectoryParams{MaxSteps: 63, MaxStates: par.MaxStates}
	if _, ok, err := st.RawRecord(KindRendered, renderedKey(p, other)); ok || err != nil {
		t.Fatalf("absent record: ok=%v err=%v", ok, err)
	}

	path := st.objectPath(KindRendered, renderedKey(p, par))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	frame, ok, err := st.RawRecord(KindRendered, renderedKey(p, par))
	if ok || err == nil || frame != nil {
		t.Fatalf("corrupt record: frame=%v ok=%v err=%v", frame != nil, ok, err)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt record error = %v, want ErrChecksum", err)
	}
}

// TestPackRawRecordMatchesStoreFrame: the frame RawRecord builds from a
// fetched payload is byte-identical to the object file on disk, whether
// the store or a pack of it fetched the payload — the property that
// makes pack-backed and store-backed peers indistinguishable.
func TestPackRawRecordMatchesStoreFrame(t *testing.T) {
	st, p, par := rawTestStore(t)
	packPath := filepath.Join(t.TempDir(), "warm.repack")
	if _, err := st.Pack(packPath); err != nil {
		t.Fatal(err)
	}
	pr, err := OpenPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()

	for _, probe := range []struct {
		kind Kind
		key  core.StableFingerprint
	}{
		{KindStep, stepKey(p.CanonicalBytes(), par.MaxStates)},
		{KindRendered, renderedKey(p, par)},
	} {
		file, err := os.ReadFile(st.objectPath(probe.kind, probe.key))
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]Source{"store": st.Source, "pack": pr.Source} {
			frame, ok, err := src.RawRecord(probe.kind, probe.key)
			if err != nil || !ok {
				t.Fatalf("%s: %s RawRecord: ok=%v err=%v", probe.kind.Ext(), name, ok, err)
			}
			if !bytes.Equal(frame, file) {
				t.Fatalf("%s: %s frame differs from the object file", probe.kind.Ext(), name)
			}
		}
	}
	if _, ok, _ := pr.RawRecord(KindVerdict, stepKey(p.CanonicalBytes(), par.MaxStates)); ok {
		t.Fatal("pack RawRecord hit for absent record")
	}
}

// TestDecodeRecordRejectsWrongContext: a perfectly valid frame read
// against the wrong kind, problem, or params never yields bytes — the
// receiving-side defense a byzantine peer runs into.
func TestDecodeRecordRejectsWrongContext(t *testing.T) {
	st, p, par := rawTestStore(t)
	frame, ok, err := st.RawRecord(KindRendered, renderedKey(p, par))
	if err != nil || !ok {
		t.Fatal("rendered RawRecord failed")
	}

	// Wrong kind: sentinel.
	if _, ok, err := FrameSource(frame).GetStep(p, par.MaxStates); ok || !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("wrong-kind decode: ok=%v err=%v", ok, err)
	}
	// Wrong params: valid frame, guard miss.
	if _, ok, err := FrameSource(frame).GetRendered(p, TrajectoryParams{MaxSteps: 63, MaxStates: par.MaxStates}); ok || err != nil {
		t.Fatalf("wrong-params decode: ok=%v err=%v", ok, err)
	}
	// Truncated frame: sentinel.
	if _, ok, err := FrameSource(frame[:len(frame)-1]).GetRendered(p, par); ok || !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated decode: ok=%v err=%v", ok, err)
	}
}

// TestChain: a chain consults its sources in order under one key and
// the first hit wins, so a later source is not consulted; a damaged
// record falls through to a later hit and surfaces its sentinel only
// when nothing hits; nil sources are skipped; a chain of none is nil.
func TestChain(t *testing.T) {
	key := core.StableFingerprint{7}
	var calls []string
	src := func(name string, payload []byte, err error) Source {
		return func(_ Kind, k core.StableFingerprint) ([]byte, bool, error) {
			if k != key {
				t.Fatalf("source %s consulted under another key", name)
			}
			calls = append(calls, name)
			return payload, payload != nil, err
		}
	}
	a, b := src("a", []byte("a"), nil), src("b", []byte("b"), nil)
	damaged, miss := src("damaged", nil, ErrChecksum), src("miss", nil, nil)
	for _, tc := range []struct {
		name    string
		chain   Source
		want    string // the payload, "" for a miss
		wantErr error
		calls   []string
	}{
		{"first hit wins", Chain(a, b), "a", nil, []string{"a"}},
		{"damage falls through to a hit", Chain(damaged, b), "b", nil, []string{"damaged", "b"}},
		{"damage without a hit", Chain(damaged, miss), "", ErrChecksum, []string{"damaged", "miss"}},
		{"clean miss", Chain(miss, miss), "", nil, []string{"miss", "miss"}},
		{"nil sources skipped", Chain(nil, miss, nil, b), "b", nil, []string{"miss", "b"}},
	} {
		calls = nil
		payload, ok, err := tc.chain(KindStep, key)
		if string(payload) != tc.want || ok != (tc.want != "") || !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: got (%q, %v, %v), want (%q, %v, %v)", tc.name, payload, ok, err, tc.want, tc.want != "", tc.wantErr)
		}
		if !slices.Equal(calls, tc.calls) {
			t.Errorf("%s: consulted %v, want %v", tc.name, calls, tc.calls)
		}
	}
	if Chain() != nil || Chain(nil, nil) != nil {
		t.Fatal("a chain of no sources is not nil")
	}
}

// TestKindExtRoundTrip: every record kind's wire name resolves back to
// itself, and unknown names are rejected.
func TestKindExtRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindStep, KindTrajectory, KindVerdict, KindRendered} {
		got, ok := KindByExt(k.Ext())
		if !ok || got != k {
			t.Fatalf("KindByExt(%q) = %v, %v", k.Ext(), got, ok)
		}
	}
	for _, ext := range []string{"", "stepp", "kind5", "STEP"} {
		if _, ok := KindByExt(ext); ok {
			t.Fatalf("KindByExt(%q) accepted", ext)
		}
	}
}
