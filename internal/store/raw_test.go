package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
)

// rawTestStore builds a store holding one step, one trajectory, and
// one rendered record for the returned problem and params.
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
	if err := st.PutTrajectory(p, par, res); err != nil {
		t.Fatal(err)
	}
	if err := st.PutRendered(p, par, []byte("body-bytes\n")); err != nil {
		t.Fatal(err)
	}
	return st, p, par
}

// TestRawRecordRoundTrip: RawRecord frames decode back to exactly what
// the typed getters return, for every record kind the peer protocol
// ships.
func TestRawRecordRoundTrip(t *testing.T) {
	st, p, par := rawTestStore(t)

	frame, ok, err := st.RawRecord(KindStep, StepRecordKey(p, par.MaxStates))
	if err != nil || !ok {
		t.Fatalf("step RawRecord: ok=%v err=%v", ok, err)
	}
	out, ok, err := DecodeStepRecord(frame, p, par.MaxStates)
	if err != nil || !ok {
		t.Fatalf("DecodeStepRecord: ok=%v err=%v", ok, err)
	}
	want, _, _ := st.GetStep(p, par.MaxStates)
	if !bytes.Equal(out.CanonicalBytes(), want.CanonicalBytes()) {
		t.Fatal("decoded step differs from GetStep")
	}

	frame, ok, err = st.RawRecord(KindRendered, RenderedRecordKey(p, par))
	if err != nil || !ok {
		t.Fatalf("rendered RawRecord: ok=%v err=%v", ok, err)
	}
	body, ok, err := DecodeRenderedRecord(frame, p, par)
	if err != nil || !ok {
		t.Fatalf("DecodeRenderedRecord: ok=%v err=%v", ok, err)
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
	if _, ok, err := st.RawRecord(KindRendered, RenderedRecordKey(p, other)); ok || err != nil {
		t.Fatalf("absent record: ok=%v err=%v", ok, err)
	}

	path := st.objectPath(KindRendered, RenderedRecordKey(p, par))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	frame, ok, err := st.RawRecord(KindRendered, RenderedRecordKey(p, par))
	if ok || err == nil || frame != nil {
		t.Fatalf("corrupt record: frame=%v ok=%v err=%v", frame != nil, ok, err)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt record error = %v, want ErrChecksum", err)
	}
}

// TestPackRawRecordMatchesStoreFrame: re-framing a packed payload is
// byte-identical to the store file it was packed from — the property
// that makes pack-backed and store-backed peers indistinguishable.
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
		{KindStep, StepRecordKey(p, par.MaxStates)},
		{KindTrajectory, subKey(core.StableKey(p), par.tag())},
		{KindRendered, RenderedRecordKey(p, par)},
	} {
		storeFrame, ok, err := st.RawRecord(probe.kind, probe.key)
		if err != nil || !ok {
			t.Fatalf("%s: store RawRecord: ok=%v err=%v", probe.kind.Ext(), ok, err)
		}
		packFrame, ok, err := pr.RawRecord(probe.kind, probe.key)
		if err != nil || !ok {
			t.Fatalf("%s: pack RawRecord: ok=%v err=%v", probe.kind.Ext(), ok, err)
		}
		if !bytes.Equal(storeFrame, packFrame) {
			t.Fatalf("%s: pack frame differs from store frame", probe.kind.Ext())
		}
	}
	if _, ok, _ := pr.RawRecord(KindVerdict, StepRecordKey(p, par.MaxStates)); ok {
		t.Fatal("pack RawRecord hit for absent record")
	}
}

// TestDecodeRecordRejectsWrongContext: a perfectly valid frame decoded
// against the wrong kind, problem, or params never yields bytes — the
// receiving-side defense a byzantine peer runs into.
func TestDecodeRecordRejectsWrongContext(t *testing.T) {
	st, p, par := rawTestStore(t)
	frame, ok, err := st.RawRecord(KindRendered, RenderedRecordKey(p, par))
	if err != nil || !ok {
		t.Fatal("rendered RawRecord failed")
	}

	// Wrong kind: sentinel.
	if _, ok, err := DecodeStepRecord(frame, p, par.MaxStates); ok || !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("wrong-kind decode: ok=%v err=%v", ok, err)
	}
	// Wrong params: valid frame, guard miss.
	if _, ok, err := DecodeRenderedRecord(frame, p, TrajectoryParams{MaxSteps: 63, MaxStates: par.MaxStates}); ok || err != nil {
		t.Fatalf("wrong-params decode: ok=%v err=%v", ok, err)
	}
	// Truncated frame: sentinel.
	if _, ok, err := DecodeRenderedRecord(frame[:len(frame)-1], p, par); ok || !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated decode: ok=%v err=%v", ok, err)
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
