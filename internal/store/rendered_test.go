package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestRenderedRoundTrip locks the rendered-body record contract: exact
// bytes back, scoped to the exact problem and budgets.
func TestRenderedRoundTrip(t *testing.T) {
	s := openTemp(t)
	in := sinkless(t)
	par := TrajectoryParams{MaxSteps: 16, MaxStates: 0}
	body := []byte("{\"index\":0}\n{\"classification\":\"fixed point\"}\n")

	if _, ok, err := s.GetRendered(in, par); ok || err != nil {
		t.Fatalf("empty store: GetRendered = (_, %v, %v), want miss", ok, err)
	}
	if err := s.PutRendered(in, par, body); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetRendered(in, par)
	if err != nil || !ok {
		t.Fatalf("GetRendered = (_, %v, %v), want hit", ok, err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("GetRendered = %q, want %q", got, body)
	}

	// Budget scoping: the same problem under different budgets is a miss.
	if _, ok, err := s.GetRendered(in, TrajectoryParams{MaxSteps: 8}); ok || err != nil {
		t.Fatalf("GetRendered(other steps) = (_, %v, %v), want miss", ok, err)
	}
	if _, ok, err := s.GetRendered(in, TrajectoryParams{MaxSteps: 16, MaxStates: 100}); ok || err != nil {
		t.Fatalf("GetRendered(other states) = (_, %v, %v), want miss", ok, err)
	}
	// A different problem is a miss.
	other := core.MustParse("node:\n0 0\nedge:\n0 0\n")
	if _, ok, err := s.GetRendered(other, par); ok || err != nil {
		t.Fatalf("GetRendered(other problem) = (_, %v, %v), want miss", ok, err)
	}
}

// TestRenderedCorruptSurfacesSentinel checks a damaged rendered record
// reports a corruption sentinel (the serve path counts it and degrades
// to re-rendering — it must never serve the damaged body).
func TestRenderedCorruptSurfacesSentinel(t *testing.T) {
	s := openTemp(t)
	in := sinkless(t)
	par := TrajectoryParams{MaxSteps: 16}
	if err := s.PutRendered(in, par, []byte("{\"index\":0}\n")); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath(KindRendered, subKey(core.StableKey(in), renderedTag(par)))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.GetRendered(in, par)
	if ok {
		t.Fatal("corrupt rendered record served as a hit")
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt rendered record: err = %v, want ErrChecksum", err)
	}
}

// TestRenderedPackRoundTrip checks rendered records ride the pack:
// packed, served byte-identically by the reader, and unpacked bit-exact.
func TestRenderedPackRoundTrip(t *testing.T) {
	s := openTemp(t)
	in := sinkless(t)
	par := TrajectoryParams{MaxSteps: 16}
	body := []byte("{\"index\":0}\n{\"classification\":\"cycle\"}\n")
	if err := s.PutRendered(in, par, body); err != nil {
		t.Fatal(err)
	}
	packPath := filepath.Join(t.TempDir(), "catalog.pack")
	stats, err := s.Pack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 1 || stats.Skipped != 0 {
		t.Fatalf("PackStats = %+v, want 1 entry", stats)
	}
	pr, err := OpenPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	got, ok, err := pr.GetRendered(in, par)
	if err != nil || !ok {
		t.Fatalf("pack GetRendered = (_, %v, %v), want hit", ok, err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("pack GetRendered = %q, want %q", got, body)
	}
	// Unpack → repack is bit-exact (the determinism contract now
	// covering the rendered section).
	s2 := openTemp(t)
	if n, err := Unpack(pr, s2); err != nil || n != 1 {
		t.Fatalf("Unpack = (%d, %v)", n, err)
	}
	pack2 := filepath.Join(t.TempDir(), "again.pack")
	if _, err := s2.Pack(pack2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(packPath)
	b2, _ := os.ReadFile(pack2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("pack -> unpack -> pack is not bit-identical with rendered records")
	}
}

// FuzzRenderedRecord fuzzes the rendered-record getter over one frame
// (FrameSource, under the typed getter every record source shares):
// arbitrary bytes in place of a committed record must either decode to
// the exact committed body or fail closed (miss/sentinel) — never
// panic, never return ok with a different body. This is the
// degrade-to-replay guarantee of the serve path's rendered tier.
func FuzzRenderedRecord(f *testing.F) {
	in := core.MustParse("node:\n0^2 1\nedge:\n0 0\n0 1\n")
	par := TrajectoryParams{MaxSteps: 16}
	body := []byte("{\"index\":0}\n{\"classification\":\"fixed point\"}\n")
	payload, err := encodeRenderedPayload(in, par, body)
	if err != nil {
		f.Fatal(err)
	}
	valid := encodeRecord(KindRendered, payload)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("PODC19RS garbage"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[recordHeaderSize+4] ^= 0x20
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok, err := FrameSource(data).GetRendered(in, par)
		if err != nil || !ok {
			return // fail-closed: the serve path counts it and replays the steps
		}
		// The frame checksum and the embedded-input guard passed: the
		// only accepting input is the committed record itself.
		if !bytes.Equal(got, body) {
			t.Fatalf("accepted a rendered body that differs from the committed one: %q", got)
		}
	})
}

// encodeRenderedPayload builds a rendered record payload outside Put,
// for the fuzz harness.
func encodeRenderedPayload(in *core.Problem, par TrajectoryParams, body []byte) ([]byte, error) {
	return json.Marshal(renderedPayload{
		FPVersion: core.FingerprintVersion,
		MaxSteps:  par.MaxSteps,
		MaxStates: par.MaxStates,
		Input:     string(in.CanonicalBytes()),
		Body:      string(body),
	})
}
