package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// stubTransport answers every request in-process with a fixed status
// and body — no sockets, so the fuzzer spends its budget on decoding,
// not networking.
type stubTransport struct {
	status int
	body   []byte
}

// RoundTrip returns the canned response.
func (s stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: s.status,
		Body:       io.NopCloser(bytes.NewReader(s.body)),
		Header:     make(http.Header),
		Request:    r,
	}, nil
}

// FuzzPeerRecordResponse drives arbitrary peer responses — corrupt,
// truncated, wrong-kind, wrong-status, oversized — through the peer
// client and the receiving side's frame source and typed getter. The
// invariants: never panic, and never accept bytes whose frame does not
// validate down to the SHA-256 trailer and the embedded canonical-input
// guard. This is the byzantine-peer defense: everything after the TCP
// read is attacker-controlled input.
func FuzzPeerRecordResponse(f *testing.F) {
	p := core.MustParse("node:\n0^2 1\nedge:\n0 0\n0 1\n")
	par := store.TrajectoryParams{MaxSteps: 2, MaxStates: 8000}

	// Seed with a genuine frame, close mutations of it, and a genuine
	// frame of the wrong kind.
	valid, stepFrame := fuzzFrames(f, p, par)
	f.Add(200, valid)
	f.Add(200, valid[:len(valid)-3])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(200, flipped)
	f.Add(200, stepFrame)
	f.Add(404, []byte(nil))
	f.Add(500, []byte("boom"))
	f.Add(200, []byte("PODC19RS garbage"))

	key := renderedKey(p, par)
	f.Fuzz(func(t *testing.T, status int, data []byte) {
		frame, ok, err := stubFetch(status, data, key)
		if err != nil || !ok {
			return // degraded to a miss or an error before decoding — fine
		}
		body, ok, derr := store.FrameSource(frame).GetRendered(p, par)
		if derr != nil || !ok {
			return // frame rejected — degrade to miss, the required outcome
		}
		// The getter accepted: the frame must be exactly a well-formed
		// record whose trailer checksums its content. Recompute the
		// trailer independently of the getter.
		if len(frame) < sha256.Size {
			t.Fatalf("accepted frame shorter than a checksum (%d bytes)", len(frame))
		}
		sum := sha256.Sum256(frame[:len(frame)-sha256.Size])
		if !bytes.Equal(sum[:], frame[len(frame)-sha256.Size:]) {
			t.Fatalf("accepted frame with bad checksum trailer")
		}
		// An accepted frame that differs from the seed can only be an
		// honestly checksummed, guard-matching record carrying other
		// body bytes — indistinguishable from a peer that committed a
		// different result for the same key, which the determinism
		// contract excludes at the source. The checksum and guard
		// invariants above are therefore the complete client obligation.
		_ = body
	})
}

// fuzzFrames commits a rendered and a step record for p and returns
// their frames.
func fuzzFrames(tb testing.TB, p *core.Problem, par store.TrajectoryParams) (rendered, step []byte) {
	tb.Helper()
	st, err := store.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.PutRendered(p, par, []byte("seed-body\n")); err != nil {
		tb.Fatal(err)
	}
	if err := st.PutStep(p, p, par.MaxStates); err != nil {
		tb.Fatal(err)
	}
	rendered, ok, err := st.RawRecord(store.KindRendered, renderedKey(p, par))
	if err != nil || !ok {
		tb.Fatal("rendered seed record missing")
	}
	step, ok, err = st.RawRecord(store.KindStep, stepKey(p, par.MaxStates))
	if err != nil || !ok {
		tb.Fatal("step seed record missing")
	}
	return rendered, step
}

// stubFetch fetches the rendered record under key from a stub peer
// that answers status and body.
func stubFetch(status int, body []byte, key core.StableFingerprint) ([]byte, bool, error) {
	c := NewClient(time.Second)
	c.hc.Transport = stubTransport{status: status, body: body}
	return c.FetchRecord(context.Background(), "stub:0", store.KindRendered, key)
}

// TestPeerWrongKindFrameRejected: a genuine step frame answered to a
// rendered request passes the wire but is rejected with
// ErrKindMismatch, never accepted as a rendered body.
func TestPeerWrongKindFrameRejected(t *testing.T) {
	p := core.MustParse("node:\n0^2 1\nedge:\n0 0\n0 1\n")
	par := store.TrajectoryParams{MaxSteps: 2, MaxStates: 8000}
	_, stepFrame := fuzzFrames(t, p, par)
	frame, ok, err := stubFetch(http.StatusOK, stepFrame, renderedKey(p, par))
	if err != nil || !ok {
		t.Fatalf("stub fetch: ok=%v err=%v", ok, err)
	}
	if body, ok, err := store.FrameSource(frame).GetRendered(p, par); ok || !errors.Is(err, store.ErrKindMismatch) {
		t.Fatalf("step frame read as rendered: body=%q ok=%v err=%v, want ErrKindMismatch", body, ok, err)
	}
}
