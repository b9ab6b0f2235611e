package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// protoProblem is a cheap parseable problem for wire tests.
func protoProblem(t *testing.T) *core.Problem {
	t.Helper()
	return core.MustParse("node:\n0^2 1\nedge:\n0 0\n0 1\n")
}

// protoServer builds a store with one rendered and one step record and
// mounts the peer routes over it, returning the test server and store.
func protoServer(t *testing.T) (*httptest.Server, *store.Store, *core.Problem, store.TrajectoryParams) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := protoProblem(t)
	par := store.TrajectoryParams{MaxSteps: 2, MaxStates: 8000}
	if err := st.PutRendered(p, par, []byte("rendered-response\n")); err != nil {
		t.Fatal(err)
	}
	if err := st.PutStep(p, p, par.MaxStates); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	RegisterPeerRoutes(mux, RingInfo{Self: "self:1", Members: []string{"other:1", "self:1"}, VNodes: DefaultVNodes}, store.Chain(st.Source, nil))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, st, p, par
}

// keyOf returns the record key a typed getter derives for its query,
// recorded by a source that holds nothing.
func keyOf(get func(store.Source)) core.StableFingerprint {
	var key core.StableFingerprint
	get(func(_ store.Kind, k core.StableFingerprint) ([]byte, bool, error) {
		key = k
		return nil, false, nil
	})
	return key
}

// renderedKey is the key GetRendered derives for (p, par).
func renderedKey(p *core.Problem, par store.TrajectoryParams) core.StableFingerprint {
	return keyOf(func(src store.Source) { src.GetRendered(p, par) })
}

// stepKey is the key GetStep derives for (p, maxStates).
func stepKey(p *core.Problem, maxStates int) core.StableFingerprint {
	return keyOf(func(src store.Source) { src.GetStep(p, maxStates) })
}

// peerAddr strips the scheme from an httptest server URL, since peers
// are addressed host:port.
func peerAddr(srv *httptest.Server) string {
	return srv.Listener.Addr().String()
}

// TestPeerRecordRoundTrip: a fetched frame is byte-identical to the
// serving store's object file and reads back to exactly the record it
// holds, and misses are clean.
func TestPeerRecordRoundTrip(t *testing.T) {
	srv, st, p, par := protoServer(t)
	c := NewClient(2 * time.Second)
	ctx := context.Background()

	key := renderedKey(p, par)
	frame, ok, err := c.FetchRecord(ctx, peerAddr(srv), store.KindRendered, key)
	if err != nil || !ok {
		t.Fatalf("FetchRecord: ok=%v err=%v", ok, err)
	}
	body, ok, err := store.FrameSource(frame).GetRendered(p, par)
	if err != nil || !ok {
		t.Fatalf("frame GetRendered: ok=%v err=%v", ok, err)
	}
	if string(body) != "rendered-response\n" {
		t.Fatalf("body = %q", body)
	}
	name := key.String()
	file, err := os.ReadFile(filepath.Join(st.Root(), "objects", name[:2], name+".rendered"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, file) {
		t.Fatal("wire frame differs from the store's object file")
	}

	// Step record through the same wire.
	frame, ok, err = c.FetchRecord(ctx, peerAddr(srv), store.KindStep, stepKey(p, par.MaxStates))
	if err != nil || !ok {
		t.Fatalf("step FetchRecord: ok=%v err=%v", ok, err)
	}
	if _, ok, err := store.FrameSource(frame).GetStep(p, par.MaxStates); err != nil || !ok {
		t.Fatalf("step decode: ok=%v err=%v", ok, err)
	}

	// Miss: the rendered record's key under a kind it is not stored as.
	if _, ok, err := c.FetchRecord(ctx, peerAddr(srv), store.KindVerdict, key); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
}

// TestPeerRecordBadRequests: malformed keys and kinds are 400s, which
// the client surfaces as errors, not misses.
func TestPeerRecordBadRequests(t *testing.T) {
	srv, _, _, _ := protoServer(t)
	for _, q := range []string{
		"key=zz&kind=step",
		"key=abcd&kind=step",
		"key=" + (protoKeyHex) + "&kind=nope",
		"kind=step",
	} {
		resp, err := http.Get(srv.URL + "/v1/peer/record?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// protoKeyHex is a syntactically valid 64-hex key for bad-request tests.
const protoKeyHex = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// TestPeerServerRefusesCorruptLocalRecord: a record damaged on the
// serving node's own disk is answered as a miss, never shipped.
func TestPeerServerRefusesCorruptLocalRecord(t *testing.T) {
	srv, st, p, par := protoServer(t)
	matches, err := filepath.Glob(filepath.Join(st.Root(), "objects", "*", "*.rendered"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("rendered records on disk: %v (%v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewClient(2 * time.Second)
	if _, ok, err := c.FetchRecord(context.Background(), peerAddr(srv), store.KindRendered, renderedKey(p, par)); ok || err != nil {
		t.Fatalf("corrupt local record served: ok=%v err=%v", ok, err)
	}
}

// TestPeerRing: the membership endpoint round-trips the configured
// RingInfo.
func TestPeerRing(t *testing.T) {
	srv, _, _, _ := protoServer(t)
	info, err := NewClient(2*time.Second).Ring(context.Background(), peerAddr(srv))
	if err != nil {
		t.Fatal(err)
	}
	if info.Self != "self:1" || len(info.Members) != 2 || info.VNodes != DefaultVNodes {
		t.Fatalf("RingInfo = %+v", info)
	}
}

// TestFetchRecordDeadPeer: a connection failure is an error (so the
// caller can count the peer down), not a miss and not a panic.
func TestFetchRecordDeadPeer(t *testing.T) {
	srv, _, p, par := protoServer(t)
	addr := peerAddr(srv)
	srv.Close()
	c := NewClient(500 * time.Millisecond)
	if _, ok, err := c.FetchRecord(context.Background(), addr, store.KindRendered, renderedKey(p, par)); ok || err == nil {
		t.Fatalf("dead peer: ok=%v err=%v", ok, err)
	}
}

// TestFetchRecordServerError: a non-200/404 status is an error.
func TestFetchRecordServerError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := NewClient(time.Second)
	p := protoProblem(t)
	par := store.TrajectoryParams{MaxSteps: 2, MaxStates: 8000}
	if _, ok, err := c.FetchRecord(context.Background(), peerAddr(srv), store.KindRendered, renderedKey(p, par)); ok || err == nil {
		t.Fatalf("500 response: ok=%v err=%v", ok, err)
	}
}
