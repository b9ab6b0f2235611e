package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/problems"
)

// TestBoundedMapNewKeyAtCapClears: a new key put into a full map clears
// it wholesale and leaves only itself.
func TestBoundedMapNewKeyAtCapClears(t *testing.T) {
	b := newBoundedMap[int, int](4)
	for i := 0; i < 4; i++ {
		b.put(i, i)
	}
	b.put(4, 40)
	if n := b.len(); n != 1 {
		t.Fatalf("map holds %d entries after a new key at the cap, want 1", n)
	}
	if v, ok := b.get(4); !ok || v != 40 {
		t.Fatalf("get(4) = %d, %v after the clear, want 40, true", v, ok)
	}
	if _, ok := b.get(0); ok {
		t.Fatal("get(0) hit after the clear")
	}
}

// TestBoundedMapOverwriteAtCapKeeps: overwriting a key of a full map
// replaces its value and clears nothing.
func TestBoundedMapOverwriteAtCapKeeps(t *testing.T) {
	b := newBoundedMap[int, int](4)
	for i := 0; i < 4; i++ {
		b.put(i, i)
	}
	b.put(2, 20)
	if n := b.len(); n != 4 {
		t.Fatalf("map holds %d entries after an overwrite at the cap, want 4", n)
	}
	for k, want := range []int{0, 1, 20, 3} {
		if v, ok := b.get(k); !ok || v != want {
			t.Fatalf("get(%d) = %d, %v, want %d, true", k, v, ok, want)
		}
	}
}

// TestBoundedMapConcurrent: 8 goroutines getting and putting distinct
// keys across many clears never see a foreign value or an oversized
// map. Run it under -race.
func TestBoundedMapConcurrent(t *testing.T) {
	const max, workers, puts = 16, 8, 200
	b := newBoundedMap[int, int](max)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				k := w*puts + i
				b.put(k, -k)
				if v, ok := b.get(k); ok && v != -k {
					t.Errorf("get(%d) = %d, want %d", k, v, -k)
				}
				if n := b.len(); n > max {
					t.Errorf("map holds %d entries, cap %d", n, max)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := b.len(); n < 1 || n > max {
		t.Fatalf("map holds %d entries after the run, want 1..%d", n, max)
	}
}

// TestMemoryReplayFromStepMemo: a memory-only engine keeps no
// trajectories, so a repeat that misses the rendered memo (here after
// its overflow clear) replays the trajectory from the step memo: the
// body is byte-identical, no step lookup misses, and the step hits rise
// by the trajectory's step count, so nothing is recomputed.
func TestMemoryReplayFromStepMemo(t *testing.T) {
	m := NewMetrics()
	e, err := New(Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	req := FixpointRequest{Problem: orientationText()}
	want := fixpointBody(t, e, req)
	lines := bytes.Split(bytes.TrimSpace(want), []byte("\n"))
	var cls FixpointClassification
	if err := json.Unmarshal(lines[len(lines)-1], &cls); err != nil || cls.Steps == 0 {
		t.Fatalf("classification line %q: err %v, steps %d; want a trajectory of at least one step",
			lines[len(lines)-1], err, cls.Steps)
	}
	e.rendered.mu.Lock()
	for i := 0; i < maxRenderedMemo; i++ {
		e.rendered.m[renderedKey{problem: fmt.Sprintf("synthetic-%d", i)}] = nil
	}
	e.rendered.mu.Unlock()
	e.rendered.put(renderedKey{problem: "one-more"}, []byte("x"))

	before := tierStat(t, m, e, "step")
	if got := fixpointBody(t, e, req); !bytes.Equal(got, want) {
		t.Fatal("body replayed from the step memo differs from the cold one")
	}
	after := tierStat(t, m, e, "step")
	if after.Misses != before.Misses || after.Hits != before.Hits+int64(cls.Steps) {
		t.Fatalf("step tier went from %+v to %+v, want no new miss and %d new hits", before, after, cls.Steps)
	}
}

// TestPeerStepBackfillsMemoryOnly: a memory-only clustered engine keeps
// the step its ring owner served it, so a repeat is a local step-memo
// hit that asks the peer nothing.
func TestPeerStepBackfillsMemoryOnly(t *testing.T) {
	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	// Node 0 owns the problem and keeps a store; node 1 is memory-only.
	nodes := make([]*clusterNode, 2)
	for i, dir := range []string{t.TempDir(), ""} {
		m := NewMetrics()
		e, err := New(Config{
			StoreDir: dir,
			Metrics:  m,
			Peers:    &PeerConfig{Self: addrs[i], Members: addrs, Timeout: 2 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		srv := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: Routes(e, m)}}
		srv.Start()
		t.Cleanup(srv.Close)
		nodes[i] = &clusterNode{addr: addrs[i], dir: dir, e: e, m: m, srv: srv}
	}
	p := ownedProblem(t, addrs, addrs[0])
	req := SpeedupRequest{Problem: string(p.CanonicalBytes()), MaxStates: peerTestMaxStates}
	status, want := post(t, nodes[0].srv.URL, "/v1/speedup", req)
	if status != http.StatusOK {
		t.Fatalf("owner: status %d: %s", status, want)
	}
	for i := 0; i < 2; i++ {
		if status, got := post(t, nodes[1].srv.URL, "/v1/speedup", req); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("memory-only node, request %d: status %d, body differs from the owner's:\n%s\nvs\n%s", i, status, got, want)
		}
	}
	if ps := peerStat(nodes[1], addrs[0]); ps.Hits != 1 || ps.Misses+ps.Corrupt+ps.Unreachable+ps.Skipped != 0 {
		t.Fatalf("peer outcomes %+v, want exactly one hit", ps)
	}
	if st := tierStat(t, nodes[1].m, nodes[1].e, "step"); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("step tier %+v, want one miss (then the peer) and one hit from the backfilled step", st)
	}
}

// keySink keeps the baseline's map key alive, so the compiler cannot
// drop the serialization it measures.
var keySink stepKey

// TestStepMemoMissDerivesNoRecordKey: on a memory-only engine without
// peers, a step-memo miss allocates no more than serializing its input
// into the memory map's key, plus a small constant: it derives no
// record key, neither for a local tier nor for a peer path the engine
// does not have.
func TestStepMemoMissDerivesNoRecordKey(t *testing.T) {
	e, err := New(Config{Metrics: NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	p := problems.SinklessOrientation(3)
	memo := stepMemo{e: e, maxStates: peerTestMaxStates}
	baseline := testing.AllocsPerRun(50, func() {
		keySink = stepKey{string(p.CanonicalBytes()), peerTestMaxStates}
	})
	miss := testing.AllocsPerRun(50, func() {
		if _, ok := memo.LookupStep(p); ok {
			t.Fatal("step-memo hit on an empty engine")
		}
	})
	const slack = 2
	if miss > baseline+slack {
		t.Fatalf("step-memo miss: %.0f allocs/op, want at most the map key's %.0f + %d", miss, baseline, slack)
	}
	t.Logf("step-memo miss: %.0f allocs/op; map key: %.0f", miss, baseline)
}
