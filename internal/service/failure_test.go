package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/problems"
)

// failingStates is a budget under which one speedup step of
// weak2Pointer fails in the second half step; the engine default fits.
const failingStates = 500

// weak2Pointer is pointer weak 2-coloring at Δ=3 and relabeled, a copy
// with its label IDs reversed: isomorphic, but serialized differently,
// so it misses every exact-key tier.
func weak2Pointer(t *testing.T) (p, relabeled *core.Problem) {
	t.Helper()
	p = problems.WeakTwoColoringPointer(3)
	n := p.Alpha.Size()
	m := make(core.LabelMap, n)
	for i := 0; i < n; i++ {
		m[core.Label(i)] = core.Label(n - 1 - i)
	}
	edge, err := p.Edge.Remap(m)
	if err != nil {
		t.Fatal(err)
	}
	node, err := p.Node.Remap(m)
	if err != nil {
		t.Fatal(err)
	}
	relabeled = &core.Problem{Alpha: p.Alpha, Edge: edge, Node: node}
	if bytes.Equal(p.CanonicalBytes(), relabeled.CanonicalBytes()) {
		t.Fatal("the relabeled copy serializes like the original")
	}
	return p, relabeled
}

// TestSpeedupFailureMemoHTTP: /v1/speedup answers a relabeled copy of
// a step that failed on its budget from the failure memo — the same
// 422 body, one "failure" hit on /metrics and /v1/stats — while the
// same problem under a budget its step fits in still succeeds.
func TestSpeedupFailureMemoHTTP(t *testing.T) {
	m := NewMetrics()
	e, err := New(Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	srv := httptest.NewServer(Routes(e, m))
	t.Cleanup(srv.Close)
	p, relabeled := weak2Pointer(t)

	status, first := post(t, srv.URL, "/v1/speedup", SpeedupRequest{Problem: string(p.CanonicalBytes()), MaxStates: failingStates})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("failing step: status %d: %s", status, first)
	}
	if got := tierStat(t, m, e, "failure"); got.Hits != 0 || got.Misses != 1 {
		t.Fatalf("after the computed failure: failure tier %+v, want 0 hits, 1 miss", got)
	}
	status, second := post(t, srv.URL, "/v1/speedup", SpeedupRequest{Problem: string(relabeled.CanonicalBytes()), MaxStates: failingStates})
	if status != http.StatusUnprocessableEntity || !bytes.Equal(first, second) {
		t.Fatalf("relabeled copy: status %d, body %s; want 422 with %s", status, second, first)
	}

	_, metricsBody := get(t, srv.URL, "/metrics")
	series := parseMetrics(t, metricsBody)
	if got := series[`re_warm_lookups_total{tier="failure",outcome="hit"}`]; got != 1 {
		t.Fatalf("/metrics failure hits = %v, want 1", got)
	}
	_, statsBody := get(t, srv.URL, "/v1/stats")
	var stats Stats
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	var row *StoreStat
	for i := range stats.Store {
		if stats.Store[i].Tier == "failure" {
			row = &stats.Store[i]
		}
	}
	if row == nil || row.Hits != 1 || row.Misses != 1 {
		t.Fatalf("/v1/stats failure tier = %+v, want 1 hit, 1 miss", row)
	}

	status, body := post(t, srv.URL, "/v1/speedup", SpeedupRequest{Problem: string(p.CanonicalBytes())})
	if status != http.StatusOK {
		t.Fatalf("default budget: status %d: %s", status, body)
	}
}

// TestFixpointFailureMemoStoreModes: in memory-only and store-backed
// engines alike, a fixpoint query whose step failure is served from
// the failure memo streams the body a fresh engine computes cold.
func TestFixpointFailureMemoStoreModes(t *testing.T) {
	p, relabeled := weak2Pointer(t)
	req := func(q *core.Problem) FixpointRequest {
		return FixpointRequest{Problem: string(q.CanonicalBytes()), MaxSteps: 2, MaxStates: failingStates}
	}
	_, coldSrv := serve(t, "")
	status, cold := post(t, coldSrv.URL, "/v1/fixpoint", req(relabeled))
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, cold)
	}
	for _, mode := range []struct{ name, dir string }{{"memory", ""}, {"store", t.TempDir()}} {
		m := NewMetrics()
		e, err := New(Config{StoreDir: mode.dir, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		srv := httptest.NewServer(Routes(e, m))
		t.Cleanup(srv.Close)
		if status, body := post(t, srv.URL, "/v1/fixpoint", req(p)); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mode.name, status, body)
		}
		status, body := post(t, srv.URL, "/v1/fixpoint", req(relabeled))
		if status != http.StatusOK || !bytes.Equal(body, cold) {
			t.Fatalf("%s: memo-served body differs from the cold one:\n%s\nvs\n%s", mode.name, body, cold)
		}
		if got := tierStat(t, m, e, "failure"); got.Hits != 1 {
			t.Fatalf("%s: failure tier %+v, want 1 hit", mode.name, got)
		}
	}
}

// TestBudgetMemosBounded: a client cycling through maxBudgetMemos+1
// distinct budgets leaves at most maxBudgetMemos failure memos and at
// most maxMemRecords memory-mode steps, and at the first budget, after
// the overflow cleared its memos, a repeat request returns the first
// body and a new problem the body a fresh engine computes.
func TestBudgetMemosBounded(t *testing.T) {
	e, srv := serve(t, "")
	req := func(text string, states int) FixpointRequest {
		return FixpointRequest{Problem: text, MaxSteps: 2, MaxStates: states}
	}
	const base = 1000
	status, first := post(t, srv.URL, "/v1/fixpoint", req(orientationText(), base))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first)
	}
	for b := base + 1; b <= base+maxBudgetMemos; b++ {
		if status, body := post(t, srv.URL, "/v1/fixpoint", req(orientationText(), b)); status != http.StatusOK {
			t.Fatalf("budget %d: status %d: %s", b, status, body)
		}
	}
	steps, failures := e.sink.(memRecords).steps.len(), e.failMemos.len()
	if steps > maxMemRecords || failures > maxBudgetMemos {
		t.Fatalf("%d budgets left %d steps and %d failure memos, want at most %d and %d",
			maxBudgetMemos+1, steps, failures, maxMemRecords, maxBudgetMemos)
	}
	if status, again := post(t, srv.URL, "/v1/fixpoint", req(orientationText(), base)); status != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("repeat at the first budget: status %d, body differs:\n%s\nvs\n%s", status, again, first)
	}
	coloring := string(problems.SinklessColoring(3).CanonicalBytes())
	_, freshSrv := serve(t, "")
	_, want := post(t, freshSrv.URL, "/v1/fixpoint", req(coloring, base))
	if status, got := post(t, srv.URL, "/v1/fixpoint", req(coloring, base)); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("new problem at the first budget: status %d, body differs from a fresh engine's:\n%s\nvs\n%s", status, got, want)
	}
}
