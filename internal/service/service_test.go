package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/problems"
)

// sinklessText is sinkless coloring at Δ=3 in the human text format —
// the paper's Section 4.4 fixed point, cheap to transform.
const sinklessText = "node:\n0^2 1\nedge:\n0 0\n0 1\n"

// orientationText returns sinkless orientation at Δ=3 in canonical
// form: its fixpoint trajectory takes exactly 2 steps, which the
// interrupt tests rely on.
func orientationText() string {
	return string(problems.SinklessOrientation(3).CanonicalBytes())
}

// newEngine builds an engine (with a store under dir when non-empty)
// and registers its cleanup.
func newEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// serve starts an httptest server over a fresh engine.
func serve(t *testing.T, dir string) (*Engine, *httptest.Server) {
	t.Helper()
	e := newEngine(t, dir)
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(srv.Close)
	return e, srv
}

// post issues a JSON POST and returns status and body.
func post(t *testing.T, url, path string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// get issues a GET and returns status and body.
func get(t *testing.T, url, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestOversizedArityIsBadRequest: a problem whose multiplicities ask
// for more than core.MaxDelta — 28 bytes of Δ = 10^8, or a sum past the
// int range — is a 400 on every problem-taking endpoint, and the server
// answers the next request. The lowered stack ceiling turns a parse
// that let the deep body through into a failed test instead of a
// gigabyte of stack.
func TestOversizedArityIsBadRequest(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	_, srv := serve(t, "")
	for _, text := range []string{
		"node:\na^100000000\nedge:\na a",
		"node:\na^4611686018427387904 b^4611686018427387904\nedge:\na b",
	} {
		for _, q := range []struct {
			path string
			req  any
		}{
			{"/v1/speedup", SpeedupRequest{Problem: text}},
			{"/v1/speedup", SpeedupRequest{Problem: text, Half: true}},
			{"/v1/fixpoint", FixpointRequest{Problem: text}},
		} {
			if status, body := post(t, srv.URL, q.path, q.req); status != http.StatusBadRequest {
				t.Errorf("%s %q: status %d (%s), want 400", q.path, text, status, body)
			}
		}
		if status, body := post(t, srv.URL, "/v1/speedup", SpeedupRequest{Problem: sinklessText}); status != http.StatusOK {
			t.Fatalf("next request: status %d: %s", status, body)
		}
	}
}

// TestSpeedupEndpoint: the speedup endpoint computes exactly what the
// core engine computes, for full steps, multiple steps, and the half
// step, and accepts its own canonical output as input.
func TestSpeedupEndpoint(t *testing.T) {
	_, srv := serve(t, "")

	status, body := post(t, srv.URL, "/v1/speedup", SpeedupRequest{Problem: sinklessText, Steps: 2})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp SpeedupResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Derived) != 2 {
		t.Fatalf("got %d derived problems, want 2", len(resp.Derived))
	}
	p := core.MustParse(sinklessText)
	want, err := core.Speedup(p)
	if err != nil {
		t.Fatal(err)
	}
	wantCompact, _ := want.RenameCompact()
	if resp.Derived[0].Canonical != string(wantCompact.CanonicalBytes()) {
		t.Fatal("derived[0] disagrees with core.Speedup + RenameCompact")
	}
	if resp.Input.Key != core.StableKey(p).String() {
		t.Fatal("input key disagrees with core.StableKey")
	}

	// The canonical output round-trips as input, with the same key.
	status, body2 := post(t, srv.URL, "/v1/speedup", SpeedupRequest{Problem: resp.Derived[0].Canonical})
	if status != http.StatusOK {
		t.Fatalf("canonical input: status %d: %s", status, body2)
	}
	var resp2 SpeedupResponse
	if err := json.Unmarshal(body2, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Input.Key != resp.Derived[0].Key {
		t.Fatal("canonical round trip changed the stable key")
	}

	// Half step.
	status, body3 := post(t, srv.URL, "/v1/speedup", SpeedupRequest{Problem: sinklessText, Half: true})
	if status != http.StatusOK {
		t.Fatalf("half: status %d: %s", status, body3)
	}
	var resp3 SpeedupResponse
	if err := json.Unmarshal(body3, &resp3); err != nil {
		t.Fatal(err)
	}
	half, err := core.HalfStep(p)
	if err != nil {
		t.Fatal(err)
	}
	halfCompact, _ := half.RenameCompact()
	if len(resp3.Derived) != 1 || resp3.Derived[0].Canonical != string(halfCompact.CanonicalBytes()) {
		t.Fatal("half step disagrees with core.HalfStep + RenameCompact")
	}
}

// TestRequestValidation: malformed queries map to 400/404/405, never
// to a computation.
func TestRequestValidation(t *testing.T) {
	_, srv := serve(t, "")
	for _, tc := range []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"bad json", "/v1/speedup", "{", http.StatusBadRequest},
		{"trailing garbage", "/v1/speedup", `{"problem":"x"} extra`, http.StatusBadRequest},
		{"empty problem", "/v1/speedup", `{}`, http.StatusBadRequest},
		{"unparsable problem", "/v1/speedup", `{"problem":"garbage"}`, http.StatusBadRequest},
		{"half with steps", "/v1/speedup", `{"problem":"node:\n0 0\nedge:\n0 0\n","half":true,"steps":2}`, http.StatusBadRequest},
		{"steps beyond cap", "/v1/speedup", fmt.Sprintf(`{"problem":"x","steps":%d}`, MaxRequestSteps+1), http.StatusBadRequest},
		{"negative max states", "/v1/fixpoint", `{"problem":"x","max_states":-1}`, http.StatusBadRequest},
		{"fixpoint steps beyond cap", "/v1/fixpoint", fmt.Sprintf(`{"problem":"x","max_steps":%d}`, MaxRequestSteps+1), http.StatusBadRequest},
		{"verify without problem", "/v1/verify", `{}`, http.StatusBadRequest},
		{"verify unknown problem", "/v1/verify", `{"problem":"no-such-problem"}`, http.StatusNotFound},
		{"verify unknown family", "/v1/verify", `{"problem":"3-coloring/delta=2","family":"nope"}`, http.StatusBadRequest},
		{"verify negative rounds", "/v1/verify", `{"problem":"3-coloring/delta=2","rounds":-1}`, http.StatusBadRequest},
		{"verify rounds beyond cap", "/v1/verify", fmt.Sprintf(`{"problem":"3-coloring/delta=2","rounds":%d}`, MaxVerifyRounds+1), http.StatusBadRequest},
		{"verify n beyond cap", "/v1/verify", fmt.Sprintf(`{"problem":"3-coloring/delta=2","n":%d}`, MaxVerifyN+1), http.StatusBadRequest},
		{"max states beyond cap", "/v1/speedup", fmt.Sprintf(`{"problem":"x","max_states":%d}`, MaxRequestStates+1), http.StatusBadRequest},
		// An oversized body is the client's 413, not a masqueraded
		// 400 "malformed JSON" from the truncated read.
		{"oversized body", "/v1/speedup", fmt.Sprintf(`{"problem":%q}`, strings.Repeat("x", MaxRequestBody)), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var envelope struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
			t.Fatalf("%s: body %q is not an error envelope", tc.name, body)
		}
	}

	// Wrong methods are 405.
	if status, _ := get(t, srv.URL, "/v1/speedup"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/speedup: status %d, want 405", status)
	}
	resp, err := http.Post(srv.URL+"/v1/catalog", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/catalog: status %d, want 405", resp.StatusCode)
	}
}

// TestFixpointEndpointStreams: the NDJSON stream carries one line per
// trajectory entry plus the classification, agreeing with a direct
// fixpoint.Run.
func TestFixpointEndpointStreams(t *testing.T) {
	_, srv := serve(t, "")
	status, body := post(t, srv.URL, "/v1/fixpoint", FixpointRequest{Problem: sinklessText})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))

	want, err := fixpoint.Run(core.MustParse(sinklessText), fixpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(want.Trajectory)+1 {
		t.Fatalf("got %d lines, want %d entries + classification", len(lines), len(want.Trajectory))
	}
	for i, line := range lines[:len(lines)-1] {
		var entry FixpointEntry
		if err := json.Unmarshal(line, &entry); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if entry.Index != i || entry.Problem.Canonical != string(want.Trajectory[i].CanonicalBytes()) {
			t.Fatalf("line %d disagrees with fixpoint.Run trajectory", i)
		}
	}
	var cls FixpointClassification
	if err := json.Unmarshal(lines[len(lines)-1], &cls); err != nil {
		t.Fatal(err)
	}
	if cls.Classification != want.Kind.String() || cls.Steps != want.Steps {
		t.Fatalf("classification line %+v disagrees with %v after %d step(s)", cls, want.Kind, want.Steps)
	}
}

// TestVerifyEndpoint: decisions and conformance reports serve the
// cmd/verify JSON schema with the documented status mapping (200
// positive, 409 decided negative).
func TestVerifyEndpoint(t *testing.T) {
	_, srv := serve(t, "")

	// 0-round 3-coloring on cycles is decidedly unsolvable: 409.
	rounds, n := 0, 4
	status, body := post(t, srv.URL, "/v1/verify", VerifyRequest{Problem: "3-coloring/delta=2", Rounds: &rounds, MaxN: &n})
	if status != http.StatusConflict {
		t.Fatalf("unsolvable decision: status %d (%s), want 409", status, body)
	}
	var dec Decision
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Problem != "3-coloring/delta=2" || dec.Family != "cycles" || dec.Verdict == nil || dec.Verdict.Solvable {
		t.Fatalf("decision envelope %s", body)
	}

	// The conformance harness at Δ=2 is cheap and passes: 200 with ok.
	status, body = post(t, srv.URL, "/v1/verify", VerifyRequest{Problem: "3-coloring/delta=2", Conformance: true})
	if status != http.StatusOK {
		t.Fatalf("conformance: status %d (%s), want 200", status, body)
	}
	var rep struct {
		OK     bool `json:"ok"`
		Checks []struct {
			Name string `json:"name"`
		} `json:"checks"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OK || len(rep.Checks) == 0 {
		t.Fatalf("conformance report %s", body)
	}
}

// TestCatalogEndpoint: the catalog lists exactly problems.Catalog with
// canonical problem views.
func TestCatalogEndpoint(t *testing.T) {
	_, srv := serve(t, "")
	status, body := get(t, srv.URL, "/v1/catalog")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var resp CatalogResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	entries := problems.Catalog()
	if len(resp.Entries) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(resp.Entries), len(entries))
	}
	for i, e := range resp.Entries {
		if e.Name != entries[i].Name {
			t.Fatalf("entry %d: %q, want %q", i, e.Name, entries[i].Name)
		}
		if e.Problem.Canonical != string(entries[i].Problem.CanonicalBytes()) {
			t.Fatalf("entry %d: canonical text disagrees", i)
		}
		if e.Family != problems.FamilyOf(e.Name) || e.K != problems.KOf(e.Name) {
			t.Fatalf("entry %d: family/k disagree with problems.FamilyOf/KOf", i)
		}
	}
}

// querySet is the fixed battery the byte-identity tests replay: one
// query per endpoint.
func querySet(t *testing.T, url string) map[string][]byte {
	t.Helper()
	bodies := map[string][]byte{}
	record := func(name string, status int, body []byte) {
		if status != http.StatusOK && status != http.StatusConflict {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
		bodies[name] = body
	}
	status, body := post(t, url, "/v1/speedup", SpeedupRequest{Problem: sinklessText, Steps: 2})
	record("speedup", status, body)
	status, body = post(t, url, "/v1/fixpoint", FixpointRequest{Problem: orientationText()})
	record("fixpoint", status, body)
	rounds, n := 0, 4
	status, body = post(t, url, "/v1/verify", VerifyRequest{Problem: "3-coloring/delta=2", Rounds: &rounds, MaxN: &n})
	record("verify", status, body)
	status, body = get(t, url, "/v1/catalog")
	record("catalog", status, body)
	return bodies
}

// TestColdWarmByteIdentity is the acceptance lock: every endpoint's
// body is byte-identical between a cold store, the warm store in the
// same process, a second process over the same store, a cold rerun in
// a fresh store, and a memory-only engine.
func TestColdWarmByteIdentity(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	_, srvA := serve(t, dir)
	cold := querySet(t, srvA.URL)
	warm := querySet(t, srvA.URL)

	_, srvB := serve(t, dir) // same store, fresh engine: a "restarted daemon"
	restarted := querySet(t, srvB.URL)

	_, srvC := serve(t, filepath.Join(t.TempDir(), "results")) // fresh store: cold again
	recomputed := querySet(t, srvC.URL)

	_, srvD := serve(t, "") // memory-only engine
	memory := querySet(t, srvD.URL)
	memoryWarm := querySet(t, srvD.URL)

	for name, want := range cold {
		for variant, got := range map[string][]byte{
			"warm store":    warm[name],
			"restarted":     restarted[name],
			"recomputed":    recomputed[name],
			"memory":        memory[name],
			"memory re-ask": memoryWarm[name],
		} {
			if !bytes.Equal(want, got) {
				t.Errorf("%s: %s body differs from cold store body", name, variant)
			}
		}
	}
}

// TestConcurrentClientsIdenticalBodies: 8 clients issuing the same
// query against a cold store receive byte-identical bodies (the
// singleflight serves them one computation), and a warm rerun matches.
// Run under -race this also exercises the flight table and the
// streaming subscriber path.
func TestConcurrentClientsIdenticalBodies(t *testing.T) {
	_, srv := serve(t, filepath.Join(t.TempDir(), "results"))
	const clients = 8

	run := func() [][]byte {
		bodies := make([][]byte, clients)
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, _ := json.Marshal(FixpointRequest{Problem: orientationText()})
				resp, err := http.Post(srv.URL+"/v1/fixpoint", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				bodies[i], _ = io.ReadAll(resp.Body)
			}()
		}
		wg.Wait()
		return bodies
	}

	coldBodies := run()
	warmBodies := run()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(coldBodies[0], coldBodies[i]) {
			t.Fatalf("cold client %d body differs from client 0", i)
		}
	}
	for i, b := range warmBodies {
		if !bytes.Equal(coldBodies[0], b) {
			t.Fatalf("warm client %d body differs from cold bodies", i)
		}
	}
	if len(coldBodies[0]) == 0 {
		t.Fatal("empty bodies")
	}
}

// TestConcurrentWarmVerify: concurrent clients replaying one cached
// verdict receive identical bodies; under -race this guards the
// shared-slice handling of the verify handler (the cached body must
// never be appended to in place).
func TestConcurrentWarmVerify(t *testing.T) {
	_, srv := serve(t, "")
	rounds, n := 0, 4
	req := VerifyRequest{Problem: "3-coloring/delta=2", Rounds: &rounds, MaxN: &n}
	_, primed := post(t, srv.URL, "/v1/verify", req)

	const clients = 8
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/v1/verify", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, primed) {
			t.Fatalf("client %d body differs from primed body", i)
		}
	}
}

// TestGracefulShutdownResume: an engine closed mid-trajectory streams
// a prefix of the reference body plus an ErrClosed failure, leaves its
// completed steps checkpointed in the store, and a fresh engine over
// the same store answers the interrupted query byte-identically to an
// uninterrupted cold run — the service-level kill -9 resume contract.
func TestGracefulShutdownResume(t *testing.T) {
	// Reference: uninterrupted cold run in an independent store.
	refEngine := newEngine(t, filepath.Join(t.TempDir(), "ref"))
	var ref bytes.Buffer
	req := FixpointRequest{Problem: orientationText()}
	if err := refEngine.Fixpoint(context.Background(), req, func(line []byte) error {
		_, err := ref.Write(line)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the step hook closes the engine right after
	// trajectory entry 1 is streamed, so the driver is always stopped
	// at the step-2 boundary (the trajectory needs exactly 2 steps).
	dir := filepath.Join(t.TempDir(), "results")
	e1 := newEngine(t, dir)
	e1.stepHook = func(index int) {
		if index == 1 {
			e1.Close()
		}
	}
	var streamed bytes.Buffer
	err := e1.Fixpoint(context.Background(), req, func(line []byte) error {
		_, werr := streamed.Write(line)
		return werr
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("interrupted query returned %v, want ErrClosed", err)
	}
	if streamed.Len() == 0 || !bytes.HasPrefix(ref.Bytes(), streamed.Bytes()) {
		t.Fatal("interrupted stream is not a prefix of the reference stream")
	}
	if countObjects(t, dir, "step") == 0 {
		t.Fatal("interrupted run checkpointed no steps")
	}
	if n := countObjects(t, dir, "rendered"); n != 0 {
		t.Fatalf("interrupted run committed %d rendered record(s), want 0", n)
	}

	// Resume: a fresh engine over the same store replays the
	// checkpointed steps and completes byte-identically.
	e2 := newEngine(t, dir)
	var resumed bytes.Buffer
	if err := e2.Fixpoint(context.Background(), req, func(line []byte) error {
		_, werr := resumed.Write(line)
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Bytes(), ref.Bytes()) {
		t.Fatal("resumed run is not byte-identical to the uninterrupted reference")
	}
	if countObjects(t, dir, "rendered") != 1 {
		t.Fatal("resumed run did not commit the rendered record")
	}

	// And the warm replay after resume still matches.
	var replay bytes.Buffer
	if err := e2.Fixpoint(context.Background(), req, func(line []byte) error {
		_, werr := replay.Write(line)
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replay.Bytes(), ref.Bytes()) {
		t.Fatal("warm replay after resume differs")
	}
}

// countObjects tallies the store's records of one kind (by extension).
func countObjects(t *testing.T, dir, ext string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*."+ext))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// TestColdFixpointCommitsNoTrajectory: a cold store-mode fixpoint
// query commits exactly what a later query or sweep checkpoint reads —
// one rendered record and one step record per step — and no trajectory
// record, whose contents the rendered body already holds.
func TestColdFixpointCommitsNoTrajectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	body := fixpointBody(t, newEngine(t, dir), FixpointRequest{Problem: orientationText()})
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var cls FixpointClassification
	if err := json.Unmarshal(lines[len(lines)-1], &cls); err != nil || cls.Steps == 0 {
		t.Fatalf("classification line %q: err %v, steps %d; want at least one step", lines[len(lines)-1], err, cls.Steps)
	}
	for ext, want := range map[string]int{"rendered": 1, "step": cls.Steps, "traj": 0} {
		if got := countObjects(t, dir, ext); got != want {
			t.Errorf("%d .%s record(s), want %d", got, ext, want)
		}
	}
}

// TestClosedEngineRefusesQueries: queries after Close fail fast with
// ErrClosed (503), they do not hang on the admission gate.
func TestClosedEngineRefusesQueries(t *testing.T) {
	e := newEngine(t, "")
	e.Close()
	_, err := e.Speedup(context.Background(), SpeedupRequest{Problem: sinklessText})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if got := StatusOf(err); got != http.StatusServiceUnavailable {
		t.Fatalf("StatusOf(ErrClosed) = %d, want 503", got)
	}
}
