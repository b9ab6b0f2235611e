package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/fixpoint"
)

// unpooledFixpointBody renders the reference NDJSON body for a
// fixpoint query without any of the service's pooled machinery: a
// fresh fixpoint run, plain json.Marshal per line. Every serving tier
// is locked against this rendering.
func unpooledFixpointBody(t *testing.T, problem string, maxSteps, maxStates int) []byte {
	t.Helper()
	if maxSteps == 0 {
		maxSteps = fixpoint.DefaultMaxSteps
	}
	p, err := parseProblem(problem)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, "")
	res, err := fixpoint.Run(p, fixpoint.Options{
		MaxSteps: maxSteps,
		Core:     e.coreOpts(maxStates),
		Memo:     fixpoint.NewMapMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for i, q := range res.Trajectory {
		data, err := json.Marshal(FixpointEntry{Index: i, Problem: viewOf(q)})
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, data...), '\n')
	}
	data, err := json.Marshal(classificationOf(res))
	if err != nil {
		t.Fatal(err)
	}
	return append(append(body, data...), '\n')
}

// fixpointBody collects one Fixpoint response through the sink
// interface.
func fixpointBody(t *testing.T, e *Engine, req FixpointRequest) []byte {
	t.Helper()
	var body []byte
	err := e.Fixpoint(context.Background(), req, func(chunk []byte) error {
		body = append(body, chunk...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRenderedTierByteIdentity walks one query through every serving
// tier — cold stream, rendered store record (fresh engine), in-process
// rendered memo, rendered pack record — and locks each body against
// the unpooled reference rendering.
func TestRenderedTierByteIdentity(t *testing.T) {
	ref := unpooledFixpointBody(t, orientationText(), 0, 0)
	req := FixpointRequest{Problem: orientationText()}
	dir := filepath.Join(t.TempDir(), "results")

	e1 := newEngine(t, dir)
	if cold := fixpointBody(t, e1, req); !bytes.Equal(cold, ref) {
		t.Fatalf("cold body differs from unpooled reference:\n%q\n%q", cold, ref)
	}
	if memo := fixpointBody(t, e1, req); !bytes.Equal(memo, ref) {
		t.Fatal("rendered-memo body differs from unpooled reference")
	}

	// A fresh engine over the same store serves the rendered record.
	m := NewMetrics()
	e2, err := New(Config{StoreDir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e2.Close() })
	if rec := fixpointBody(t, e2, req); !bytes.Equal(rec, ref) {
		t.Fatal("rendered-record body differs from unpooled reference")
	}
	if row := tierStat(t, m, e2, "rendered"); row.Hits == 0 {
		t.Fatalf("rendered tier = %+v, want a record hit", row)
	}

	// A pack built from the store serves its rendered section.
	e3, m3, _ := servePack(t, "", packOf(t, dir))
	if packed := fixpointBody(t, e3, req); !bytes.Equal(packed, ref) {
		t.Fatal("pack-rendered body differs from unpooled reference")
	}
	if row := tierStat(t, m3, e3, "rendered"); row.Hits == 0 {
		t.Fatalf("pack rendered tier = %+v, want a hit", row)
	}
}

// TestWarmFixpointContentLength: a warm fixpoint reply is fully
// buffered, so it carries an exact Content-Length — and the same bytes
// the cold stream produced.
func TestWarmFixpointContentLength(t *testing.T) {
	_, srv := serve(t, "")
	status, cold := post(t, srv.URL, "/v1/fixpoint", FixpointRequest{Problem: orientationText()})
	if status != http.StatusOK {
		t.Fatalf("cold status %d: %s", status, cold)
	}
	body, err := json.Marshal(FixpointRequest{Problem: orientationText()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/fixpoint", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	warm := new(bytes.Buffer)
	if _, err := warm.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.Bytes(), cold) {
		t.Fatal("warm buffered body differs from cold streamed body")
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(warm.Len()) {
		t.Fatalf("warm reply Content-Length = %q, body is %d bytes", got, warm.Len())
	}
}

// TestConcurrentPooledByteIdentity is the pooling safety lock, meant
// for -race: 8 clients hammer the engine concurrently with a mix of
// distinct queries — cold on first touch, memo-warm after — and every
// body must match the unpooled reference byte-for-byte. A pooled
// buffer escaping into a response (or a double put handing one buffer
// to two renders) shows up here as a body mismatch or a race report.
func TestConcurrentPooledByteIdentity(t *testing.T) {
	reqs := []FixpointRequest{
		{Problem: orientationText()},
		{Problem: sinklessText},
		{Problem: sinklessText, MaxSteps: 1},
	}
	refs := make([][]byte, len(reqs))
	for i, req := range reqs {
		refs[i] = unpooledFixpointBody(t, req.Problem, req.MaxSteps, req.MaxStates)
	}

	e := newEngine(t, "")
	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(reqs)
				var body []byte
				err := e.Fixpoint(context.Background(), reqs[i], func(chunk []byte) error {
					body = append(body, chunk...)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(body, refs[i]) {
					errs <- fmt.Errorf("client %d round %d: body differs from unpooled reference", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBufferPoolBalance: every buffer drawn during warm and cold
// serving is returned (the live counter settles back to its starting
// point), and returning one twice panics instead of corrupting a later
// render.
func TestBufferPoolBalance(t *testing.T) {
	before := bufsLive.Load()
	e := newEngine(t, "")
	req := FixpointRequest{Problem: orientationText()}
	fixpointBody(t, e, req) // cold
	fixpointBody(t, e, req) // rendered memo
	if after := bufsLive.Load(); after != before {
		t.Fatalf("live pooled buffers: %d before, %d after serving", before, after)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double put did not panic")
		}
	}()
	b := getBuf()
	putBuf(b)
	putBuf(b)
}

// TestCorruptRenderedDegrades: damaging only the rendered record
// leaves the query byte-identical — the engine replays the trajectory
// from the step records — and surfaces the damage as a "rendered"
// corrupt outcome.
func TestCorruptRenderedDegrades(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	e1 := newEngine(t, dir)
	req := FixpointRequest{Problem: orientationText()}
	cold := fixpointBody(t, e1, req)

	rendered, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.rendered"))
	if err != nil || len(rendered) == 0 {
		t.Fatalf("no rendered records committed: %v (%v)", rendered, err)
	}
	for _, path := range rendered {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m := NewMetrics()
	e2, err := New(Config{StoreDir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e2.Close() })
	if got := fixpointBody(t, e2, req); !bytes.Equal(got, cold) {
		t.Fatal("body over a corrupt rendered record differs from the cold body")
	}
	row := tierStat(t, m, e2, "rendered")
	if row.Corrupt == 0 {
		t.Fatalf("rendered tier = %+v, want a corrupt outcome", row)
	}
	if st := tierStat(t, m, e2, "step"); st.Hits == 0 || st.Misses != 0 {
		t.Fatalf("step tier = %+v, want the replay's hits and no miss", st)
	}
}

// TestMissingRenderedReplaysSteps: a store holding a problem's step
// records but no rendered record — as a store written before the
// rendered kind existed, or a run killed after its last step but
// before its commit, leaves it — answers byte-identically by replaying
// the steps: every step is a step-tier hit, none misses, and the
// replay commits the rendered record.
func TestMissingRenderedReplaysSteps(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	req := FixpointRequest{Problem: orientationText()}
	cold := fixpointBody(t, newEngine(t, dir), req)
	records := func(ext string) []string {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*."+ext))
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	if len(records("rendered")) == 0 || len(records("step")) == 0 {
		t.Fatal("the cold run committed no rendered or no step record")
	}
	for _, path := range records("rendered") {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	lines := bytes.Split(bytes.TrimSpace(cold), []byte("\n"))
	var cls FixpointClassification
	if err := json.Unmarshal(lines[len(lines)-1], &cls); err != nil || cls.Steps == 0 {
		t.Fatalf("classification line %q: err %v, steps %d; want at least one step", lines[len(lines)-1], err, cls.Steps)
	}

	m := NewMetrics()
	e2, err := New(Config{StoreDir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e2.Close() })
	if got := fixpointBody(t, e2, req); !bytes.Equal(got, cold) {
		t.Fatal("body replayed from the step records differs from the cold body")
	}
	if st := tierStat(t, m, e2, "step"); st.Hits != int64(cls.Steps) || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("step tier = %+v, want %d hits and nothing else", st, cls.Steps)
	}
	if len(records("rendered")) == 0 {
		t.Fatal("the replay committed no rendered record")
	}
}

// TestRenderedMemoEviction: the epoch eviction keeps the memo bounded
// and keeps serving byte-identical bodies across the clear.
func TestRenderedMemoEviction(t *testing.T) {
	e := newEngine(t, "")
	req := FixpointRequest{Problem: orientationText()}
	want := fixpointBody(t, e, req)
	e.rendered.mu.Lock()
	for i := 0; i < maxRenderedMemo; i++ {
		e.rendered.m[renderedKey{problem: fmt.Sprintf("synthetic-%d", i)}] = nil
	}
	e.rendered.mu.Unlock()
	e.rendered.put(renderedKey{problem: "one-more"}, []byte("x"))
	size := e.rendered.len()
	if size > 1 {
		t.Fatalf("memo holds %d entries after overflow clear, want 1", size)
	}
	if got := fixpointBody(t, e, req); !bytes.Equal(got, want) {
		t.Fatal("post-eviction body differs (the step memo should replay it)")
	}
}
