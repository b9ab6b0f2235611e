package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// releaser returns a close-once wrapper around a channel, so failure
// paths can release a blocked step hook from both defers and the happy
// path without a double-close panic.
func releaser(ch chan struct{}) func() {
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// parseMetrics reads a Prometheus text body into a value-by-series
// map, keyed by the full series string ("name{labels}").
func parseMetrics(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparsable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestMetricsObserveDedupAndWarmth is the observability acceptance
// lock: N concurrent identical fixpoint queries against a cold store
// record a nonzero singleflight dedup ratio, a warm burst records
// store hits, /metrics and /v1/stats report both — and every success
// body stays byte-identical to an unobserved cold engine's, proving
// metrics never enter response bodies.
func TestMetricsObserveDedupAndWarmth(t *testing.T) {
	// Reference: an unobserved engine in its own store.
	_, refSrv := serve(t, filepath.Join(t.TempDir(), "ref"))
	refStatus, refBody := post(t, refSrv.URL, "/v1/fixpoint", FixpointRequest{Problem: orientationText()})
	if refStatus != http.StatusOK {
		t.Fatalf("reference: status %d: %s", refStatus, refBody)
	}

	m := NewMetrics()
	e, err := New(Config{StoreDir: filepath.Join(t.TempDir(), "results"), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	srv := httptest.NewServer(Routes(e, m))
	t.Cleanup(srv.Close)

	// Hold the leader's computation at trajectory entry 0 until every
	// client has subscribed, so follower counts are deterministic.
	const clients = 8
	release := make(chan struct{})
	releaseOnce := releaser(release)
	defer releaseOnce()
	var hookOnce sync.Once
	e.stepHook = func(index int) {
		if index == 0 {
			hookOnce.Do(func() { <-release })
		}
	}
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if m.flightLeaders.Value()+m.flightFollowers.Value() >= clients {
				break
			}
			time.Sleep(time.Millisecond)
		}
		releaseOnce()
	}()

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
	cold := run()
	warm := run()
	for i := range clients {
		if !bytes.Equal(cold[i], refBody) {
			t.Fatalf("cold client %d body differs from the unobserved reference", i)
		}
		if !bytes.Equal(warm[i], refBody) {
			t.Fatalf("warm client %d body differs from the unobserved reference", i)
		}
	}

	// /metrics: Prometheus text with nonzero dedup and trajectory hits.
	status, metricsBody := get(t, srv.URL, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: status %d", status)
	}
	series := parseMetrics(t, metricsBody)
	if got := series[`re_singleflight_requests_total{role="follower"}`]; got <= 0 {
		t.Fatalf("follower count = %v, want > 0 (no in-flight dedup observed)", got)
	}
	if got := series[`re_warm_lookups_total{tier="rendered",outcome="hit"}`]; got < clients {
		t.Fatalf("rendered hits = %v, want >= %d (warm burst not observed)", got, clients)
	}
	if got := series[`re_gate_capacity`]; got < 1 {
		t.Fatalf("gate capacity = %v, want >= 1", got)
	}

	// /v1/stats: the JSON snapshot agrees.
	status, statsBody := get(t, srv.URL, "/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", status)
	}
	var stats Stats
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Singleflight.DedupRatio <= 0 {
		t.Fatalf("stats dedup ratio = %v, want > 0", stats.Singleflight.DedupRatio)
	}
	var renderedHits int64
	for _, s := range stats.Store {
		if s.Tier == "rendered" {
			renderedHits = s.Hits
		}
	}
	if renderedHits < clients {
		t.Fatalf("stats rendered hits = %d, want >= %d", renderedHits, clients)
	}
	if len(stats.Requests) == 0 || stats.Stream.Lines == 0 {
		t.Fatalf("stats missing request counts or stream volume: %s", statsBody)
	}
}

// TestNDJSONFlushesThroughMiddleware is the streaming regression lock:
// a trajectory line must reach the client while the computation is
// still mid-flight, through the full production middleware chain
// (request log + instrument + timeout wrappers). A wrapper that hid
// http.Flusher would buffer the whole stream and deadlock this test's
// first read.
func TestNDJSONFlushesThroughMiddleware(t *testing.T) {
	m := NewMetrics()
	e, err := New(Config{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	release := make(chan struct{})
	releaseOnce := releaser(release)
	var hookOnce sync.Once
	e.stepHook = func(index int) {
		if index == 0 {
			hookOnce.Do(func() { <-release })
		}
	}
	// The exact chain cmd/serve mounts with -v and -request-timeout.
	handler := LogRequests(WithRequestTimeout(time.Minute, Routes(e, m)), io.Discard)
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	defer releaseOnce()

	req, _ := json.Marshal(FixpointRequest{Problem: orientationText()})
	resp, err := http.Post(srv.URL+"/v1/fixpoint", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	br := bufio.NewReader(resp.Body)
	lineCh := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		line, err := br.ReadBytes('\n')
		if err != nil {
			errCh <- err
			return
		}
		lineCh <- line
	}()
	var first []byte
	select {
	case first = <-lineCh:
	case err := <-errCh:
		t.Fatalf("reading first line: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("first NDJSON line never arrived while the computation was blocked: a middleware wrapper is not passing Flush through")
	}
	var entry FixpointEntry
	if err := json.Unmarshal(first, &entry); err != nil || entry.Index != 0 {
		t.Fatalf("first line %q is not trajectory entry 0 (%v)", first, err)
	}

	releaseOnce()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(rest, []byte("\n")), []byte("\n"))
	var cls FixpointClassification
	if err := json.Unmarshal(lines[len(lines)-1], &cls); err != nil || cls.Classification == "" {
		t.Fatalf("stream did not end in a classification line: %q (%v)", lines[len(lines)-1], err)
	}
}

// TestMidStreamErrorLine: a failure after streaming began (here:
// engine shutdown mid-trajectory) must reach the client as a final,
// well-formed `{"error": ...}` NDJSON line — the 200 header is already
// on the wire, so the status cannot carry it.
func TestMidStreamErrorLine(t *testing.T) {
	e, srv := serve(t, filepath.Join(t.TempDir(), "results"))
	e.stepHook = func(index int) {
		if index == 1 {
			_ = e.Close()
		}
	}
	status, body := post(t, srv.URL, "/v1/fixpoint", FixpointRequest{Problem: orientationText()})
	if status != http.StatusOK {
		t.Fatalf("status %d (the stream had started; the failure must not change it)", status)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want streamed entries plus an error line", len(lines))
	}
	for i, line := range lines[:len(lines)-1] {
		var entry FixpointEntry
		if err := json.Unmarshal(line, &entry); err != nil {
			t.Fatalf("line %d is not a trajectory entry: %q", i, line)
		}
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &envelope); err != nil {
		t.Fatalf("final line is not well-formed JSON: %q (%v)", lines[len(lines)-1], err)
	}
	if envelope.Error == "" {
		t.Fatalf("final line carries no error: %q", lines[len(lines)-1])
	}
}

// TestClientDisconnectCancelsComputation: when the last subscriber of
// an in-flight fixpoint departs, the call leaves the flight table, the
// computation is cancelled before committing a result, no goroutine
// leaks — and a retry completes byte-identically from the memoized
// steps.
func TestClientDisconnectCancelsComputation(t *testing.T) {
	e := newEngine(t, "")
	entered := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := releaser(release)
	defer releaseOnce()
	var hookOnce sync.Once
	e.stepHook = func(index int) {
		if index == 0 {
			hookOnce.Do(func() {
				close(entered)
				<-release
			})
		}
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	req := FixpointRequest{Problem: orientationText()}
	go func() {
		errc <- e.Fixpoint(ctx, req, nil)
	}()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected subscriber got %v, want context.Canceled", err)
	}

	// The abandoned call must leave the flight table immediately, so a
	// fresh identical query starts a fresh call.
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.mu.Lock()
		n := len(e.flight)
		e.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned call never left the flight table")
		}
		time.Sleep(time.Millisecond)
	}

	// Release the blocked computation: it must observe its cancelled
	// context at the next step boundary, exit without committing a
	// trajectory, and leave no goroutine behind.
	releaseOnce()
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d before, %d now", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	if e.rendered.len() != 0 {
		t.Fatal("abandoned computation committed a trajectory; it was not cancelled")
	}

	// Retry: resumes from the memoized steps, byte-identical to an
	// undisturbed engine.
	e.stepHook = nil
	var retry bytes.Buffer
	if err := e.Fixpoint(context.Background(), req, func(line []byte) error {
		_, err := retry.Write(line)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ref := newEngine(t, "")
	var want bytes.Buffer
	if err := ref.Fixpoint(context.Background(), req, func(line []byte) error {
		_, err := want.Write(line)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(retry.Bytes(), want.Bytes()) {
		t.Fatal("retry after abandonment is not byte-identical to the reference")
	}
}

// TestDoubleCloseIdempotent: Close is safe to call twice sequentially
// and many times concurrently — the cmd/serve grace-expiry path closes
// an engine that a deferred Close will close again.
func TestDoubleCloseIdempotent(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Close()
		}()
	}
	wg.Wait()
}

// TestRequestTimeoutStatus: a deadline-exceeded failure before any
// byte is written maps to 504.
func TestRequestTimeoutStatus(t *testing.T) {
	if got := StatusOf(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("StatusOf(DeadlineExceeded) = %d, want 504", got)
	}
	if got := StatusOf(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)); got != http.StatusGatewayTimeout {
		t.Fatalf("StatusOf(wrapped DeadlineExceeded) = %d, want 504", got)
	}
}

// TestRequestTimeoutMidStreamResumes: a request that overruns its
// -request-timeout budget mid-stream ends with an error NDJSON line,
// and a retry without the budget completes byte-identically — the
// timed-out run's steps were already checkpointed.
func TestRequestTimeoutMidStreamResumes(t *testing.T) {
	m := NewMetrics()
	e, err := New(Config{StoreDir: filepath.Join(t.TempDir(), "results"), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	release := make(chan struct{})
	releaseOnce := releaser(release)
	var hookOnce sync.Once
	e.stepHook = func(index int) {
		if index == 1 {
			hookOnce.Do(func() { <-release })
		}
	}
	timed := httptest.NewServer(WithRequestTimeout(250*time.Millisecond, Routes(e, m)))
	t.Cleanup(timed.Close)
	defer releaseOnce()

	req := FixpointRequest{Problem: orientationText()}
	status, body := post(t, timed.URL, "/v1/fixpoint", req)
	if status != http.StatusOK {
		t.Fatalf("status %d (streaming had started before the deadline)", status)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("final line %q is not an error line (%v)", lines[len(lines)-1], err)
	}
	if !strings.Contains(envelope.Error, "deadline") {
		t.Fatalf("error %q does not report the deadline", envelope.Error)
	}

	// Unblock the abandoned computation, then retry with no budget.
	releaseOnce()
	plain := httptest.NewServer(Routes(e, m))
	t.Cleanup(plain.Close)
	retryStatus, retryBody := post(t, plain.URL, "/v1/fixpoint", req)
	if retryStatus != http.StatusOK {
		t.Fatalf("retry status %d: %s", retryStatus, retryBody)
	}
	_, refSrv := serve(t, filepath.Join(t.TempDir(), "ref"))
	refStatus, refBody := post(t, refSrv.URL, "/v1/fixpoint", req)
	if refStatus != http.StatusOK {
		t.Fatalf("reference status %d", refStatus)
	}
	if !bytes.Equal(retryBody, refBody) {
		t.Fatal("retry after timeout is not byte-identical to the reference")
	}
	// The streamed prefix before the error line must match the
	// reference stream.
	prefix := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	if len(prefix) > 0 && !bytes.HasPrefix(refBody, append(prefix, '\n')) {
		t.Fatal("timed-out stream is not a prefix of the reference stream")
	}
}
