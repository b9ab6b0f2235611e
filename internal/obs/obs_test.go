package obs_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCounterGaugeBasics: the scalar instruments count what they are
// told, and Gauge.RaiseTo is a monotone max.
func TestCounterGaugeBasics(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := reg.Gauge("g", "help")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(7)
	g.RaiseTo(3) // below current: no-op
	if got := g.Value(); got != 7 {
		t.Fatalf("RaiseTo lowered the gauge to %d", got)
	}
	g.RaiseTo(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("RaiseTo(9) = %d, want 9", got)
	}
}

// TestRegistryIdempotent: re-registering the same (name, labels) series
// returns the same instrument, and a type clash panics.
func TestRegistryIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("x_total", "help", obs.L("k", "v"))
	b := reg.Counter("x_total", "help", obs.L("k", "v"))
	if a != b {
		t.Fatal("same series registered twice returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "help", obs.L("k", "v"))
}

// TestHistogramBuckets: observations land in the right cumulative
// buckets and the snapshot carries them with a trailing +Inf.
func TestHistogramBuckets(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h_seconds", "help", []float64{0.01, 0.1})
	h.Observe(5 * time.Millisecond)   // <= 0.01
	h.Observe(50 * time.Millisecond)  // <= 0.1
	h.Observe(500 * time.Millisecond) // +Inf only

	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if len(s.Buckets) != 3 {
		t.Fatalf("got %d buckets, want 3 (2 bounds + Inf)", len(s.Buckets))
	}
	wantCounts := []int64{1, 2, 3} // cumulative
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d (le %s) = %d, want %d", i, b.LE, b.Count, wantCounts[i])
		}
	}
	if s.Buckets[2].LE != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", s.Buckets[2].LE)
	}
	if s.SumSeconds < 0.55 || s.SumSeconds > 0.56 {
		t.Fatalf("sum = %v, want ~0.555", s.SumSeconds)
	}
}

// TestWritePrometheus: the exposition output carries HELP/TYPE headers,
// label rendering with escaping, and the histogram series triple.
func TestWritePrometheus(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("req_total", `requests with "quotes" and a
newline`, obs.L("path", `a"b\c`)).Add(3)
	reg.Gauge("depth", "queue depth").Set(2)
	h := reg.Histogram("lat_seconds", "latency", []float64{0.5})
	h.Observe(250 * time.Millisecond)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP req_total requests with \"quotes\" and a\\nnewline\n",
		"# TYPE req_total counter\n",
		`req_total{path="a\"b\\c"} 3` + "\n",
		"# TYPE depth gauge\n",
		"depth 2\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.5"} 1` + "\n",
		`lat_seconds_bucket{le="+Inf"} 1` + "\n",
		"lat_seconds_sum 0.25\n",
		"lat_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHandler: the HTTP endpoint serves the exposition format with the
// version-tagged content type.
func TestHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ticks_total", "ticks").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "ticks_total 1\n") {
		t.Fatalf("body missing counter:\n%s", body)
	}
}

// TestResponseWriterStatusAndBytes: the wrapper records the status
// (explicit or the implicit 200) and counts written bytes without
// altering what reaches the client.
func TestResponseWriterStatusAndBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	w := obs.Wrap(rec)
	if w.Status() != http.StatusOK {
		t.Fatalf("pre-write status = %d, want the implicit 200", w.Status())
	}
	w.WriteHeader(http.StatusTeapot)
	w.WriteHeader(http.StatusOK) // later calls must not overwrite
	n, err := io.WriteString(w, "hello")
	if err != nil || n != 5 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if w.Status() != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", w.Status())
	}
	if w.BytesWritten() != 5 {
		t.Fatalf("bytes = %d, want 5", w.BytesWritten())
	}
	if rec.Code != http.StatusTeapot || rec.Body.String() != "hello" {
		t.Fatalf("recorder saw %d %q", rec.Code, rec.Body.String())
	}

	// Implicit 200 on first Write.
	rec2 := httptest.NewRecorder()
	w2 := obs.Wrap(rec2)
	_, _ = io.WriteString(w2, "x")
	if w2.Status() != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("implicit status = %d/%d, want 200", w2.Status(), rec2.Code)
	}
}

// flushCounter is a ResponseWriter that counts flushes.
type flushCounter struct {
	http.ResponseWriter
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestResponseWriterFlushPassthrough: FlushError reaches the wrapped
// writer's Flusher, and reports ErrNotSupported when there is none —
// both directly and through http.NewResponseController's Unwrap chain.
func TestResponseWriterFlushPassthrough(t *testing.T) {
	under := &flushCounter{ResponseWriter: httptest.NewRecorder()}
	w := obs.Wrap(under)
	if err := w.FlushError(); err != nil {
		t.Fatal(err)
	}
	// A ResponseController built over a second wrapper must reach the
	// same Flusher through Unwrap.
	outer := obs.Wrap(w)
	if err := http.NewResponseController(outer).Flush(); err != nil {
		t.Fatal(err)
	}
	if under.flushes != 2 {
		t.Fatalf("underlying flusher saw %d flushes, want 2", under.flushes)
	}

	// No Flusher underneath: ErrNotSupported, not a panic.
	plain := obs.Wrap(struct{ http.ResponseWriter }{httptest.NewRecorder()})
	if err := plain.FlushError(); !errors.Is(err, http.ErrNotSupported) {
		t.Fatalf("flush on non-flusher: %v, want ErrNotSupported", err)
	}
}
