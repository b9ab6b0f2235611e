package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// LatencyBands is the fixed histogram bucketing (upper bounds in
// seconds) shared by the request-latency and gate-wait histograms:
// sub-millisecond warm hits up through multi-second cold enumerations.
var LatencyBands = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// Metrics is the daemon's instrument set: request counts and latency
// bands by endpoint, singleflight dedup counters, warm-tier
// hit/miss/corrupt outcomes by record tier, admission-gate queue depth
// and wait time, and NDJSON
// stream volume. One Metrics outlives engine generations (a SIGHUP
// reload swaps engines, not counters), and a nil *Metrics is a valid
// no-op receiver for every recording method, so the engine and
// handlers need no conditionals.
//
// Everything here feeds GET /metrics and GET /v1/stats only. No query
// response body ever reads an instrument — that is the structural
// guarantee behind the cold/warm byte-identity contract.
type Metrics struct {
	reg *obs.Registry

	mu       sync.Mutex
	requests map[requestKey]*obs.Counter
	latency  map[string]*obs.Histogram
	peers    map[peerKey]*obs.Counter

	flightLeaders   *obs.Counter
	flightFollowers *obs.Counter

	warm map[string]map[string]*obs.Counter // tier → outcome → counter

	gateWaiting     *obs.Gauge
	gatePeakWaiting *obs.Gauge
	gateInUse       *obs.Gauge
	gateCapacity    *obs.Gauge
	gateWait        *obs.Histogram

	streamLines *obs.Counter
	streamBytes *obs.Counter
}

// requestKey identifies one (endpoint, status) request-counter series.
type requestKey struct {
	endpoint string
	status   int
}

// peerKey identifies one (peer, outcome) peer-lookup counter series.
type peerKey struct {
	peer    string
	outcome string
}

// peerOutcomes are the per-peer lookup outcomes of the cluster warm
// tier: "hit" served a verified record, "miss" the owner had none,
// "corrupt" the owner answered bytes that failed re-validation (frame
// checksum or embedded-input guard — a byzantine or version-skewed
// peer), "unreachable" the fetch failed or timed out, "skipped" the
// peer's failure breaker was open. Every outcome but "hit" degrades
// the lookup to local computation.
var peerOutcomes = []string{"hit", "miss", "corrupt", "unreachable", "skipped"}

// warmTiers are the warm-lookup record tiers instrumented by the
// engine: the preloaded pack artifact (its step and verdict records),
// the sink's full steps, pre-rendered response bodies and rendered
// verdicts, in-process half steps, and the in-process per-budget memo
// of state-budget failures (consulted after a step-memo miss, matched
// up to label renaming). The "rendered" tier folds its whole chain —
// in-process memo, pack record, sink record — into exactly one outcome
// per request that reaches it; a
// memory-only sink keeps no rendered records, so there only the memo
// hits. A request the rendered tier misses replays its steps:
// trajectory records are committed for cmd/sweep's checkpoints, and
// no serve path reads them.
var warmTiers = []string{"pack", "step", "rendered", "verdict", "half", "failure"}

// warmOutcomes are the per-tier lookup outcomes: "hit" served a record,
// "miss" fell through cleanly, "corrupt" fell through because the
// record failed validation (checksum, truncation, or version mismatch)
// — the serve path degrades to recomputation in both fall-through
// cases, but "corrupt" is the operator's signal to re-sweep or re-pack.
// The pack, step and verdict tiers count at the fetch, before the
// typed getter's collision guard: a validated record the guard rejects
// (a hash collision or a foreign file) counts as that tier's hit, and
// the lookup still misses.
var warmOutcomes = []string{"hit", "miss", "corrupt"}

// warmOutcome folds a warm-tier (ok, err) lookup result into its
// outcome label.
func warmOutcome(ok bool, err error) string {
	switch {
	case ok:
		return "hit"
	case err != nil:
		return "corrupt"
	default:
		return "miss"
	}
}

// NewMetrics returns a ready instrument set backed by a fresh
// registry.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg:      reg,
		requests: make(map[requestKey]*obs.Counter),
		latency:  make(map[string]*obs.Histogram),
		peers:    make(map[peerKey]*obs.Counter),
		flightLeaders: reg.Counter("re_singleflight_requests_total",
			"Requests by singleflight role: a leader starts a computation, a follower subscribes to one in flight.",
			obs.L("role", "leader")),
		flightFollowers: reg.Counter("re_singleflight_requests_total",
			"Requests by singleflight role: a leader starts a computation, a follower subscribes to one in flight.",
			obs.L("role", "follower")),
		warm: make(map[string]map[string]*obs.Counter),
		gateWaiting: reg.Gauge("re_gate_waiting",
			"Engine computations currently queued for an admission slot."),
		gatePeakWaiting: reg.Gauge("re_gate_waiting_peak",
			"Peak admission-queue depth since process start."),
		gateInUse: reg.Gauge("re_gate_in_use",
			"Admission slots currently held by running engine computations."),
		gateCapacity: reg.Gauge("re_gate_capacity",
			"Total admission slots (the -max-inflight bound)."),
		gateWait: reg.Histogram("re_gate_wait_seconds",
			"Time computations spent waiting for an admission slot.", LatencyBands),
		streamLines: reg.Counter("re_stream_lines_total",
			"NDJSON lines written to fixpoint stream subscribers."),
		streamBytes: reg.Counter("re_stream_bytes_total",
			"NDJSON bytes written to fixpoint stream subscribers."),
	}
	for _, tier := range warmTiers {
		m.warm[tier] = make(map[string]*obs.Counter, len(warmOutcomes))
		for _, outcome := range warmOutcomes {
			m.warm[tier][outcome] = reg.Counter("re_warm_lookups_total",
				"Warm-tier lookups by record tier and outcome (pack artifact, persistent store, or in-process cache).",
				obs.L("tier", tier), obs.L("outcome", outcome))
		}
	}
	return m
}

// flightCall records one deduplicated request: the leader starts the
// computation, followers subscribe to it.
func (m *Metrics) flightCall(leader bool) {
	if m == nil {
		return
	}
	if leader {
		m.flightLeaders.Inc()
	} else {
		m.flightFollowers.Inc()
	}
}

// warmLookup records one warm-tier lookup outcome ("hit", "miss", or
// "corrupt" — see warmOutcome).
func (m *Metrics) warmLookup(tier, outcome string) {
	if m == nil {
		return
	}
	m.warm[tier][outcome].Inc()
}

// peerLookup records one cluster peer-tier lookup outcome under
// re_peer_lookups_total{peer,outcome} (see peerOutcomes). The peer
// label is bounded by the static member list, so cardinality is the
// fleet size times five.
func (m *Metrics) peerLookup(peer, outcome string) {
	if m == nil {
		return
	}
	key := peerKey{peer, outcome}
	m.mu.Lock()
	c, ok := m.peers[key]
	if !ok {
		c = m.reg.Counter("re_peer_lookups_total",
			"Cluster peer-tier lookups by owning peer and outcome (hit, miss, corrupt, unreachable, skipped).",
			obs.L("peer", peer), obs.L("outcome", outcome))
		m.peers[key] = c
	}
	m.mu.Unlock()
	c.Inc()
}

// streamedLine records one NDJSON line put on the wire.
func (m *Metrics) streamedLine(n int) {
	if m == nil {
		return
	}
	m.streamLines.Inc()
	m.streamBytes.Add(int64(n))
}

// streamedBody records a fully-buffered NDJSON body put on the wire,
// counting its lines so a warm buffered serve reports exactly like the
// same body streamed line by line.
func (m *Metrics) streamedBody(body []byte) {
	if m == nil {
		return
	}
	m.streamLines.Add(int64(bytes.Count(body, []byte{'\n'})))
	m.streamBytes.Add(int64(len(body)))
}

// httpDone records one finished request.
func (m *Metrics) httpDone(endpoint string, status int, d time.Duration) {
	if m == nil {
		return
	}
	m.requestCounter(endpoint, status).Inc()
	m.latencyHistogram(endpoint).Observe(d)
}

// requestCounter returns the (endpoint, status) counter, registering
// it on first use.
func (m *Metrics) requestCounter(endpoint string, status int) *obs.Counter {
	key := requestKey{endpoint, status}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.requests[key]
	if !ok {
		c = m.reg.Counter("re_http_requests_total", "Requests by endpoint and response status.",
			obs.L("endpoint", endpoint), obs.L("status", fmt.Sprintf("%d", status)))
		m.requests[key] = c
	}
	return c
}

// latencyHistogram returns the endpoint's latency histogram,
// registering it on first use.
func (m *Metrics) latencyHistogram(endpoint string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[endpoint]
	if !ok {
		h = m.reg.Histogram("re_http_request_seconds", "Request wall-clock latency by endpoint.",
			LatencyBands, obs.L("endpoint", endpoint))
		m.latency[endpoint] = h
	}
	return h
}

// gateObserver adapts Metrics to par.GateObserver.
type gateObserver struct{ m *Metrics }

// GateQueued counts a computation entering the admission queue.
func (o gateObserver) GateQueued() {
	o.m.gateWaiting.Inc()
	o.m.gatePeakWaiting.RaiseTo(o.m.gateWaiting.Value())
}

// GateEntered counts a computation acquiring a slot.
func (o gateObserver) GateEntered(wait time.Duration) {
	o.m.gateWaiting.Dec()
	o.m.gateInUse.Inc()
	o.m.gateWait.Observe(wait)
}

// GateRefused counts a computation abandoning the queue.
func (o gateObserver) GateRefused(wait time.Duration) {
	o.m.gateWaiting.Dec()
	o.m.gateWait.Observe(wait)
}

// GateLeft counts a slot release.
func (o gateObserver) GateLeft() { o.m.gateInUse.Dec() }

// observeGate attaches the metrics to a gate's admission events and
// records its capacity. Nil-safe.
func (m *Metrics) observeGate(g *par.Gate) {
	if m == nil {
		return
	}
	m.gateCapacity.Set(int64(g.Cap()))
	g.SetObserver(gateObserver{m})
}

// endpointLabel normalizes a request path to the fixed endpoint label
// set, so hostile paths cannot inflate metric cardinality.
func endpointLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/speedup", "/v1/fixpoint", "/v1/verify", "/v1/catalog", "/v1/stats", "/metrics",
		"/v1/peer/record", "/v1/peer/ring":
		return r.URL.Path
	default:
		return "other"
	}
}

// Instrument wraps next so every request is counted by endpoint and
// status and its latency lands in the endpoint's histogram. The
// ResponseWriter wrapper preserves Flusher (NDJSON streaming keeps
// flushing line-by-line).
func (m *Metrics) Instrument(next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ww := obs.Wrap(w)
		start := time.Now()
		next.ServeHTTP(ww, r)
		m.httpDone(endpointLabel(r), ww.Status(), time.Since(start))
	})
}

// LogRequests wraps next with one method/path/status/bytes/duration
// log line per request, written to w (stderr in cmd/serve). The same
// flush-preserving wrapper as Instrument, so logging can never stall a
// stream. Log output never enters response bodies.
func LogRequests(next http.Handler, w io.Writer) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		ww := obs.Wrap(rw)
		start := time.Now()
		next.ServeHTTP(ww, r)
		fmt.Fprintf(w, "serve: %s %s %d %dB %.1fms\n",
			r.Method, r.URL.Path, ww.Status(), ww.BytesWritten(),
			float64(time.Since(start).Microseconds())/1000)
	})
}

// WithRequestTimeout bounds every request's wall clock at d by
// deadline-ing its context; 0 disables the budget and returns next
// unchanged. A fixpoint computation whose every subscriber timed out
// is cancelled at its next step boundary with its completed steps
// already memoized, so a timed-out query retried with a longer budget
// resumes from the checkpoint and yields byte-identical lines.
func WithRequestTimeout(d time.Duration, next http.Handler) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// Routes returns the daemon's full route set: the four /v1 query
// endpoints of Handler, the cluster peer-protocol endpoints when the
// engine is clustered (GET /v1/peer/record and /v1/peer/ring), plus
// GET /metrics (Prometheus text format) and GET /v1/stats (the JSON
// snapshot), all behind the Instrument middleware. This is exactly
// what cmd/serve mounts, so tests against Routes exercise the
// production composition.
func Routes(e *Engine, m *Metrics) http.Handler {
	mux := http.NewServeMux()
	registerQueryRoutes(mux, e, m)
	e.registerPeerRoutes(mux)
	if m == nil {
		return mux
	}
	mux.Handle("GET /metrics", m.reg.Handler())
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Stats())
	})
	return m.Instrument(mux)
}

// Stats is the GET /v1/stats body: the same instruments as /metrics,
// grouped and with the derived ratios precomputed. Unlike query
// responses it is observational by definition — two servers never
// promise identical stats bodies.
type Stats struct {
	// Requests counts finished requests per endpoint and status.
	Requests []RequestStat `json:"requests"`
	// Latency carries the per-endpoint wall-clock histograms.
	Latency []LatencyStat `json:"latency"`
	// Singleflight summarizes in-flight deduplication.
	Singleflight SingleflightStat `json:"singleflight"`
	// Store lists warm-tier hit/miss counts by record tier.
	Store []StoreStat `json:"store"`
	// Peers lists cluster peer-tier lookup outcomes by owning peer;
	// empty (omitted) for a solo daemon.
	Peers []PeerStat `json:"peers,omitempty"`
	// Gate describes admission-control pressure.
	Gate GateStat `json:"gate"`
	// Stream totals the NDJSON lines and bytes streamed.
	Stream StreamStat `json:"stream"`
}

// RequestStat is one (endpoint, status) request count.
type RequestStat struct {
	// Endpoint is the normalized endpoint label.
	Endpoint string `json:"endpoint"`
	// Status is the HTTP response status.
	Status int `json:"status"`
	// Count is the number of finished requests.
	Count int64 `json:"count"`
}

// LatencyStat is one endpoint's latency histogram.
type LatencyStat struct {
	// Endpoint is the normalized endpoint label.
	Endpoint string `json:"endpoint"`
	// Latency is the wall-clock histogram snapshot.
	Latency obs.HistogramSnapshot `json:"latency"`
}

// SingleflightStat summarizes in-flight deduplication.
type SingleflightStat struct {
	// Leaders counts requests that started a computation.
	Leaders int64 `json:"leaders"`
	// Followers counts requests that subscribed to one in flight.
	Followers int64 `json:"followers"`
	// DedupRatio is Followers / (Leaders + Followers); 0 when idle.
	DedupRatio float64 `json:"dedup_ratio"`
}

// StoreStat is one warm tier's lookup-outcome count.
type StoreStat struct {
	// Tier is the record tier ("pack", "step", "rendered", "verdict",
	// "half", "failure"). A "failure" hit is a step answered with a
	// remembered state-budget failure instead of being computed.
	Tier string `json:"tier"`
	// Hits counts warm lookups that were served.
	Hits int64 `json:"hits"`
	// Misses counts warm lookups that fell through to computation.
	Misses int64 `json:"misses"`
	// Corrupt counts warm lookups that fell through because the record
	// failed validation; the query still succeeds by recomputation.
	Corrupt int64 `json:"corrupt"`
}

// PeerStat is one peer's cluster-lookup outcome counts (see
// peerOutcomes for the degrade semantics of each).
type PeerStat struct {
	// Peer is the owning member's address.
	Peer string `json:"peer"`
	// Hits counts lookups served by a verified peer record.
	Hits int64 `json:"hits"`
	// Misses counts lookups the owner had no record for.
	Misses int64 `json:"misses"`
	// Corrupt counts peer responses that failed re-validation.
	Corrupt int64 `json:"corrupt"`
	// Unreachable counts failed or timed-out fetches.
	Unreachable int64 `json:"unreachable"`
	// Skipped counts lookups suppressed by an open failure breaker.
	Skipped int64 `json:"skipped"`
}

// GateStat describes admission-control pressure.
type GateStat struct {
	// Capacity is the slot count (-max-inflight).
	Capacity int64 `json:"capacity"`
	// InUse is the number of slots currently held.
	InUse int64 `json:"in_use"`
	// Waiting is the current admission-queue depth.
	Waiting int64 `json:"waiting"`
	// PeakWaiting is the deepest the queue has been.
	PeakWaiting int64 `json:"peak_waiting"`
	// Wait is the slot-wait histogram snapshot.
	Wait obs.HistogramSnapshot `json:"wait"`
}

// StreamStat totals NDJSON stream volume.
type StreamStat struct {
	// Lines is the number of NDJSON lines written to subscribers.
	Lines int64 `json:"lines"`
	// Bytes is the number of NDJSON bytes written to subscribers.
	Bytes int64 `json:"bytes"`
}

// Stats assembles the current snapshot.
func (m *Metrics) Stats() Stats {
	m.mu.Lock()
	reqKeys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	latKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		latKeys = append(latKeys, k)
	}
	m.mu.Unlock()
	sort.Slice(reqKeys, func(i, j int) bool {
		if reqKeys[i].endpoint != reqKeys[j].endpoint {
			return reqKeys[i].endpoint < reqKeys[j].endpoint
		}
		return reqKeys[i].status < reqKeys[j].status
	})
	sort.Strings(latKeys)

	s := Stats{
		Singleflight: SingleflightStat{
			Leaders:   m.flightLeaders.Value(),
			Followers: m.flightFollowers.Value(),
		},
		Gate: GateStat{
			Capacity:    m.gateCapacity.Value(),
			InUse:       m.gateInUse.Value(),
			Waiting:     m.gateWaiting.Value(),
			PeakWaiting: m.gatePeakWaiting.Value(),
			Wait:        m.gateWait.Snapshot(),
		},
		Stream: StreamStat{Lines: m.streamLines.Value(), Bytes: m.streamBytes.Value()},
	}
	if total := s.Singleflight.Leaders + s.Singleflight.Followers; total > 0 {
		s.Singleflight.DedupRatio = float64(s.Singleflight.Followers) / float64(total)
	}
	for _, k := range reqKeys {
		m.mu.Lock()
		c := m.requests[k]
		m.mu.Unlock()
		s.Requests = append(s.Requests, RequestStat{Endpoint: k.endpoint, Status: k.status, Count: c.Value()})
	}
	for _, k := range latKeys {
		m.mu.Lock()
		h := m.latency[k]
		m.mu.Unlock()
		s.Latency = append(s.Latency, LatencyStat{Endpoint: k, Latency: h.Snapshot()})
	}
	for _, tier := range warmTiers {
		s.Store = append(s.Store, StoreStat{
			Tier:    tier,
			Hits:    m.warm[tier]["hit"].Value(),
			Misses:  m.warm[tier]["miss"].Value(),
			Corrupt: m.warm[tier]["corrupt"].Value(),
		})
	}
	m.mu.Lock()
	byPeer := make(map[string]*PeerStat)
	peerNames := []string{}
	for k, c := range m.peers {
		ps, ok := byPeer[k.peer]
		if !ok {
			ps = &PeerStat{Peer: k.peer}
			byPeer[k.peer] = ps
			peerNames = append(peerNames, k.peer)
		}
		v := c.Value()
		switch k.outcome {
		case "hit":
			ps.Hits = v
		case "miss":
			ps.Misses = v
		case "corrupt":
			ps.Corrupt = v
		case "unreachable":
			ps.Unreachable = v
		case "skipped":
			ps.Skipped = v
		}
	}
	m.mu.Unlock()
	sort.Strings(peerNames)
	for _, name := range peerNames {
		s.Peers = append(s.Peers, *byPeer[name])
	}
	return s
}
