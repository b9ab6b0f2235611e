package service

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/store"
)

// PeerConfig joins an engine to a static cluster: a fleet of
// cmd/serve instances that partition record ownership over a
// consistent-hash ring and serve each other's warm records through
// the peer protocol (internal/cluster). The peer tier is consulted
// after every local tier (pack, store, memory) and before cold
// compute; it is strictly an accelerator — any peer failure, from a
// dead socket to a byzantine frame, degrades the lookup to local
// computation, never to a failed or wrong query.
type PeerConfig struct {
	// Self is this node's own member name — the address peers reach it
	// at (cmd/serve -advertise). It must appear in Members; lookups the
	// ring assigns to Self stay local.
	Self string
	// Members is the full static member list of the cluster, Self
	// included (cmd/serve -peers). Every node must be configured with
	// the same list — ownership is derived locally from it.
	Members []string
	// Timeout bounds each peer record fetch (<= 0 selects
	// cluster.DefaultPeerTimeout). Keep it small: a peer hit is only
	// worth having when it beats recomputing.
	Timeout time.Duration
	// VNodes is the ring's virtual-node count per member (<= 0 selects
	// cluster.DefaultVNodes). All nodes must agree on it.
	VNodes int
}

// peerFailureThreshold is how many consecutive unreachable outcomes
// open a peer's breaker.
const peerFailureThreshold = 3

// peerBackoff is how long an open breaker skips a peer before probing
// it again.
const peerBackoff = 5 * time.Second

// peerTier is the engine's view of the cluster: the ring, the
// protocol client, and a per-peer failure breaker so a dead peer
// costs a handful of timeouts, not one per lookup forever.
type peerTier struct {
	ring    *cluster.Ring
	self    string
	client  *cluster.Client
	timeout time.Duration

	mu        sync.Mutex
	fails     map[string]int       // consecutive unreachable outcomes
	downUntil map[string]time.Time // open-breaker deadline
}

// newPeerTier validates the peer configuration and builds the tier.
func newPeerTier(cfg *PeerConfig) (*peerTier, error) {
	ring, err := cluster.NewRing(cfg.Members, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("service: peer config: empty self address")
	}
	if !slices.Contains(ring.Members(), cfg.Self) {
		return nil, fmt.Errorf("service: peer config: self %q is not in the member list", cfg.Self)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = cluster.DefaultPeerTimeout
	}
	return &peerTier{
		ring:      ring,
		self:      cfg.Self,
		client:    cluster.NewClient(timeout),
		timeout:   timeout,
		fails:     make(map[string]int),
		downUntil: make(map[string]time.Time),
	}, nil
}

// available reports whether the peer's breaker admits a request.
func (pt *peerTier) available(peer string) bool {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return time.Now().After(pt.downUntil[peer])
}

// observe records a fetch attempt's reachability. The threshold'th
// consecutive failure opens the breaker for peerBackoff; any success
// (hit, miss, or even a corrupt frame — the peer answered) closes it.
func (pt *peerTier) observe(peer string, reachable bool) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if reachable {
		delete(pt.fails, peer)
		delete(pt.downUntil, peer)
		return
	}
	pt.fails[peer]++
	if pt.fails[peer] >= peerFailureThreshold {
		pt.downUntil[peer] = time.Now().Add(peerBackoff)
		pt.fails[peer] = 0
	}
}

// peerLookup runs one owner-directed record fetch: resolve the owner
// of problem p on the ring, skip the lookup when the owner is this
// node or its breaker is open, fetch the frame within the per-peer
// budget, and hand it to decode — which must re-validate everything
// (the store's Decode*Record functions do). Exactly one outcome is
// counted per call ("hit", "miss", "corrupt", "unreachable", or
// "skipped"), and the return value is true only for a fully validated
// hit. Every other path degrades to local computation.
func (e *Engine) peerLookup(p *core.Problem, kind store.Kind, key core.StableFingerprint, decode func(frame []byte) (bool, error)) bool {
	pt := e.peers
	if pt == nil {
		return false
	}
	peer := pt.ring.Owner(core.StableKey(p))
	if peer == pt.self {
		return false
	}
	if !pt.available(peer) {
		e.metrics.peerLookup(peer, "skipped")
		return false
	}
	ctx, cancel := context.WithTimeout(e.runCtx, pt.timeout)
	defer cancel()
	frame, ok, err := pt.client.FetchRecord(ctx, peer, kind, key)
	if err != nil {
		pt.observe(peer, false)
		e.metrics.peerLookup(peer, "unreachable")
		return false
	}
	pt.observe(peer, true)
	if !ok {
		e.metrics.peerLookup(peer, "miss")
		return false
	}
	ok, derr := decode(frame)
	if derr != nil || !ok {
		// The peer answered with bytes that fail frame validation or
		// the embedded-input guard: a byzantine (or version-skewed)
		// peer, degraded to a miss. The bytes are discarded.
		e.metrics.peerLookup(peer, "corrupt")
		return false
	}
	e.metrics.peerLookup(peer, "hit")
	return true
}

// peerStep fetches the memoized speedup step for in from its owner,
// backfilling the sink on a hit so the answer is served locally from
// then on.
func (e *Engine) peerStep(in *core.Problem, maxStates int) (*core.Problem, bool) {
	var out *core.Problem
	hit := e.peerLookup(in, store.KindStep, store.StepRecordKey(in, maxStates), func(frame []byte) (bool, error) {
		p, ok, err := store.DecodeStepRecord(frame, in, maxStates)
		out = p
		return ok, err
	})
	if !hit {
		return nil, false
	}
	// Failed commits only cost warmth, never correctness.
	_ = e.sink.PutStep(in, out, maxStates)
	return out, true
}

// peerFixpoint asks the owner of problem p for its pre-rendered body
// after every local tier missed. A hit backfills the sink's rendered
// record, so one peer fetch makes the answer local.
func (e *Engine) peerFixpoint(p *core.Problem, params store.TrajectoryParams) ([]byte, bool) {
	if e.peers == nil {
		return nil, false
	}
	var body []byte
	if !e.peerLookup(p, store.KindRendered, store.RenderedRecordKey(p, params), func(frame []byte) (bool, error) {
		b, ok, err := store.DecodeRenderedRecord(frame, p, params)
		body = b
		return ok, err
	}) {
		return nil, false
	}
	_ = e.sink.PutRendered(p, params, body)
	return body, true
}

// registerPeerRoutes mounts the peer protocol endpoints when the
// engine is clustered: records are served from the same local tiers
// queries read (pack first, then store), and the ring endpoint
// publishes this node's static membership. No-op for a solo engine.
func (e *Engine) registerPeerRoutes(mux *http.ServeMux) {
	if e.peers == nil {
		return
	}
	var srcs []cluster.RecordSource
	if e.pk != nil {
		srcs = append(srcs, e.pk)
	}
	if e.st != nil {
		srcs = append(srcs, e.st)
	}
	cluster.RegisterPeerRoutes(mux, cluster.RingInfo{
		Self:    e.peers.self,
		Members: e.peers.ring.Members(),
		VNodes:  e.peers.ring.VNodes(),
	}, cluster.Sources(srcs...))
}
