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

// peerGet reads one record from the ring owner of problem p through
// the typed getter get, over a source that fetches the owner's frame
// within the per-peer budget and reads it through store.FrameSource,
// so the frame and the payload's embedded input are re-validated
// before a byte is used. It returns at once, deriving nothing, for a
// solo engine or a problem this node owns. Otherwise exactly one
// outcome is counted ("hit", "miss", "corrupt", "unreachable", or
// "skipped" while the owner's breaker is open), and ok is true only
// for a fully validated hit. Every other path degrades to local
// computation.
func peerGet[P, V any](e *Engine, get func(recordTier, *core.Problem, P) (V, bool, error), p *core.Problem, par P) (V, bool) {
	var zero V
	pt := e.peers
	if pt == nil {
		return zero, false
	}
	peer := pt.ring.Owner(core.StableKey(p))
	if peer == pt.self {
		return zero, false
	}
	if !pt.available(peer) {
		e.metrics.peerLookup(peer, "skipped")
		return zero, false
	}
	outcome := "miss"
	v, ok, _ := get(store.Source(func(kind store.Kind, key core.StableFingerprint) ([]byte, bool, error) {
		ctx, cancel := context.WithTimeout(e.runCtx, pt.timeout)
		defer cancel()
		frame, ok, err := pt.client.FetchRecord(ctx, peer, kind, key)
		pt.observe(peer, err == nil)
		if err != nil {
			outcome = "unreachable"
			return nil, false, nil
		}
		if !ok {
			return nil, false, nil
		}
		// A frame that fails validation or the embedded-input guard is
		// a byzantine (or version-skewed) peer: counted corrupt unless
		// the getter accepts it, and its bytes are discarded.
		outcome = "corrupt"
		return store.FrameSource(frame)(kind, key)
	}), p, par)
	if ok {
		outcome = "hit"
	}
	e.metrics.peerLookup(peer, outcome)
	return v, ok
}

// peerStep fetches the memoized speedup step for in from its owner,
// backfilling the sink on a hit so the answer is served locally from
// then on.
func (e *Engine) peerStep(in *core.Problem, maxStates int) (*core.Problem, bool) {
	out, ok := peerGet(e, recordTier.GetStep, in, maxStates)
	if ok {
		// Failed commits only cost warmth, never correctness.
		_ = e.sink.PutStep(in, out, maxStates)
	}
	return out, ok
}

// peerFixpoint asks the owner of problem p for its pre-rendered body
// after every local tier missed. A hit backfills the sink's rendered
// record, so one peer fetch makes the answer local.
func (e *Engine) peerFixpoint(p *core.Problem, params store.TrajectoryParams) ([]byte, bool) {
	body, ok := peerGet(e, recordTier.GetRendered, p, params)
	if ok {
		_ = e.sink.PutRendered(p, params, body)
	}
	return body, ok
}

// registerPeerRoutes mounts the peer protocol endpoints when the
// engine is clustered: records are served from the same local sources
// queries read (the pack, then the store), uncounted, and the ring
// endpoint publishes this node's static membership. No-op for a solo
// engine.
func (e *Engine) registerPeerRoutes(mux *http.ServeMux) {
	if e.peers == nil {
		return
	}
	pack, disk := e.localSources()
	cluster.RegisterPeerRoutes(mux, cluster.RingInfo{
		Self:    e.peers.self,
		Members: e.peers.ring.Members(),
		VNodes:  e.peers.ring.VNodes(),
	}, store.Chain(pack, disk))
}
