package service

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/problems"
)

// peerTestBudget mirrors the sweep tests' cheap budgets: small enough
// that every grid point finishes instantly, explicit so both cluster
// nodes derive identical cache identities.
const (
	peerTestMaxSteps  = 2
	peerTestMaxStates = 8000
)

// clusterNode is one in-process cluster member: a store-backed engine
// with metrics, served over a real loopback listener whose address is
// also the node's advertised member name.
type clusterNode struct {
	addr string
	dir  string
	e    *Engine
	m    *Metrics
	srv  *httptest.Server
}

// startCluster boots n clustered nodes. Listeners are opened first so
// every engine can be configured with the complete member list before
// any of them starts serving — the same bootstrap order cmd/serve
// reaches via SIGHUP reload.
func startCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		m := NewMetrics()
		dir := t.TempDir()
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
	return nodes
}

// ownedProblem picks a cheap grid problem whose ring owner is member.
// Ports are dynamic, so ownership shifts run to run — the grid is big
// enough that every member owns at least one point in practice.
func ownedProblem(t *testing.T, members []string, member string) *core.Problem {
	t.Helper()
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	points, err := problems.Grid(problems.Families(), 2, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if ring.Owner(core.StableKey(pt.Problem)) == member {
			return pt.Problem
		}
	}
	t.Fatalf("no grid problem owned by %s", member)
	return nil
}

// fixpointBodyFor computes the reference response body on a fresh solo
// engine — the cold, cluster-free answer every tier must reproduce.
func fixpointBodyFor(t *testing.T, p *core.Problem) []byte {
	t.Helper()
	_, srv := serve(t, "")
	status, body := post(t, srv.URL, "/v1/fixpoint", FixpointRequest{
		Problem: string(p.CanonicalBytes()), MaxSteps: peerTestMaxSteps, MaxStates: peerTestMaxStates,
	})
	if status != http.StatusOK {
		t.Fatalf("reference fixpoint: status %d: %s", status, body)
	}
	return body
}

// queryFixpoint issues the standard test fixpoint query against a node.
func queryFixpoint(t *testing.T, url string, p *core.Problem) []byte {
	t.Helper()
	status, body := post(t, url, "/v1/fixpoint", FixpointRequest{
		Problem: string(p.CanonicalBytes()), MaxSteps: peerTestMaxSteps, MaxStates: peerTestMaxStates,
	})
	if status != http.StatusOK {
		t.Fatalf("fixpoint: status %d: %s", status, body)
	}
	return body
}

// peerStat returns a node's accumulated outcomes against one peer.
func peerStat(n *clusterNode, peer string) PeerStat {
	for _, ps := range n.m.Stats().Peers {
		if ps.Peer == peer {
			return ps
		}
	}
	return PeerStat{Peer: peer}
}

// globStore counts a node's committed records of one extension.
func globStore(t *testing.T, dir, ext string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*."+ext))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestPeerServedByteIdentity: a query for a problem owned by the other
// node is answered through the peer tier byte-identically to the cold
// solo answer, counts a peer hit, and backfills the local store so the
// answer is local from then on.
func TestPeerServedByteIdentity(t *testing.T) {
	nodes := startCluster(t, 2)
	members := []string{nodes[0].addr, nodes[1].addr}
	p := ownedProblem(t, members, nodes[0].addr)
	want := fixpointBodyFor(t, p)

	// Warm the owner: it computes locally (owner == self skips the peer
	// tier) and commits to its own store.
	if got := queryFixpoint(t, nodes[0].srv.URL, p); !bytes.Equal(got, want) {
		t.Fatal("owner cold body differs from solo reference")
	}

	// The non-owner serves the same bytes via the peer tier.
	if got := queryFixpoint(t, nodes[1].srv.URL, p); !bytes.Equal(got, want) {
		t.Fatal("peer-served body differs from solo reference")
	}
	if ps := peerStat(nodes[1], nodes[0].addr); ps.Hits == 0 {
		t.Fatalf("no peer hit recorded against owner: %+v", ps)
	}
	if got := len(globStore(t, nodes[1].dir, "rendered")); got == 0 {
		t.Fatal("peer hit did not backfill the local rendered record")
	}
}

// TestPeerDeadDegradesToCompute: with the owner's server down, the
// non-owner computes locally, still answers byte-identically, and the
// failure is visible as unreachable outcomes.
func TestPeerDeadDegradesToCompute(t *testing.T) {
	nodes := startCluster(t, 2)
	members := []string{nodes[0].addr, nodes[1].addr}
	p := ownedProblem(t, members, nodes[0].addr)
	want := fixpointBodyFor(t, p)

	nodes[0].srv.Close()

	if got := queryFixpoint(t, nodes[1].srv.URL, p); !bytes.Equal(got, want) {
		t.Fatal("degraded body differs from solo reference")
	}
	ps := peerStat(nodes[1], nodes[0].addr)
	if ps.Unreachable == 0 {
		t.Fatalf("dead peer not counted unreachable: %+v", ps)
	}
	if ps.Hits != 0 {
		t.Fatalf("dead peer counted hits: %+v", ps)
	}
}

// TestPeerCorruptDegradesToCompute: a byzantine peer answering 200
// with garbage is degraded to a miss — the query recomputes locally
// and serves the correct bytes, and the outcome is counted corrupt.
func TestPeerCorruptDegradesToCompute(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	byzantine := &httptest.Server{Listener: ln, Config: &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "PODC19RS garbage that is not a record frame")
		}),
	}}
	byzantine.Start()
	t.Cleanup(byzantine.Close)

	selfLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	members := []string{ln.Addr().String(), selfLn.Addr().String()}
	m := NewMetrics()
	e, err := New(Config{
		StoreDir: t.TempDir(),
		Metrics:  m,
		Peers:    &PeerConfig{Self: members[1], Members: members, Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	srv := &httptest.Server{Listener: selfLn, Config: &http.Server{Handler: Routes(e, m)}}
	srv.Start()
	t.Cleanup(srv.Close)
	node := &clusterNode{addr: members[1], e: e, m: m, srv: srv}

	p := ownedProblem(t, members, members[0])
	want := fixpointBodyFor(t, p)
	if got := queryFixpoint(t, srv.URL, p); !bytes.Equal(got, want) {
		t.Fatal("byzantine-degraded body differs from solo reference")
	}
	ps := peerStat(node, members[0])
	if ps.Corrupt == 0 {
		t.Fatalf("byzantine peer not counted corrupt: %+v", ps)
	}
	if ps.Hits != 0 {
		t.Fatalf("byzantine peer counted hits: %+v", ps)
	}
}

// TestPeerBreaker: three consecutive unreachable outcomes open a
// peer's breaker; any answer closes it and resets the failure count.
func TestPeerBreaker(t *testing.T) {
	pt, err := newPeerTier(&PeerConfig{Self: "a", Members: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.available("b") {
		t.Fatal("fresh peer not available")
	}
	pt.observe("b", false)
	pt.observe("b", false)
	if !pt.available("b") {
		t.Fatal("breaker opened below the threshold")
	}
	pt.observe("b", false)
	if pt.available("b") {
		t.Fatal("breaker did not open at the threshold")
	}
	pt.observe("b", true)
	if !pt.available("b") {
		t.Fatal("an answer did not close the breaker")
	}
	// The success also reset the consecutive-failure count.
	pt.observe("b", false)
	pt.observe("b", false)
	if !pt.available("b") {
		t.Fatal("failure count survived a success")
	}
}

// TestPeerConfigValidation: New rejects unusable cluster
// configurations instead of quietly running solo.
func TestPeerConfigValidation(t *testing.T) {
	bad := []*PeerConfig{
		{Self: "", Members: []string{"a", "b"}},
		{Self: "c", Members: []string{"a", "b"}},
		{Self: "a", Members: []string{"a", "a"}},
		{Self: "a", Members: nil},
		{Self: "a", Members: []string{"a", ""}},
	}
	for i, cfg := range bad {
		if e, err := New(Config{Peers: cfg}); err == nil {
			_ = e.Close()
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
}

// TestClusterConcurrentClients: eight clients hammering both nodes of
// a two-node ring concurrently all receive byte-identical bodies,
// whether a request lands on the owner or travels the peer tier. Run
// under -race in CI.
func TestClusterConcurrentClients(t *testing.T) {
	nodes := startCluster(t, 2)
	members := []string{nodes[0].addr, nodes[1].addr}
	probs := []*core.Problem{
		ownedProblem(t, members, nodes[0].addr),
		ownedProblem(t, members, nodes[1].addr),
	}
	want := [][]byte{fixpointBodyFor(t, probs[0]), fixpointBodyFor(t, probs[1])}

	var wg sync.WaitGroup
	errs := make(chan error, 8*2*len(probs))
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				node := nodes[(c+round)%2]
				for i, p := range probs {
					body, err := postRaw(node.srv.URL, FixpointRequest{
						Problem: string(p.CanonicalBytes()), MaxSteps: peerTestMaxSteps, MaxStates: peerTestMaxStates,
					})
					if err != nil {
						errs <- err
						continue
					}
					if !bytes.Equal(body, want[i]) {
						errs <- fmt.Errorf("client %d: body for problem %d differs", c, i)
					}
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

// postRaw is the goroutine-safe flavor of post: it returns errors
// instead of calling t.Fatal off the test goroutine.
func postRaw(url string, req FixpointRequest) ([]byte, error) {
	body := fmt.Sprintf(`{"problem":%q,"max_steps":%d,"max_states":%d}`, req.Problem, req.MaxSteps, req.MaxStates)
	resp, err := http.Post(url+"/v1/fixpoint", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return data, nil
}
