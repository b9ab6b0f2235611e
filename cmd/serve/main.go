// Command serve is the round-elimination query daemon: a long-running
// HTTP/JSON service exposing the speedup engine, the iterated fixpoint
// driver, the brute-force solvability oracle and the paper catalog,
// with the persistent result store as its cache.
//
// Usage:
//
//	serve [-addr :8089] [-store dir] [-preload pack] [-workers n]
//	      [-max-inflight n] [-grace 15s] [-request-timeout 0]
//	      [-peers list -advertise self] [-peer-timeout 0]
//	      [-pprof addr] [-config file] [-v]
//
// Endpoints (full request/response schemas in the README, "The
// service" and "Operations"):
//
//	POST /v1/speedup   one or more full speedup steps, or the half step
//	POST /v1/fixpoint  classified trajectory, streamed as NDJSON
//	POST /v1/verify    oracle verdict / conformance report
//	GET  /v1/catalog   the paper's problem catalog
//	GET  /v1/stats     instrument snapshot, JSON
//	GET  /metrics      the same instruments, Prometheus text format
//
// With -peers (a static comma-separated member list) and -advertise
// (this node's own entry in it) the daemon joins a cluster: record
// ownership is derived locally from a consistent-hash ring over the
// list, lookups that miss every local tier ask the key's owner over
// GET /v1/peer/record before computing cold, and the same endpoint
// (plus GET /v1/peer/ring for membership conformance) is served to
// peers. Fetched records are checksum-re-verified on receipt, each
// fetch is bounded by -peer-timeout, and repeated failures open a
// short per-peer breaker — a dead, slow, or corrupt peer only ever
// degrades a lookup to local computation (visible in
// re_peer_lookups_total), never fails a query. Both flags reload on
// SIGHUP, which is how a fleet binding kernel-assigned ports
// bootstraps: start every node solo on :0, collect the bound
// addresses, SIGHUP the full list in.
//
// Identical queries arriving concurrently share one computation
// (singleflight on the stable problem key); finished results are
// committed to the store under -store and replayed from it in
// microseconds, byte-identical to a cold computation. -max-inflight
// bounds how many engine computations run at once (admission control;
// warm store hits bypass it), and -workers sizes the worker pool
// inside each computation. -request-timeout arms a per-request
// wall-clock budget: a request that overruns it is cancelled at the
// engine's next step boundary with every completed step already
// checkpointed, so a retry resumes warm and byte-identical.
//
// -preload opens a packed warm-cache artifact (built by cmd/sweep
// -pack) as a read-only tier consulted before the store and before
// computing cold: the whole packed catalog answers from one mmapped
// file without touching the store's object tree, byte-identical to the
// store-served and cold replies. A pack that fails validation
// (checksum, truncation, version mismatch) is logged and skipped — the
// daemon starts and serves without the pack tier rather than failing.
//
// -pprof starts the net/http/pprof profiling endpoints on a separate
// listener (e.g. -pprof localhost:6060 — keep it off the service
// address; profiles expose internals the query API never does). Like
// every reloadable setting it is also a config-file key: a SIGHUP can
// turn profiling on, move it, or shut it off on a live daemon without
// touching query traffic.
//
// On SIGHUP the daemon reloads -config (a flags file, one "key value"
// per line — see loadConfig) and swaps in a fresh engine over a
// reopened store. The swap is generational: requests in flight —
// including long NDJSON streams — keep streaming from the engine that
// started them, and the old engine closes only after its last request
// finishes. Without -config a SIGHUP rebuilds the engine with the
// current settings, which reopens the store.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and gives
// in-flight requests -grace to finish; whatever a fixpoint iteration
// completed by then is already checkpointed in the store's step memo,
// so a restarted daemon answers the interrupted query byte-identically
// to an uninterrupted run, resuming from the committed steps — the
// same contract as cmd/sweep's kill -9 resume.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8089", "listen address")
	grace := flag.Duration("grace", 15*time.Second, "shutdown grace period for in-flight requests")
	configPath := flag.String("config", "", "flags file overriding the flags above, reloaded on SIGHUP")
	var base settings
	base.register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "serve: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(*addr, *configPath, base, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// settings is the reloadable daemon configuration — everything a
// SIGHUP may change. The listen address and grace period are
// process-lifetime: rebinding a socket is a restart, not a reload.
type settings struct {
	// Store is the persistent result store directory (empty =
	// memory-only).
	Store string
	// Preload is the packed warm-cache artifact path (empty = no pack
	// tier). Each generation reopens — and thus revalidates — the pack.
	Preload string
	// Workers is the per-computation worker count (0 = GOMAXPROCS).
	Workers int
	// MaxInflight is the admission-gate capacity (0 = GOMAXPROCS).
	MaxInflight int
	// RequestTimeout is the per-request wall-clock budget (0 =
	// unbounded).
	RequestTimeout time.Duration
	// Peers is the comma-separated static cluster member list, this
	// node's own address included (empty = solo). Reloadable, which is
	// how a fleet whose members bind kernel-assigned ports bootstraps:
	// start solo, then SIGHUP the full list in.
	Peers string
	// Advertise is this node's own entry in Peers; required when Peers
	// is set, and it must appear in the list.
	Advertise string
	// PeerTimeout is the per-peer record fetch budget (0 = the cluster
	// default).
	PeerTimeout time.Duration
	// Pprof is the profiling listener address (empty = disabled). The
	// pprof endpoints live on their own listener, never on the query
	// address.
	Pprof string
	// Verbose enables the stderr request log.
	Verbose bool
}

// register defines the reloadable flags on fs, each bound to its field
// of s with the field's current value as its default. main registers
// them on the command line; loadConfig registers them on a fresh set
// over a copy of the command-line values and applies the file through
// it, so a flag and its config-file key cannot drift apart.
func (s *settings) register(fs *flag.FlagSet) {
	fs.StringVar(&s.Store, "store", s.Store, "persistent result store directory (empty = memory-only warmth: rendered bodies, steps and verdicts in bounded in-process maps)")
	fs.StringVar(&s.Preload, "preload", s.Preload, "packed warm-cache artifact preloaded as a read-only tier (from sweep -pack)")
	fs.IntVar(&s.Workers, "workers", s.Workers, "worker count inside each engine computation (0 = GOMAXPROCS)")
	fs.IntVar(&s.MaxInflight, "max-inflight", s.MaxInflight, "max concurrent engine computations admitted (0 = GOMAXPROCS)")
	fs.DurationVar(&s.RequestTimeout, "request-timeout", s.RequestTimeout, "per-request wall-clock budget (0 = unbounded)")
	fs.StringVar(&s.Peers, "peers", s.Peers, "comma-separated cluster member list, this node included (empty = solo)")
	fs.StringVar(&s.Advertise, "advertise", s.Advertise, "this node's own entry in -peers (required with -peers)")
	fs.DurationVar(&s.PeerTimeout, "peer-timeout", s.PeerTimeout, "per-peer record fetch budget (0 = the cluster default)")
	fs.StringVar(&s.Pprof, "pprof", s.Pprof, "net/http/pprof listen address on a separate listener (empty = disabled)")
	fs.BoolVar(&s.Verbose, "v", s.Verbose, "request logging on stderr")
}

// loadConfig overlays the flags file at path onto base (the
// command-line flag values) and returns the merged settings. The
// format is one "key value" pair per line; blank lines and #-comments
// are ignored. Keys are the reloadable flags' names (see register),
// with verbose accepted for v, and values parse as they do on the
// command line. A key absent from the file keeps its flag value, so
// deleting a line and SIGHUPing reverts that setting. Unknown keys and
// unparsable values fail the whole load — a reload never applies half
// a file.
func loadConfig(path string, base settings) (settings, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return settings{}, err
	}
	s := base
	fs := flag.NewFlagSet(path, flag.ContinueOnError)
	s.register(fs)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		val = strings.TrimSpace(val)
		name := key
		if name == "verbose" {
			name = "v"
		}
		f := fs.Lookup(name)
		if f == nil {
			return settings{}, fmt.Errorf("%s:%d: unknown key %q", path, i+1, key)
		}
		if err := f.Value.Set(val); err != nil {
			return settings{}, fmt.Errorf("%s:%d: %s: invalid value %q: %v", path, i+1, key, val, err)
		}
	}
	return s, nil
}

// generation binds one engine to its handler chain and counts the
// requests it is serving, so a reload can retire the previous
// generation — close its engine — only after its last in-flight
// request, including long NDJSON streams, has finished.
type generation struct {
	engine  *service.Engine
	handler http.Handler

	mu      sync.Mutex
	active  int
	retired bool
	drained bool
	idle    chan struct{} // closed once retired with no active requests
}

// newGeneration wraps handler so every request is counted against the
// generation for the retire drain.
func newGeneration(engine *service.Engine, handler http.Handler) *generation {
	g := &generation{engine: engine, idle: make(chan struct{})}
	g.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.enter()
		defer g.leave()
		handler.ServeHTTP(w, r)
	})
	return g
}

// enter counts a request in.
func (g *generation) enter() {
	g.mu.Lock()
	g.active++
	g.mu.Unlock()
}

// leave counts a request out, completing the drain if this was the
// retired generation's last one.
func (g *generation) leave() {
	g.mu.Lock()
	g.active--
	if g.retired && g.active == 0 && !g.drained {
		g.drained = true
		close(g.idle)
	}
	g.mu.Unlock()
}

// retire marks the generation as replaced and closes its engine once
// its in-flight requests drain. A request that loaded this generation
// from the swap pointer but has not yet entered may straggle past the
// drain; it then runs against a closed engine, which degrades to a
// clean 503 on cold computations while warm reads still succeed.
func (g *generation) retire() {
	g.mu.Lock()
	g.retired = true
	if g.active == 0 && !g.drained {
		g.drained = true
		close(g.idle)
	}
	g.mu.Unlock()
	go func() {
		<-g.idle
		_ = g.engine.Close()
	}()
}

// swapHandler atomically swaps whole handler generations under live
// traffic: http.Server.Handler is fixed at construction, the pointer
// inside is not.
type swapHandler struct {
	cur atomic.Pointer[generation]
}

// ServeHTTP dispatches to the current generation.
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.cur.Load().handler.ServeHTTP(w, r)
}

// buildGeneration assembles one engine plus its middleware chain from
// settings. The metrics instance is process-lifetime: generations come
// and go under SIGHUP, counters accumulate across all of them. A
// -preload pack that fails to open degrades the generation to serving
// without the pack tier (logged to logw) — preloading accelerates the
// daemon, it must never take it down.
func buildGeneration(s settings, m *service.Metrics, logw io.Writer) (*generation, error) {
	var pack *store.PackReader
	if s.Preload != "" {
		pr, err := store.OpenPack(s.Preload)
		if err != nil {
			fmt.Fprintf(logw, "serve: preload %s: %v (serving without the pack tier)\n", s.Preload, err)
		} else {
			pack = pr
		}
	}
	var peerCfg *service.PeerConfig
	if s.Peers != "" {
		peerCfg = &service.PeerConfig{
			Self:    s.Advertise,
			Members: splitMembers(s.Peers),
			Timeout: s.PeerTimeout,
		}
	}
	engine, err := service.New(service.Config{
		StoreDir:    s.Store,
		Workers:     s.Workers,
		MaxInflight: s.MaxInflight,
		Metrics:     m,
		Pack:        pack,
		Peers:       peerCfg,
	})
	if err != nil {
		if pack != nil {
			_ = pack.Close()
		}
		return nil, err
	}
	handler := service.WithRequestTimeout(s.RequestTimeout, service.Routes(engine, m))
	if s.Verbose {
		handler = service.LogRequests(handler, logw)
	}
	return newGeneration(engine, handler), nil
}

// pprofServer manages the optional profiling listener: net/http/pprof
// handlers mounted on their own mux and socket, fully separate from
// the query listener so profiling exposure is an explicit, revocable
// operator decision. apply reconciles the running listener with the
// configured address on startup and on every SIGHUP reload.
type pprofServer struct {
	addr string
	srv  *http.Server
	ln   net.Listener // the bound socket, for the startup log and tests
}

// pprofMux mounts the net/http/pprof handlers explicitly (the package
// registers on http.DefaultServeMux by import side effect, which the
// daemon never serves).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// apply starts, moves, or stops the profiling listener to match addr.
// A listen failure logs and leaves profiling off — it never takes the
// daemon down — and is retried on the next reload.
func (p *pprofServer) apply(addr string, logw io.Writer) {
	if addr == p.addr {
		return
	}
	p.stop()
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(logw, "serve: pprof %s: %v (profiling disabled)\n", addr, err)
		return
	}
	p.addr = addr
	p.ln = ln
	p.srv = &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
	go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(p.srv, ln)
	fmt.Fprintf(logw, "serve: pprof listening on %s\n", ln.Addr())
}

// stop closes the profiling listener if one is up. Profile requests in
// flight are cut off — acceptable for a diagnostics endpoint being
// deliberately retired.
func (p *pprofServer) stop() {
	if p.srv != nil {
		_ = p.srv.Close()
		p.srv, p.ln = nil, nil
	}
	p.addr = ""
}

// run serves until a termination signal, swapping engine generations
// on SIGHUP and draining gracefully on SIGINT/SIGTERM.
func run(addr, configPath string, base settings, grace time.Duration) error {
	s := base
	if configPath != "" {
		loaded, err := loadConfig(configPath, base)
		if err != nil {
			return err
		}
		s = loaded
	}
	m := service.NewMetrics()
	gen, err := buildGeneration(s, m, os.Stderr)
	if err != nil {
		return err
	}
	var swap swapHandler
	swap.cur.Store(gen)
	defer func() { _ = swap.cur.Load().engine.Close() }()
	var prof pprofServer
	prof.apply(s.Pprof, os.Stderr)
	defer prof.stop()

	srv := &http.Server{
		Handler: &swap,
		// A public daemon must not let stalled clients pin goroutines:
		// bound header and body reads and idle keep-alives. No
		// WriteTimeout — /v1/fixpoint legitimately streams for as long
		// as the engine computes (bound it with -request-timeout).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (store: %s%s%s)\n", ln.Addr(), storeLabel(s.Store), preloadLabel(s.Preload), clusterLabel(s))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	for {
		select {
		case err := <-errc:
			return err
		case <-hup:
			// Reload: a failure keeps the current generation serving —
			// SIGHUP can never take a healthy daemon down.
			next := s
			if configPath != "" {
				loaded, err := loadConfig(configPath, base)
				if err != nil {
					fmt.Fprintf(os.Stderr, "serve: reload: %v (keeping current config)\n", err)
					continue
				}
				next = loaded
			}
			ng, err := buildGeneration(next, m, os.Stderr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: reload: %v (keeping current engine)\n", err)
				continue
			}
			old := swap.cur.Swap(ng)
			s = next
			old.retire()
			prof.apply(s.Pprof, os.Stderr)
			fmt.Fprintf(os.Stderr, "serve: reloaded (store: %s%s%s)\n", storeLabel(s.Store), preloadLabel(s.Preload), clusterLabel(s))
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "serve: shutting down (grace %v)\n", grace)
			shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
			defer cancel()
			if err := srv.Shutdown(shutdownCtx); err != nil {
				// Grace expired: close the engine so in-flight fixpoint
				// iterations stop at their next step boundary — their
				// completed steps are already committed to the store,
				// which is what a restarted daemon resumes from. Close
				// is idempotent, so this and the deferred Close coexist.
				_ = swap.cur.Load().engine.Close()
				_ = srv.Close()
				if !errors.Is(err, context.DeadlineExceeded) {
					return err
				}
			}
			return nil
		}
	}
}

// storeLabel names the warm tier for the startup log line.
func storeLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}

// preloadLabel names the pack tier for the startup log line; empty
// when no pack is configured.
func preloadLabel(path string) string {
	if path == "" {
		return ""
	}
	return ", preload: " + path
}

// splitMembers parses the comma-separated -peers list, trimming
// whitespace and dropping empty entries (a trailing comma is not a
// member). Validation — duplicates, advertise membership — happens in
// service.New, so a bad list fails the generation build and a SIGHUP
// reload keeps the previous generation serving.
func splitMembers(peers string) []string {
	var members []string
	for _, m := range strings.Split(peers, ",") {
		if m = strings.TrimSpace(m); m != "" {
			members = append(members, m)
		}
	}
	return members
}

// clusterLabel names the cluster for the startup log line; empty for
// a solo daemon.
func clusterLabel(s settings) string {
	if s.Peers == "" {
		return ""
	}
	return fmt.Sprintf(", cluster: %d member(s) as %s", len(splitMembers(s.Peers)), s.Advertise)
}
