package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// probeProblem is sinkless coloring at Δ=3 — a one-step speedup, cheap
// enough to use as a liveness probe.
const probeProblem = "node:\n0^2 1\nedge:\n0 0\n0 1\n"

func TestLoadConfig(t *testing.T) {
	base := settings{Store: "flagstore", Workers: 2, MaxInflight: 3, RequestTimeout: time.Second}
	write := func(content string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "serve.conf")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	got, err := loadConfig(write("# full override\n\nstore /data\npreload /data/warm.repack\nworkers 8\nmax-inflight 4\nrequest-timeout 2m\npeers a:1,b:1\nadvertise a:1\npeer-timeout 250ms\npprof localhost:6060\nv true\n"), base)
	if err != nil {
		t.Fatal(err)
	}
	want := settings{Store: "/data", Preload: "/data/warm.repack", Workers: 8, MaxInflight: 4, RequestTimeout: 2 * time.Minute,
		Peers: "a:1,b:1", Advertise: "a:1", PeerTimeout: 250 * time.Millisecond, Pprof: "localhost:6060", Verbose: true}
	if got != want {
		t.Fatalf("full file: got %+v, want %+v", got, want)
	}

	// A key absent from the file keeps its flag value.
	got, err = loadConfig(write("workers 16\n"), base)
	if err != nil {
		t.Fatal(err)
	}
	want = base
	want.Workers = 16
	if got != want {
		t.Fatalf("partial file: got %+v, want %+v", got, want)
	}

	for name, content := range map[string]string{
		"unknown key":   "nope 1\n",
		"bad int":       "workers abc\n",
		"bad duration":  "request-timeout fast\n",
		"bad peer time": "peer-timeout soon\n",
		"bad bool":      "v maybe\n",
		"unknown+valid": "store /data\nnope 1\n",
	} {
		if _, err := loadConfig(write(content), base); err == nil {
			t.Errorf("%s: loadConfig accepted %q", name, content)
		}
	}
	if _, err := loadConfig(filepath.Join(t.TempDir(), "absent"), base); err == nil {
		t.Error("missing file: loadConfig did not fail")
	}
}

// TestBuildGenerationRejectsBadPeerConfig: a cluster misconfiguration
// fails the generation build (so startup fails loudly and a SIGHUP
// reload keeps the previous generation), while a valid list builds.
func TestBuildGenerationRejectsBadPeerConfig(t *testing.T) {
	var logw bytes.Buffer
	for name, s := range map[string]settings{
		"no advertise":       {Peers: "a:1,b:1"},
		"advertise not in":   {Peers: "a:1,b:1", Advertise: "c:1"},
		"duplicate member":   {Peers: "a:1,a:1", Advertise: "a:1"},
		"only empty entries": {Peers: " , ", Advertise: "a:1"},
	} {
		if gen, err := buildGeneration(s, nil, &logw); err == nil {
			gen.engine.Close()
			t.Errorf("%s: buildGeneration accepted %+v", name, s)
		}
	}
	gen, err := buildGeneration(settings{Peers: "a:1, b:1,", Advertise: "b:1"}, nil, &logw)
	if err != nil {
		t.Fatalf("valid peer config rejected: %v", err)
	}
	gen.engine.Close()
}

// probeClosed reports whether the engine refuses new computations.
// Each probe uses a fresh state budget so it can never be answered
// from a warm tier — warm reads deliberately survive Close.
var probeBudget = 100_000

func probeClosed(t *testing.T, e *service.Engine) bool {
	t.Helper()
	probeBudget++
	_, err := e.Speedup(context.Background(), service.SpeedupRequest{Problem: probeProblem, MaxStates: probeBudget})
	if err != nil && !errors.Is(err, service.ErrClosed) {
		t.Fatalf("probe: %v", err)
	}
	return errors.Is(err, service.ErrClosed)
}

// TestSwapPreservesInflightStream is the reload acceptance lock at the
// mechanism level: swapping generations mid-stream must let the old
// generation finish its in-flight NDJSON stream intact, route new
// requests to the new generation immediately, and close the old engine
// only after the stream completes.
func TestSwapPreservesInflightStream(t *testing.T) {
	oldEngine, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = oldEngine.Close() })
	nextEngine, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nextEngine.Close() })

	firstLineSent := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseFn := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseFn()
	stream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		rc := http.NewResponseController(w)
		_, _ = io.WriteString(w, "{\"index\":0}\n")
		_ = rc.Flush()
		close(firstLineSent)
		<-release
		_, _ = io.WriteString(w, "{\"done\":true}\n")
	})
	oldGen := newGeneration(oldEngine, stream)
	nextGen := newGeneration(nextEngine, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	var swap swapHandler
	swap.cur.Store(oldGen)
	srv := httptest.NewServer(&swap)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	<-firstLineSent
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}

	// Swap mid-stream, as the SIGHUP path does.
	old := swap.cur.Swap(nextGen)
	old.retire()

	// The old engine must stay open while its stream is in flight...
	if probeClosed(t, oldEngine) {
		t.Fatal("old engine closed while its stream was still in flight")
	}
	// ...while new requests already land on the new generation.
	resp2, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("post-swap request got %d from the old generation, want 204 from the new", resp2.StatusCode)
	}

	// Finish the stream: every line must arrive intact.
	releaseFn()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("stream broken after swap: %v", err)
	}
	if got := first + string(rest); got != "{\"index\":0}\n{\"done\":true}\n" {
		t.Fatalf("stream corrupted across the swap: %q", got)
	}

	// Drained: the old engine must now close; the new one must not.
	deadline := time.Now().Add(10 * time.Second)
	for !probeClosed(t, oldEngine) {
		if time.Now().After(deadline) {
			t.Fatal("old engine never closed after its last request drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if probeClosed(t, nextEngine) {
		t.Fatal("retiring the old generation closed the new engine")
	}
}

// fixpointBody returns the JSON request body for the probe problem.
func fixpointBody(t *testing.T) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]string{"problem": probeProblem})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServeSIGHUPReload drives the real binary end to end: serve a
// query against store A, rewrite the -config file to store B, SIGHUP,
// and require the reloaded daemon to answer byte-identically while
// committing its records to the new store — then exit cleanly on
// SIGTERM.
func TestServeSIGHUPReload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real subprocess")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	cfgPath := filepath.Join(t.TempDir(), "serve.conf")
	if err := os.WriteFile(cfgPath, []byte("store "+dirA+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-config", cfgPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitFor := func(substr string) string {
		t.Helper()
		timeout := time.After(30 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("daemon exited before logging %q", substr)
				}
				if strings.Contains(line, substr) {
					return line
				}
			case <-timeout:
				t.Fatalf("daemon never logged %q", substr)
			}
		}
	}

	listening := waitFor("listening on")
	fields := strings.Fields(listening) // serve: listening on ADDR (store: ...)
	if len(fields) < 4 {
		t.Fatalf("unparsable listen line %q", listening)
	}
	url := "http://" + fields[3]

	query := func() []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/fixpoint", "application/json", bytes.NewReader(fixpointBody(t)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fixpoint: status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	awaitRecords := func(dir string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			matches, _ := filepath.Glob(filepath.Join(dir, "objects", "*", "*.rendered"))
			if len(matches) > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no rendered records appeared under %s", dir)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	before := query()
	awaitRecords(dirA)

	// Repoint the store and reload.
	if err := os.WriteFile(cfgPath, []byte("store "+dirB+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor("reloaded")

	after := query()
	if !bytes.Equal(before, after) {
		t.Fatalf("post-reload body differs:\n%s\nvs\n%s", before, after)
	}
	awaitRecords(dirB)

	// The process-lifetime metrics endpoint survives the reload.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(metricsBody, []byte("re_http_requests_total")) {
		t.Fatalf("/metrics after reload: status %d body %.200s", resp.StatusCode, metricsBody)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly: %v", err)
	}
}

// TestServeRejectsPositionalArgs keeps the CLI contract: stray
// arguments are a usage error, not silently ignored.
func TestServeRejectsPositionalArgs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real subprocess")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	err := exec.Command(bin, "stray").Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("stray argument: %v, want exit 2", err)
	}
}

// TestRunBadConfigFailsFast: a broken -config file at startup is a
// hard error, not a silently ignored file.
func TestRunBadConfigFailsFast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.conf")
	if err := os.WriteFile(path, []byte("bogus-key 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("127.0.0.1:0", path, settings{}, time.Second); err == nil || !strings.Contains(err.Error(), "unknown key") {
		t.Fatalf("run with a broken config returned %v, want unknown-key error", err)
	}
}

// postFixpoint issues one fixpoint query against gen's handler and
// returns the NDJSON body.
func postFixpoint(t *testing.T, gen *generation) []byte {
	t.Helper()
	srv := httptest.NewServer(gen.handler)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/fixpoint", "application/json", bytes.NewReader(fixpointBody(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fixpoint: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestPreloadServesWithoutStore is the -preload acceptance lock at the
// mechanism level: a generation given a pack over a fresh, empty store
// answers byte-identically to the cold generation that built the pack,
// without materializing a single object file.
func TestPreloadServesWithoutStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	refGen, err := buildGeneration(settings{Store: dir}, service.NewMetrics(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = refGen.engine.Close() })
	cold := postFixpoint(t, refGen)

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	packPath := filepath.Join(t.TempDir(), "warm.repack")
	if _, err := st.Pack(packPath); err != nil {
		t.Fatal(err)
	}

	fresh := filepath.Join(t.TempDir(), "results")
	var logs bytes.Buffer
	gen, err := buildGeneration(settings{Store: fresh, Preload: packPath}, service.NewMetrics(), &logs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gen.engine.Close() })
	if strings.Contains(logs.String(), "preload") {
		t.Fatalf("healthy pack logged a preload degradation: %s", logs.String())
	}
	if got := postFixpoint(t, gen); !bytes.Equal(got, cold) {
		t.Fatalf("pack-served body differs from cold body:\n%s\nvs\n%s", got, cold)
	}
	objects, err := filepath.Glob(filepath.Join(fresh, "objects", "*", "*.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) != 0 {
		t.Fatalf("pack-served query touched objects/: %v", objects)
	}
}

// TestPreloadDegradesOnCorruptPack: a pack that fails validation must
// not stop the daemon — the generation builds, logs the skip, and
// serves byte-identically from the JSON store underneath.
func TestPreloadDegradesOnCorruptPack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	refGen, err := buildGeneration(settings{Store: dir}, service.NewMetrics(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = refGen.engine.Close() })
	cold := postFixpoint(t, refGen)

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	packPath := filepath.Join(t.TempDir(), "warm.repack")
	if _, err := st.Pack(packPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(packPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	gen, err := buildGeneration(settings{Store: dir, Preload: packPath}, service.NewMetrics(), &logs)
	if err != nil {
		t.Fatalf("corrupt pack failed the generation: %v", err)
	}
	t.Cleanup(func() { _ = gen.engine.Close() })
	if !strings.Contains(logs.String(), "serving without the pack tier") {
		t.Fatalf("degradation not logged: %q", logs.String())
	}
	if got := postFixpoint(t, gen); !bytes.Equal(got, cold) {
		t.Fatal("store-served body behind a corrupt pack differs from cold body")
	}
}

// TestPprofServerLifecycle drives the profiling listener through its
// reload transitions: off → on (serving /debug/pprof/), moved (old
// socket dead, new one serving), and off again — exactly what a
// SIGHUP config change does to it.
func TestPprofServerLifecycle(t *testing.T) {
	var p pprofServer
	logw := new(bytes.Buffer)

	p.apply("127.0.0.1:0", logw)
	if p.ln == nil {
		t.Fatalf("apply did not bind: %s", logw)
	}
	first := p.ln.Addr().String()
	fetch := func(addr string) (int, error) {
		resp, err := http.Get("http://" + addr + "/debug/pprof/")
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if status, err := fetch(first); err != nil || status != http.StatusOK {
		t.Fatalf("pprof index: status %d, err %v", status, err)
	}

	// Same address: a no-op, the socket stays.
	p.apply("127.0.0.1:0", logw)
	if p.ln == nil || p.ln.Addr().String() != first {
		t.Fatal("apply with unchanged address rebound the socket")
	}

	// Moved: the old socket must be dead, the new one serving.
	p.stop()
	p.apply("127.0.0.1:0", logw)
	second := p.ln.Addr().String()
	if status, err := fetch(second); err != nil || status != http.StatusOK {
		t.Fatalf("moved pprof index: status %d, err %v", status, err)
	}
	if _, err := fetch(first); err == nil {
		t.Fatal("old pprof socket still serving after the move")
	}

	// Off: the listener closes.
	p.apply("", logw)
	if _, err := fetch(second); err == nil {
		t.Fatal("pprof socket still serving after disable")
	}
}
