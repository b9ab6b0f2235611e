// Package conformance is the randomized metamorphic test harness: it
// drives generated problems (internal/problems/gen) through the whole
// stack — the speedup engine, the fixpoint driver, the HTTP service
// with its store/pack/rendered warm tiers, and the brute-force oracle —
// and checks the invariants that Brandt's speedup theorem and this
// repository's byte-identity contract promise for EVERY locally
// checkable problem, not just the hand-picked catalog:
//
//   - Worker identity: core.Speedup output is byte-identical across
//     worker counts (or fails the state budget identically).
//   - Determinism: two fixpoint runs of the same problem under the
//     same budgets render byte-identical trajectories — the substance
//     of "same core.StableKey class ⇒ identical fixpoint trajectory".
//   - Rename invariance: a label-renamed problem (gen.RenameLabels)
//     classifies identically — same kind, step count and cycle shape,
//     with an isomorphic trajectory.
//   - Service round-trip: the problem flows through POST /v1/fixpoint
//     cold, then warm, then from a packed artifact, and every tier
//     returns the same bytes.
//   - Oracle agreement on small instances (n ≤ Options.OracleMaxN):
//     the 0-round verdict matches core.ZeroRoundSolvableNoInput, the
//     decode direction of Theorem 1 holds (Speedup(Π) solvable in 0
//     rounds on an oriented family ⇒ Π solvable in 1), and verdicts
//     are monotone under port permutation of the instance family: the
//     union of a family with its gen.PermutePorts image is solvable
//     only if both halves are.
//
// Checks that exceed a search or state budget are skipped, never
// failed — the harness's claims are exact where they are asserted.
// Every failure carries the single-point -gen spec that regenerates
// the offending problem, so a CI failure (including one from a
// randomized nightly seed) is reproducible from its log line alone.
package conformance

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/oracle"
	"repro/internal/par"
	"repro/internal/problems"
	"repro/internal/problems/gen"
	"repro/internal/service"
	"repro/internal/store"
)

// Options tunes a conformance run. The zero value selects defaults
// sized for CI: small budgets that classify typical generated problems
// exactly and degrade heavy ones to skips.
type Options struct {
	// MaxSteps bounds each fixpoint run (default 3).
	MaxSteps int
	// MaxStates is the core state budget per speedup step (default 4000).
	MaxStates int
	// Workers is how many problems are checked concurrently (default
	// GOMAXPROCS, capped at 8).
	Workers int
	// Seed drives the harness's own random draws (renamings, port
	// permutations, family shuffles). Reports are deterministic for a
	// fixed (points, Seed) pair.
	Seed int64
	// OracleMaxN caps the instance size of the oracle families
	// (default 8): oracle agreement is asserted on every instance of
	// at most this many nodes.
	OracleMaxN int
	// OracleMaxSteps is the search budget per oracle.Decide call
	// (default 300000); exhaustion skips the check.
	OracleMaxSteps int
	// StoreDir is the persistent store used for the round-trip checks;
	// empty selects a temporary directory removed when Run returns.
	StoreDir string
}

func (o Options) withDefaults() Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 3
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 4000
	}
	if o.Workers <= 0 {
		o.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	if o.OracleMaxN <= 0 {
		o.OracleMaxN = 8
	}
	if o.OracleMaxSteps <= 0 {
		o.OracleMaxSteps = 300_000
	}
	return o
}

// Failure is one violated invariant: the problem (by point name), the
// exact -gen spec that regenerates it, the check that failed and what
// it saw.
type Failure struct {
	Problem string `json:"problem"`
	Repro   string `json:"repro"`
	Check   string `json:"check"`
	Detail  string `json:"detail"`
}

// Report is the outcome of one conformance run.
type Report struct {
	// Problems is the number of problems driven through the stack.
	Problems int `json:"problems"`
	// Checks is the number of invariant checks that ran to a verdict.
	Checks int `json:"checks"`
	// OracleDecided counts problems whose decode-direction oracle
	// check reached a verdict (was not skipped for budget or size).
	OracleDecided int `json:"oracle_decided"`
	// Skips counts skipped checks by reason.
	Skips map[string]int `json:"skips,omitempty"`
	// Failures lists every violated invariant with its reproduction.
	Failures []Failure `json:"failures,omitempty"`
}

// OK reports whether every asserted check held.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// String renders a one-line summary plus one line per failure.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "conformance: %d problems, %d checks, %d oracle-decided, %d skips, %d failures",
		r.Problems, r.Checks, r.OracleDecided, r.skipTotal(), len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "\nFAIL %s [%s]: %s\n  reproduce: -gen %s", f.Problem, f.Check, f.Detail, f.Repro)
	}
	return sb.String()
}

func (r *Report) skipTotal() int {
	n := 0
	for _, c := range r.Skips {
		n += c
	}
	return n
}

// RunSpec generates the spec's points and runs the full harness over
// them; each failure's Repro is the exact single-point spec.
func RunSpec(spec *gen.Spec, opts Options) (*Report, error) {
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	return Run(points, spec.Repro, opts)
}

// pointOutcome accumulates one problem's results; slots are assembled
// in point order so the report is deterministic under Workers.
type pointOutcome struct {
	failures []Failure
	skips    []string
	checks   int
	decided  bool
	body     []byte // warm /v1/fixpoint body, verified against the pack
}

// Run drives every point through the invariant checks. repro(i) must
// return the reproduction handle for point i (RunSpec passes the
// single-point -gen spec; catalog callers may pass the point name).
func Run(points []problems.GridPoint, repro func(i int) string, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	dir := opts.StoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "conformance-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	// One engine and one HTTP server span the run: the service half of
	// the harness exercises exactly the production stack (singleflight,
	// store tiers, NDJSON streaming) rather than a per-problem replica.
	eng, err := service.New(service.Config{StoreDir: dir, Workers: 1, MaxInflight: opts.Workers})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	srv := httptest.NewServer(service.Handler(eng))
	defer srv.Close()

	fams := newFamilyCache(opts)
	outcomes := make([]pointOutcome, len(points))
	_ = par.RunSharded(opts.Workers, len(points), func(_, i int) error {
		outcomes[i] = checkPoint(points[i], srv.Client(), srv.URL, fams, opts)
		return nil
	})

	rep := &Report{Problems: len(points), Skips: map[string]int{}}
	for i, out := range outcomes {
		rep.Checks += out.checks
		if out.decided {
			rep.OracleDecided++
		}
		for _, s := range out.skips {
			rep.Skips[s]++
		}
		for _, f := range out.failures {
			f.Problem = points[i].Name
			f.Repro = repro(i)
			rep.Failures = append(rep.Failures, f)
		}
	}

	// Pack round-trip: pack the store the run populated, then verify
	// the packed artifact serves every point's fixpoint body
	// byte-identically to the live warm tier (and that the store's own
	// rendered record agrees).
	packFailures, packChecks, err := verifyPack(eng.Store(), filepath.Join(dir, "conformance.repack"), points, outcomes, opts)
	if err != nil {
		return nil, err
	}
	rep.Checks += packChecks
	for _, f := range packFailures {
		f.Repro = repro(f.pointIndex)
		rep.Failures = append(rep.Failures, f.Failure)
	}
	return rep, nil
}

// checkPoint runs every per-problem invariant check.
func checkPoint(pt problems.GridPoint, client *http.Client, baseURL string, fams *familyCache, opts Options) pointOutcome {
	var out pointOutcome
	p := pt.Problem
	fail := func(check, format string, args ...any) {
		out.failures = append(out.failures, Failure{Check: check, Detail: fmt.Sprintf(format, args...)})
	}
	skip := func(reason string) { out.skips = append(out.skips, reason) }

	// Worker identity: the speedup transformation is a pure function of
	// the problem — worker counts must not leak into the output, and a
	// state-budget failure must be a property of the problem, not of
	// the schedule.
	sp1, err1 := core.Speedup(p, core.WithWorkers(1), core.WithMaxStates(opts.MaxStates))
	sp4, err4 := core.Speedup(p, core.WithWorkers(4), core.WithMaxStates(opts.MaxStates))
	out.checks++
	switch {
	case (err1 == nil) != (err4 == nil):
		fail("speedup-worker-identity", "1 worker err=%v, 4 workers err=%v", err1, err4)
	case err1 == nil && !bytes.Equal(sp1.CanonicalBytes(), sp4.CanonicalBytes()):
		fail("speedup-worker-identity", "derived problems differ between 1 and 4 workers")
	}

	// Fixpoint determinism: two runs under identical budgets must
	// render byte-identical trajectories (same StableKey ⇒ identical
	// trajectory, exercised on the same problem value).
	run := func(q *core.Problem) (*fixpoint.Result, error) {
		return fixpoint.Run(q, fixpoint.Options{
			MaxSteps: opts.MaxSteps,
			Core:     []core.Option{core.WithWorkers(2), core.WithMaxStates(opts.MaxStates)},
		})
	}
	r1, err := run(p)
	if err != nil {
		fail("fixpoint-run", "fixpoint.Run: %v", err)
		return out
	}
	r2, err := run(p)
	out.checks++
	if err != nil {
		fail("fixpoint-determinism", "second run errored: %v", err)
	} else if !bytes.Equal(service.RenderFixpointNDJSON(r1), service.RenderFixpointNDJSON(r2)) {
		fail("fixpoint-determinism", "two runs of the same problem rendered different trajectories")
	}

	// Rename invariance: classification and trajectory shape are
	// properties of the isomorphism class.
	renamed, _ := gen.RenameLabels(p, opts.Seed)
	rr, err := run(renamed)
	out.checks++
	if err != nil {
		fail("rename-invariance", "renamed run errored: %v", err)
	} else if d := trajectoryShapeDiff(r1, rr); d != "" {
		fail("rename-invariance", "renamed problem classifies differently: %s", d)
	} else if _, ok := core.Isomorphic(r1.Trajectory[0], rr.Trajectory[0]); !ok {
		fail("rename-invariance", "compressed inputs of original and renamed runs are not isomorphic")
	}

	// Service round-trip: the problem flows through POST /v1/fixpoint
	// cold then warm; both bodies must equal each other and the locally
	// rendered trajectory (locking HTTP, store and driver together).
	body1, err := postFixpoint(client, baseURL, p, opts)
	if err != nil {
		fail("service-roundtrip", "cold request: %v", err)
	} else {
		body2, err := postFixpoint(client, baseURL, p, opts)
		out.checks++
		switch {
		case err != nil:
			fail("service-roundtrip", "warm request: %v", err)
		case !bytes.Equal(body1, body2):
			fail("service-roundtrip", "cold and warm /v1/fixpoint bodies differ")
		case !bytes.Equal(body1, service.RenderFixpointNDJSON(r1)):
			fail("service-roundtrip", "/v1/fixpoint body differs from locally rendered trajectory")
		default:
			out.body = body1
		}
	}

	// Oracle checks, on families of instances with at most OracleMaxN
	// nodes each.
	fam, err := fams.get(p.Delta())
	if err != nil {
		skip("no-oracle-family")
		return out
	}
	decide := func(q *core.Problem, insts []oracle.Instance, t int) (*oracle.Verdict, bool) {
		v, err := oracle.Decide(q, insts, t,
			oracle.WithWorkers(1), oracle.WithMaxSteps(opts.OracleMaxSteps))
		if err != nil {
			skip("oracle-budget")
			return nil, false
		}
		return v, true
	}

	// Zero-round agreement: on a pairing-complete family the oracle's
	// 0-round verdict coincides exactly with the adversary argument of
	// Section 3; otherwise only the upper-bound direction is sound.
	_, zr := core.ZeroRoundSolvableNoInput(p)
	if v0, ok := decide(p, fam.plain, 0); ok {
		out.checks++
		if fam.pairingComplete {
			if v0.Solvable != zr {
				fail("zero-round", "oracle@0=%v, ZeroRoundSolvableNoInput=%v on pairing-complete family", v0.Solvable, zr)
			}
		} else if zr && !v0.Solvable {
			fail("zero-round", "ZeroRoundSolvableNoInput holds but oracle@0 unsolvable")
		}
	}

	// Port-permutation monotonicity: renumbering ports changes which
	// output positions pair up on each edge, so a verdict on a single
	// instance may legitimately move — port numbers are the model's
	// symmetry-breaking resource. What must hold for every problem is
	// family monotonicity: one algorithm for the union of a family and
	// its port-permuted image (gen.PermutePorts) also solves each half,
	// so solvable(F ∪ F') implies solvable(F) and solvable(F').
	permuted := make([]oracle.Instance, len(fam.plain))
	for i, inst := range fam.plain {
		permuted[i] = oracle.Instance{
			Name: inst.Name + "/permuted",
			G:    gen.PermutePorts(inst.G, opts.Seed+int64(i)),
			In:   inst.In,
		}
	}
	union := append(append([]oracle.Instance{}, fam.plain...), permuted...)
	if vU, ok := decide(p, union, 1); ok {
		if vA, ok := decide(p, fam.plain, 1); ok {
			if vB, ok := decide(p, permuted, 1); ok {
				out.checks++
				if vU.Solvable && !(vA.Solvable && vB.Solvable) {
					fail("port-permutation", "union of family and permuted family solvable, but halves are %v/%v", vA.Solvable, vB.Solvable)
				}
			}
		}
	}

	// Decode direction of Theorem 1 (oracle agreement on n ≤ OracleMaxN
	// instances): Speedup(Π) solvable in 0 rounds on an oriented family
	// ⇒ Π solvable in 1 round on the same family. Holds on every graph
	// — it needs no girth or independence assumption — so it is
	// asserted whenever the derived problem is within oracle reach.
	if err1 != nil {
		skip("speedup-budget")
		return out
	}
	if st := sp1.Stats(); st.Labels > 12 || st.NodeConfigs > 300 {
		skip("speedup-too-large")
		return out
	}
	if d0, ok := decide(sp1, fam.oriented, 0); ok {
		if o1, ok := decide(p, fam.oriented, 1); ok {
			out.checks++
			out.decided = true
			if d0.Solvable && !o1.Solvable {
				fail("decode-direction", "Speedup(Π)@0 solvable but Π@1 unsolvable on oriented family")
			}
		}
	}
	return out
}

// trajectoryShapeDiff compares the isomorphism-invariant shape of two
// fixpoint results: classification, step count, cycle closure, and the
// per-entry description statistics. Empty means identical.
func trajectoryShapeDiff(a, b *fixpoint.Result) string {
	switch {
	case a.Kind != b.Kind:
		return fmt.Sprintf("kind %q vs %q", a.Kind, b.Kind)
	case a.Steps != b.Steps:
		return fmt.Sprintf("steps %d vs %d", a.Steps, b.Steps)
	case a.CycleStart != b.CycleStart || a.CycleLen != b.CycleLen:
		return fmt.Sprintf("cycle (%d,%d) vs (%d,%d)", a.CycleStart, a.CycleLen, b.CycleStart, b.CycleLen)
	case len(a.Trajectory) != len(b.Trajectory):
		return fmt.Sprintf("trajectory length %d vs %d", len(a.Trajectory), len(b.Trajectory))
	}
	for i := range a.Trajectory {
		if sa, sb := a.Trajectory[i].Stats(), b.Trajectory[i].Stats(); sa != sb {
			return fmt.Sprintf("entry %d stats %+v vs %+v", i, sa, sb)
		}
	}
	return ""
}

// postFixpoint sends one problem through POST /v1/fixpoint and returns
// the complete NDJSON body.
func postFixpoint(client *http.Client, baseURL string, p *core.Problem, opts Options) ([]byte, error) {
	reqBody := fmt.Sprintf(`{"problem": %q, "max_steps": %d, "max_states": %d}`,
		string(p.CanonicalBytes()), opts.MaxSteps, opts.MaxStates)
	resp, err := client.Post(baseURL+"/v1/fixpoint", "application/json", strings.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// packFailure is a Failure that still needs its Repro resolved by index.
type packFailure struct {
	Failure
	pointIndex int
}

// verifyPack packs the run's store and checks that, for every point
// whose warm body is known, the packed artifact and the store's
// rendered record replay exactly the bytes the service served.
func verifyPack(st *store.Store, path string, points []problems.GridPoint, outcomes []pointOutcome, opts Options) ([]packFailure, int, error) {
	if st == nil {
		return nil, 0, nil
	}
	if _, err := st.Pack(path); err != nil {
		return nil, 0, err
	}
	pk, err := store.OpenPack(path)
	if err != nil {
		return nil, 0, err
	}
	defer pk.Close()

	params := store.TrajectoryParams{MaxSteps: opts.MaxSteps, MaxStates: opts.MaxStates}
	var fails []packFailure
	checks := 0
	for i, out := range outcomes {
		if out.body == nil {
			continue
		}
		checks++
		p := points[i].Problem
		addFail := func(format string, args ...any) {
			fails = append(fails, packFailure{
				Failure:    Failure{Problem: points[i].Name, Check: "pack-roundtrip", Detail: fmt.Sprintf(format, args...)},
				pointIndex: i,
			})
		}
		stored, ok, err := st.GetRendered(p, params)
		if err != nil || !ok {
			addFail("store rendered record missing (ok=%v, err=%v)", ok, err)
			continue
		}
		if !bytes.Equal(stored, out.body) {
			addFail("store rendered record differs from served body")
			continue
		}
		packed, ok, err := pk.GetRendered(p, params)
		if err != nil || !ok {
			addFail("pack rendered record missing (ok=%v, err=%v)", ok, err)
			continue
		}
		if !bytes.Equal(packed, out.body) {
			addFail("pack rendered record differs from served body")
		}
	}
	return fails, checks, nil
}

// familyCache builds and caches the per-Δ oracle instance families.
// Families are seeded from Options.Seed, so a run's instance set is as
// reproducible as its problems.
type familyCache struct {
	opts Options
	mu   sync.Mutex
	byΔ  map[int]*familySet
}

type familySet struct {
	plain           []oracle.Instance
	oriented        []oracle.Instance
	pairingComplete bool
	err             error
}

func newFamilyCache(opts Options) *familyCache {
	return &familyCache{opts: opts, byΔ: map[int]*familySet{}}
}

// get returns the Δ's family set, building it on first use: the small
// Δ-regular bases capped at OracleMaxN nodes, expanded with seeded port
// shuffles (plain) and seeded random orientations (oriented).
func (c *familyCache) get(delta int) (*familySet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fs, ok := c.byΔ[delta]; ok {
		return fs, fs.err
	}
	fs := &familySet{}
	bases, err := oracle.RegularBases(delta, c.opts.OracleMaxN)
	if err != nil {
		fs.err = err
	} else {
		fs.plain = oracle.WithShuffledPorts(bases, 2, c.opts.Seed)
		fs.oriented = oracle.WithRandomOrientations(oracle.WithShuffledPorts(bases, 1, c.opts.Seed+1), 2, c.opts.Seed+2)
		fs.pairingComplete = oracle.PairingComplete(fs.plain, delta)
	}
	c.byΔ[delta] = fs
	return fs, fs.err
}
