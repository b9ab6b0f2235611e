package fixpoint_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/problems"
	"repro/internal/problems/gen"
)

// TestMapMemoByteIdentity locks the Memo contract on the in-memory
// implementation: with a memo (cold and warm) and without one, Run
// produces byte-identical trajectories and classifications.
func TestMapMemoByteIdentity(t *testing.T) {
	memo := fixpoint.NewMapMemo()
	opts := func(m fixpoint.Memo) fixpoint.Options {
		return fixpoint.Options{
			MaxSteps: 3,
			Core:     []core.Option{core.WithMaxStates(8_000), core.WithWorkers(1)},
			Memo:     m,
		}
	}
	for _, entry := range problems.Catalog() {
		bare, err := fixpoint.Run(entry.Problem, opts(nil))
		if err != nil {
			t.Fatalf("%s: bare: %v", entry.Name, err)
		}
		cold, err := fixpoint.Run(entry.Problem, opts(memo))
		if err != nil {
			t.Fatalf("%s: cold memo: %v", entry.Name, err)
		}
		warm, err := fixpoint.Run(entry.Problem, opts(memo))
		if err != nil {
			t.Fatalf("%s: warm memo: %v", entry.Name, err)
		}
		for _, pair := range []struct {
			name string
			res  *fixpoint.Result
		}{{"cold", cold}, {"warm", warm}} {
			if pair.res.Kind != bare.Kind || pair.res.Steps != bare.Steps ||
				pair.res.CycleStart != bare.CycleStart || pair.res.CycleLen != bare.CycleLen {
				t.Fatalf("%s: %s run classified %v/%d, bare %v/%d",
					entry.Name, pair.name, pair.res.Kind, pair.res.Steps, bare.Kind, bare.Steps)
			}
			if len(pair.res.Trajectory) != len(bare.Trajectory) {
				t.Fatalf("%s: %s trajectory length differs", entry.Name, pair.name)
			}
			for i := range bare.Trajectory {
				if string(pair.res.Trajectory[i].CanonicalBytes()) != string(bare.Trajectory[i].CanonicalBytes()) {
					t.Fatalf("%s: %s trajectory entry %d differs", entry.Name, pair.name, i)
				}
			}
		}
	}
	if memo.Len() == 0 {
		t.Fatal("memo stayed empty across the catalog")
	}
}

// countingFailures counts the hits of the failure memo it wraps.
type countingFailures struct {
	fixpoint.FailureMemo
	hits atomic.Int64
}

// LookupFailure delegates and counts hits.
func (c *countingFailures) LookupFailure(in *core.Problem) (error, bool) {
	err, ok := c.FailureMemo.LookupFailure(in)
	if ok {
		c.hits.Add(1)
	}
	return err, ok
}

// permuted returns p with its label IDs reversed: isomorphic to p, but
// with another serialization.
func permuted(t *testing.T, p *core.Problem) *core.Problem {
	t.Helper()
	n := p.Alpha.Size()
	m := make(core.LabelMap, n)
	for i := 0; i < n; i++ {
		m[core.Label(i)] = core.Label(n - 1 - i)
	}
	edge, err := p.Edge.Remap(m)
	if err != nil {
		t.Fatal(err)
	}
	node, err := p.Node.Remap(m)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Problem{Alpha: p.Alpha, Edge: edge, Node: node}
}

// TestFailureMemoServesRenamedFailure: once a budget failure is stored,
// a label-permuted copy of the failing input is answered from the memo,
// and that run is indistinguishable from a cold run without the memo —
// classification, step count, error text and rendered trajectory. The
// cases cover a half-step failure on the input itself and a
// second-half-step failure two steps in.
func TestFailureMemoServesRenamedFailure(t *testing.T) {
	sp, err := gen.ParseSpec(genGoldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	genPoint, err := sp.Point(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		p         *core.Problem
		maxStates int
	}{
		{"weak2-pointer/delta=3", problems.WeakTwoColoringPointer(3), 100},
		{"rand/seed=1/point=3", genPoint, genGoldenMaxStates},
	}
	for _, tc := range cases {
		opts := func(f fixpoint.FailureMemo) fixpoint.Options {
			return fixpoint.Options{
				MaxSteps: genGoldenMaxSteps,
				Core:     []core.Option{core.WithMaxStates(tc.maxStates), core.WithWorkers(1)},
				Failures: f,
			}
		}
		memo := &countingFailures{FailureMemo: fixpoint.NewIsoFailureMemo()}
		first, err := fixpoint.Run(tc.p, opts(memo))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !errors.Is(first.Err, core.ErrStateBudget) || memo.hits.Load() != 0 {
			t.Fatalf("%s: first run err %v with %d hits, want a computed budget failure", tc.name, first.Err, memo.hits.Load())
		}

		q := permuted(t, tc.p)
		if string(q.Compress().CanonicalBytes()) == string(tc.p.Compress().CanonicalBytes()) {
			t.Fatalf("%s: the permuted copy serializes like the original", tc.name)
		}
		cold, err := fixpoint.Run(q, opts(nil))
		if err != nil {
			t.Fatalf("%s: cold: %v", tc.name, err)
		}
		hit, err := fixpoint.Run(q, opts(memo))
		if err != nil {
			t.Fatalf("%s: memo: %v", tc.name, err)
		}
		if memo.hits.Load() != 1 {
			t.Fatalf("%s: permuted copy made %d memo hits, want 1", tc.name, memo.hits.Load())
		}
		if !errors.Is(hit.Err, core.ErrStateBudget) {
			t.Fatalf("%s: served error %v does not wrap ErrStateBudget", tc.name, hit.Err)
		}
		if hit.Kind != cold.Kind || hit.Steps != cold.Steps || hit.Err.Error() != cold.Err.Error() {
			t.Fatalf("%s: memo run %v/%d/%q, cold run %v/%d/%q",
				tc.name, hit.Kind, hit.Steps, hit.Err, cold.Kind, cold.Steps, cold.Err)
		}
		if renderTrajectory(hit) != renderTrajectory(cold) {
			t.Fatalf("%s: memo trajectory differs from the cold one", tc.name)
		}
	}
}

// TestFailureMemoGeneratedGolden runs the generated golden's points
// through one shared step memo and one shared failure memo, as the
// service and cmd/sweep do, and requires the unedited golden file's
// bytes.
func TestFailureMemoGeneratedGolden(t *testing.T) {
	sp, err := gen.ParseSpec(genGoldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	steps, failures := fixpoint.NewMapMemo(), &countingFailures{FailureMemo: fixpoint.NewIsoFailureMemo()}
	var sb strings.Builder
	for i := 0; i < sp.Count; i++ {
		p, err := sp.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fixpoint.Run(p, fixpoint.Options{
			MaxSteps: genGoldenMaxSteps,
			Core:     []core.Option{core.WithMaxStates(genGoldenMaxStates), core.WithWorkers(1)},
			Memo:     steps,
			Failures: failures,
		})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		text := renderTrajectory(res)
		if res.Err != nil {
			text += "error: " + res.Err.Error() + "\n"
		}
		fmt.Fprintf(&sb, "%d\t%s\t%d\t%x\n", i, res.Kind, res.Steps, sha256.Sum256([]byte(text)))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "gen_rand_seed1_delta3_labels3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatal("memoized generated trajectories differ from the golden file")
	}
	if failures.hits.Load() == 0 {
		t.Fatal("no point was served from the failure memo")
	}
	t.Logf("%d failure memo hits", failures.hits.Load())
}

// distinctProblems is a family of FailureMemoCap+FailureMemoCap/16
// pairwise non-isomorphic problems, built once per test binary:
// member i has i/256+1 labels, each allowed alone at a node of degree
// i%256+1 and at both ends of an edge. Members differ in label count
// or Δ, so no two share a fingerprint.
var distinctProblems = sync.OnceValue(func() []*core.Problem {
	probs := make([]*core.Problem, fixpoint.FailureMemoCap+fixpoint.FailureMemoCap/16)
	for i := range probs {
		labels, delta := i/256+1, i%256+1
		var sb strings.Builder
		sb.WriteString("node:\n")
		for l := 0; l < labels; l++ {
			fmt.Fprintf(&sb, "L%d^%d\n", l, delta)
		}
		sb.WriteString("edge:\n")
		for l := 0; l < labels; l++ {
			fmt.Fprintf(&sb, "L%d L%d\n", l, l)
		}
		probs[i] = core.MustParse(sb.String())
	}
	return probs
})

// syntheticFailures returns one distinct budget error per problem.
func syntheticFailures(n int) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("synthetic failure %d: %w", i, core.ErrStateBudget)
	}
	return errs
}

// TestFailureMemoBound: FailureMemoCap+1 distinct stores leave at most
// FailureMemoCap entries, and the memo keeps answering after the
// overflow clear.
func TestFailureMemoBound(t *testing.T) {
	memo := fixpoint.NewIsoFailureMemo()
	probs := distinctProblems()[:fixpoint.FailureMemoCap+1]
	errs := syntheticFailures(len(probs))
	for i, p := range probs {
		memo.StoreFailure(p, errs[i])
		if memo.Len() > fixpoint.FailureMemoCap {
			t.Fatalf("after %d stores the memo holds %d entries, cap %d", i+1, memo.Len(), fixpoint.FailureMemoCap)
		}
	}
	last := len(probs) - 1
	if err, ok := memo.LookupFailure(probs[last]); !ok || err != errs[last] {
		t.Fatalf("lookup after the overflow clear = %v, %v; want the stored error", err, ok)
	}
}

// TestFailureMemoConcurrent: goroutines looking up and storing on one
// memo across an overflow clear only ever see the error stored for the
// problem they asked about (the problems are pairwise non-isomorphic),
// and the memo stays within its cap. Run under -race.
func TestFailureMemoConcurrent(t *testing.T) {
	const goroutines = 8
	probs := distinctProblems()
	n := len(probs)
	errs := syntheticFailures(n)
	memo := fixpoint.NewIsoFailureMemo()
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += goroutines {
				// Probe a neighbour another goroutine stores, then store
				// this goroutine's own problem and probe it.
				j := (i + 1) % n
				if err, ok := memo.LookupFailure(probs[j]); ok && err != errs[j] {
					bad.Add(1)
				}
				memo.StoreFailure(probs[i], errs[i])
				if err, ok := memo.LookupFailure(probs[i]); ok && err != errs[i] {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d lookups returned another problem's error", bad.Load())
	}
	if memo.Len() > fixpoint.FailureMemoCap {
		t.Fatalf("memo holds %d entries, cap %d", memo.Len(), fixpoint.FailureMemoCap)
	}
}
