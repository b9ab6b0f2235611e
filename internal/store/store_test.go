package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/problems"
)

func sinkless(t *testing.T) *core.Problem {
	t.Helper()
	return core.MustParse("node:\n0^2 1\nedge:\n0 0\n0 1\n")
}

func openTemp(t testing.TB) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStepRoundTrip(t *testing.T) {
	s := openTemp(t)
	in := sinkless(t)

	if _, ok, err := s.GetStep(in, 0); ok || err != nil {
		t.Fatalf("empty store: GetStep = (_, %v, %v), want miss", ok, err)
	}

	derived, err := core.Speedup(in)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := derived.RenameCompact()
	if err := s.PutStep(in, out, 0); err != nil {
		t.Fatal(err)
	}

	got, ok, err := s.GetStep(in, 0)
	if err != nil || !ok {
		t.Fatalf("GetStep = (_, %v, %v), want hit", ok, err)
	}
	if !got.Equal(out) {
		t.Fatalf("GetStep returned a different problem:\n%s\nvs\n%s", got, out)
	}
	if string(got.CanonicalBytes()) != string(out.CanonicalBytes()) {
		t.Fatal("GetStep output is not byte-identical to what was stored")
	}

	// The Memo adapter sees the same hit.
	if memoOut, ok := s.StepMemo(0).LookupStep(in); !ok || !memoOut.Equal(out) {
		t.Fatal("LookupStep does not match GetStep")
	}
	// A different problem is a miss.
	if _, ok, err := s.GetStep(out, 0); ok || err != nil {
		t.Fatalf("GetStep(other) = (_, %v, %v), want miss", ok, err)
	}
	// The same problem under a different state budget is a miss: steps
	// cached under one budget must never answer for another.
	if _, ok, err := s.GetStep(in, 100); ok || err != nil {
		t.Fatalf("GetStep(other budget) = (_, %v, %v), want miss", ok, err)
	}
}

// testBody stands in for a rendered fixpoint body: the store never
// interprets body bytes, so any pure function of the result will do.
func testBody(res *fixpoint.Result) []byte {
	var b bytes.Buffer
	for _, p := range res.Trajectory {
		b.Write(p.CanonicalBytes())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%v steps=%d\n", res.Kind, res.Steps)
	return b.Bytes()
}

// trajectoryRecord decodes the KindTrajectory record PutTrajectory
// committed for (in, par); nothing outside the store's tests reads it.
func trajectoryRecord(t *testing.T, s *Store, in *core.Problem, par TrajectoryParams) *trajectoryPayload {
	t.Helper()
	payload, ok, err := decode[trajectoryPayload](s.Source, KindTrajectory, subKey(core.StableKey(in), par.tag()))
	if err != nil || !ok {
		t.Fatalf("trajectory record: ok=%v err=%v, want a record", ok, err)
	}
	return payload
}

// TestTrajectoryRoundTrip: the record PutTrajectory commits holds the
// input, the budgets, the classification, every trajectory entry
// byte-identically and the witness in label order.
func TestTrajectoryRoundTrip(t *testing.T) {
	s := openTemp(t)
	par := TrajectoryParams{MaxSteps: 16}

	for _, entry := range []problems.Entry{
		{Name: "sinkless-coloring/delta=3", Problem: problems.SinklessColoring(3)},
		{Name: "sinkless-orientation/delta=3", Problem: problems.SinklessOrientation(3)},
	} {
		res, err := fixpoint.Run(entry.Problem, fixpoint.Options{MaxSteps: par.MaxSteps})
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if err := s.PutTrajectory(entry.Problem, par, res); err != nil {
			t.Fatalf("%s: put: %v", entry.Name, err)
		}
		got := trajectoryRecord(t, s, entry.Problem, par)
		if got.FPVersion != core.FingerprintVersion || got.MaxSteps != par.MaxSteps || got.MaxStates != par.MaxStates ||
			got.Input != string(entry.Problem.CanonicalBytes()) {
			t.Fatalf("%s: record identity %+v does not match the query", entry.Name, got)
		}
		if fixpoint.Kind(got.Kind) != res.Kind || got.Steps != res.Steps ||
			got.CycleStart != res.CycleStart || got.CycleLen != res.CycleLen || got.ErrMsg != "" {
			t.Fatalf("%s: classification changed across the round trip: %+v vs %+v", entry.Name, got, res)
		}
		if len(got.Trajectory) != len(res.Trajectory) {
			t.Fatalf("%s: trajectory length %d, want %d", entry.Name, len(got.Trajectory), len(res.Trajectory))
		}
		for i := range got.Trajectory {
			if got.Trajectory[i] != string(res.Trajectory[i].CanonicalBytes()) {
				t.Fatalf("%s: trajectory entry %d not byte-identical", entry.Name, i)
			}
		}
		if len(got.Witness) != len(res.Witness) {
			t.Fatalf("%s: witness size %d, want %d", entry.Name, len(got.Witness), len(res.Witness))
		}
		for i, pair := range got.Witness {
			if res.Witness[core.Label(pair[0])] != core.Label(pair[1]) || (i > 0 && got.Witness[i-1][0] >= pair[0]) {
				t.Fatalf("%s: witness disagrees or is out of order at %d", entry.Name, i)
			}
		}
	}
}

// TestTrajectoryBudgetExceededRoundTrip: a budget-exhausted run's
// record keeps the budget error's message byte-for-byte.
func TestTrajectoryBudgetExceededRoundTrip(t *testing.T) {
	s := openTemp(t)
	// A tiny state budget forces BudgetExceeded with a non-nil Err.
	par := TrajectoryParams{MaxSteps: 16, MaxStates: 1}
	p := problems.WeakTwoColoringPointer(3)
	res, err := fixpoint.Run(p, fixpoint.Options{
		MaxSteps: par.MaxSteps,
		Core:     []core.Option{core.WithMaxStates(par.MaxStates)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != fixpoint.BudgetExceeded || res.Err == nil {
		t.Fatalf("setup: Kind=%v Err=%v, want BudgetExceeded with error", res.Kind, res.Err)
	}
	if err := s.PutTrajectory(p, par, res); err != nil {
		t.Fatal(err)
	}
	got := trajectoryRecord(t, s, p, par)
	if fixpoint.Kind(got.Kind) != fixpoint.BudgetExceeded || got.ErrMsg != res.Err.Error() {
		t.Fatalf("record = kind %d err %q, want BudgetExceeded with %q", got.Kind, got.ErrMsg, res.Err)
	}
}

// TestMemoHitMatchesColdRun pins the memo contract end to end: a
// fixpoint run whose every step comes from the store is byte-identical
// to the cold run that populated it. Budgets match the golden-test
// bounds — several catalog trajectories grow without bound and are
// meant to exhaust the budget deterministically.
func TestMemoHitMatchesColdRun(t *testing.T) {
	s := openTemp(t)
	maxStates := 60_000
	if testing.Short() {
		maxStates = 8_000
	}
	opts := func(memo fixpoint.Memo) fixpoint.Options {
		return fixpoint.Options{
			MaxSteps: 3,
			Core:     []core.Option{core.WithMaxStates(maxStates), core.WithWorkers(1)},
			Memo:     memo,
		}
	}
	memo := s.StepMemo(maxStates)
	for _, entry := range problems.Catalog() {
		cold, err := fixpoint.Run(entry.Problem, opts(memo))
		if err != nil {
			t.Fatalf("%s: cold: %v", entry.Name, err)
		}
		warm, err := fixpoint.Run(entry.Problem, opts(memo))
		if err != nil {
			t.Fatalf("%s: warm: %v", entry.Name, err)
		}
		if warm.Kind != cold.Kind || warm.Steps != cold.Steps ||
			warm.CycleStart != cold.CycleStart || warm.CycleLen != cold.CycleLen {
			t.Fatalf("%s: warm classification differs: %+v vs %+v", entry.Name, warm, cold)
		}
		for i := range cold.Trajectory {
			if string(warm.Trajectory[i].CanonicalBytes()) != string(cold.Trajectory[i].CanonicalBytes()) {
				t.Fatalf("%s: warm trajectory entry %d differs", entry.Name, i)
			}
		}
		// And both match the memo-less run.
		bare, err := fixpoint.Run(entry.Problem, opts(nil))
		if err != nil {
			t.Fatalf("%s: bare: %v", entry.Name, err)
		}
		if bare.Kind != cold.Kind || bare.Steps != cold.Steps {
			t.Fatalf("%s: memo changed the classification", entry.Name)
		}
		for i := range bare.Trajectory {
			if string(bare.Trajectory[i].CanonicalBytes()) != string(cold.Trajectory[i].CanonicalBytes()) {
				t.Fatalf("%s: memo changed trajectory entry %d", entry.Name, i)
			}
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

// stepObjectPath returns the on-disk path of the single .step record in
// the store, for the corruption tests.
func stepObjectPath(t *testing.T, s *Store) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Root(), "objects", "*", "*.step"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one step object, got %v (%v)", matches, err)
	}
	return matches[0]
}

// TestVerdictRoundTrip: verdict records replay the rendered bytes
// verbatim, and every parameter of the identity discriminates.
func TestVerdictRoundTrip(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	p := sinkless(t)
	params := VerdictParams{Problem: "sinkless-coloring/delta=3", Rounds: 1, MaxN: 5, Family: "regular", Seed: 1}
	rendered := []byte(`{"problem":"sinkless-coloring/delta=3","solvable":true}`)

	if _, ok, err := st.GetVerdict(p, params); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := st.PutVerdict(p, params, rendered); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.GetVerdict(p, params)
	if err != nil || !ok {
		t.Fatalf("warm lookup: ok=%v err=%v", ok, err)
	}
	if string(got) != string(rendered) {
		t.Fatalf("replayed %q, want %q", got, rendered)
	}

	// Every varied parameter must miss, never mis-serve.
	variants := []VerdictParams{params, params, params, params, params, params, params}
	variants[0].Problem = "other"
	variants[1].Rounds = 2
	variants[2].MaxN = 6
	variants[3].Family = "cycles"
	variants[4].Seed = 2
	variants[5].Relaxed = true
	variants[6].Conformance = true
	for i, v := range variants {
		if _, ok, err := st.GetVerdict(p, v); ok || err != nil {
			t.Fatalf("variant %d: ok=%v err=%v, want miss", i, ok, err)
		}
	}
	// A different problem representation misses too.
	if _, ok, err := st.GetVerdict(problems.SinklessColoring(4), params); ok || err != nil {
		t.Fatalf("different problem: ok=%v err=%v, want miss", ok, err)
	}
}
