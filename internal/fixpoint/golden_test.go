package fixpoint_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/problems"
	"repro/internal/problems/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trajectory files")

// goldenMaxSteps and goldenMaxStates bound the golden runs. Both the
// step count at which a run stops and the set of completed steps are
// order-independent (the state budget counts total emissions, which is
// the same for every enumeration order and worker count), so the
// recorded trajectories are stable across engine-internal refactors.
const (
	goldenMaxSteps  = 3
	goldenMaxStates = 60_000
)

// TestCatalogTrajectoriesGolden locks the Problem.String() rendering of
// every fixpoint trajectory over the full catalog to golden files
// captured from the string-keyed engine before the interning refactor,
// for workers 1 and 4. Any representation change inside core must keep
// these bytes identical.
func TestCatalogTrajectoriesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog trajectories are heavy; skipped in -short mode")
	}
	for _, e := range problems.Catalog() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			var rendered string
			for _, workers := range []int{1, 4} {
				res, err := fixpoint.Run(e.Problem, fixpoint.Options{
					MaxSteps: goldenMaxSteps,
					Core: []core.Option{
						core.WithMaxStates(goldenMaxStates),
						core.WithWorkers(workers),
					},
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := renderTrajectory(res)
				if workers == 1 {
					rendered = got
				} else if got != rendered {
					t.Fatalf("trajectory diverged between workers 1 and %d:\n%s\nvs\n%s", workers, rendered, got)
				}
			}

			checkGolden(t, goldenFileName(e.Name), rendered)
		})
	}
}

// The generated golden covers the space servebench's cold-gen and
// warm-hot workloads draw from, at their budgets. Unlike the catalog
// at goldenMaxStates, this space reaches the state-budget failure path
// of core's maximal-set search (20 of its 256 points end there).
const (
	genGoldenSpec      = "family=rand,seed=1,count=256,delta=3,labels=3"
	genGoldenMaxSteps  = 4
	genGoldenMaxStates = 2000
)

// TestGeneratedTrajectoriesGolden locks, for every point of
// genGoldenSpec, the classification, step count and a sha256 of the
// rendered trajectory plus any budget error text, for workers 1 and 4.
// The file was captured before the exploration was rewritten to a
// mask-based search.
func TestGeneratedTrajectoriesGolden(t *testing.T) {
	sp, err := gen.ParseSpec(genGoldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	var rendered string
	for _, workers := range []int{1, 4} {
		var sb strings.Builder
		for i := 0; i < sp.Count; i++ {
			p, err := sp.Point(i)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fixpoint.Run(p, fixpoint.Options{
				MaxSteps: genGoldenMaxSteps,
				Core: []core.Option{
					core.WithMaxStates(genGoldenMaxStates),
					core.WithWorkers(workers),
				},
			})
			if err != nil {
				t.Fatalf("point %d, workers=%d: %v", i, workers, err)
			}
			text := renderTrajectory(res)
			if res.Err != nil {
				text += "error: " + res.Err.Error() + "\n"
			}
			fmt.Fprintf(&sb, "%d\t%s\t%d\t%x\n", i, res.Kind, res.Steps, sha256.Sum256([]byte(text)))
		}
		if workers == 1 {
			rendered = sb.String()
		} else if sb.String() != rendered {
			t.Fatalf("generated trajectories diverged between workers 1 and %d", workers)
		}
	}
	checkGolden(t, "gen_rand_seed1_delta3_labels3.txt", rendered)
}

// checkGolden compares rendered with testdata/golden/name, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, rendered string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if rendered != string(want) {
		t.Fatalf("output differs from golden %s:\ngot:\n%s\nwant:\n%s", path, rendered, want)
	}
}

// renderTrajectory serializes classification plus every trajectory
// entry's canonical string form.
func renderTrajectory(res *fixpoint.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind: %s\nsteps: %d\ncycle: start=%d len=%d\n", res.Kind, res.Steps, res.CycleStart, res.CycleLen)
	for i, p := range res.Trajectory {
		s := p.Stats()
		fmt.Fprintf(&sb, "-- step %d (labels=%d edge=%d node=%d delta=%d) --\n%s",
			i, s.Labels, s.EdgeConfigs, s.NodeConfigs, s.Delta, p.String())
	}
	return sb.String()
}

func goldenFileName(name string) string {
	r := strings.NewReplacer("/", "_", "=", "", ",", "_")
	return r.Replace(name) + ".txt"
}
