// Package repro benchmarks regenerate the reproduction's experiments as
// testing.B benchmarks — one per experiment of EXPERIMENTS.md's index
// (the paper is theory, so the "tables" are its worked derivations; see
// EXPERIMENTS.md for what each measures and how to read the numbers).
package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/colorred"
	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/graph"
	"repro/internal/independence"
	"repro/internal/matching"
	"repro/internal/oracle"
	"repro/internal/problems"
	"repro/internal/problems/gen"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/solve"
	"repro/internal/store"
	"repro/internal/superweak"
	"repro/internal/synth"
)

// BenchmarkE1SpeedupSinkless: one full speedup step on sinkless coloring
// (the Section 4.4 fixed point), per Δ.
func BenchmarkE1SpeedupSinkless(b *testing.B) {
	for _, delta := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			p := problems.SinklessColoring(delta)
			for i := 0; i < b.N; i++ {
				derived, err := core.Speedup(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := core.Isomorphic(derived, p); !ok {
					b.Fatal("fixed point lost")
				}
			}
		})
	}
}

// BenchmarkE2ColorReduction: the Section 4.5 derivation and hardening.
func BenchmarkE2ColorReduction(b *testing.B) {
	b.Run("halfstep-k4", func(b *testing.B) {
		p := problems.KColoring(4, 2)
		for i := 0; i < b.N; i++ {
			if _, err := core.HalfStep(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify-hardening-k4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := colorred.VerifyHardening(4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE3SpeedupWeak2: the Section 4.6 derivation (7 labels → 9 node
// configurations), per Δ.
func BenchmarkE3SpeedupWeak2(b *testing.B) {
	for _, delta := range []int{3, 4} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			p := problems.WeakTwoColoringPointer(delta)
			for i := 0; i < b.N; i++ {
				full, err := core.Speedup(p)
				if err != nil {
					b.Fatal(err)
				}
				if full.Node.Size() != 9 {
					b.Fatalf("expected 9 node configs, got %d", full.Node.Size())
				}
			}
		})
	}
}

// BenchmarkE4SuperweakHalf: the Section 5.1 half step (trit description).
func BenchmarkE4SuperweakHalf(b *testing.B) {
	for _, delta := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			p := problems.Superweak(2, delta)
			for i := 0; i < b.N; i++ {
				half, err := core.HalfStep(p)
				if err != nil {
					b.Fatal(err)
				}
				if half.Alpha.Size() != 9 {
					b.Fatalf("expected 9 trit labels, got %d", half.Alpha.Size())
				}
			}
		})
	}
}

// BenchmarkE4SuperweakFull: the second half step of the full derivation
// at the enumerable Δ=3.
func BenchmarkE4SuperweakFull(b *testing.B) {
	half, err := superweak.TritHalfProblem(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SecondHalfStep(half); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Lemma2JStar: the Hall-violator machinery of Lemma 2 over all
// (configuration, orientation) pairs of the enumerable instance.
func BenchmarkE4Lemma2JStar(b *testing.B) {
	half, err := superweak.TritHalfProblem(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	full, err := core.SecondHalfStep(half)
	if err != nil {
		b.Fatal(err)
	}
	allOnes := func(l core.Label) bool {
		target, _ := half.Alpha.Lookup("11")
		prov, ok := full.Alpha.Provenance(l)
		return ok && prov.Contains(int(target))
	}
	rel := map[[2]core.Label]bool{}
	for _, cfg := range full.Edge.Configs() {
		ls := cfg.Expand()
		rel[[2]core.Label{ls[0], ls[1]}] = true
		rel[[2]core.Label{ls[1], ls[0]}] = true
	}
	relFn := func(x, y core.Label) bool { return rel[[2]core.Label{x, y}] }
	configs := full.Node.Configs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range configs {
			pinf, ok := superweak.PInfOf(cfg, allOnes)
			if !ok {
				continue
			}
			q := cfg.Expand()
			for mask := 0; mask < 8; mask++ {
				out := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
				superweak.JStar(q, out, pinf, allOnes, relFn)
			}
		}
	}
}

// BenchmarkE6ParallelSpeedup: the parallel round-elimination engine
// against its sequential baseline, on the weak 2-coloring derivation
// whose maximal-set exploration dominates wall-clock at larger Δ. The
// "seq" variants pin one worker; the "par" variants use GOMAXPROCS. On
// a machine with ≥4 cores the Δ=8 pair is the headline speedup number;
// outputs are byte-identical either way.
func BenchmarkE6ParallelSpeedup(b *testing.B) {
	for _, delta := range []int{4, 6, 8} {
		p := problems.WeakTwoColoringPointer(delta)
		for _, v := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(fmt.Sprintf("weak2/delta=%d/%s", delta, v.name), func(b *testing.B) {
				if delta >= 6 && testing.Short() {
					b.Skip("minutes-long at Δ>=6; run without -short")
				}
				for i := 0; i < b.N; i++ {
					if _, err := core.Speedup(p, core.WithWorkers(v.workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE6ParallelHalfStep: the sharded config-lifting half of the
// engine in isolation, on the superweak problem whose node constraint
// has enough configurations to feed every worker.
func BenchmarkE6ParallelHalfStep(b *testing.B) {
	p := problems.Superweak(2, 5)
	for _, v := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.HalfStep(p, core.WithWorkers(v.workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Fixpoint: the iterated round-elimination driver on the
// problems whose trajectories close (Section 4.4): sinkless coloring
// (fixed point in 1 step) and sinkless orientation (in 2).
func BenchmarkE7Fixpoint(b *testing.B) {
	cases := []struct {
		name string
		p    *core.Problem
		want fixpoint.Kind
	}{
		{"sinkless-coloring/delta=3", problems.SinklessColoring(3), fixpoint.FixedPoint},
		{"sinkless-coloring/delta=8", problems.SinklessColoring(8), fixpoint.FixedPoint},
		{"sinkless-orientation/delta=3", problems.SinklessOrientation(3), fixpoint.FixedPoint},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := fixpoint.Run(tc.p, fixpoint.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Kind != tc.want {
					b.Fatalf("classified %v, want %v", res.Kind, tc.want)
				}
			}
		})
	}
}

// BenchmarkE8ParallelSim: the parallelized simulator against its
// sequential baseline, on workloads whose per-node output functions
// dominate (Cole–Vishkin view walks and the weak 2-coloring chain
// evolution). "seq" pins one worker; "par" uses GOMAXPROCS. Outputs
// are byte-identical either way (cross-checked in internal/sim tests).
func BenchmarkE8ParallelSim(b *testing.B) {
	variants := []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}}

	for _, n := range []int{256, 1024} {
		rng := rand.New(rand.NewSource(1))
		g, err := graph.Ring(n)
		if err != nil {
			b.Fatal(err)
		}
		orient, err := algorithms.RingOrientation(g)
		if err != nil {
			b.Fatal(err)
		}
		ids, err := graph.UniqueIDs(g, 4*n, rng)
		if err != nil {
			b.Fatal(err)
		}
		alg := algorithms.RingThreeColoring{IDSpace: 4 * n}
		in := sim.Inputs{IDs: ids, Orientation: &orient}
		for _, v := range variants {
			b.Run(fmt.Sprintf("ring3col/n=%d/%s", n, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(g, in, alg, sim.WithWorkers(v.workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	for _, tc := range []struct{ n, delta int }{{64, 3}, {128, 3}} {
		rng := rand.New(rand.NewSource(2))
		g, err := graph.RandomRegular(tc.n, tc.delta, rng)
		if err != nil {
			b.Fatal(err)
		}
		ids, err := graph.UniqueIDs(g, 2*tc.n, rng)
		if err != nil {
			b.Fatal(err)
		}
		alg := algorithms.WeakTwoColoring{IDSpace: 2 * tc.n}
		in := sim.Inputs{IDs: ids}
		for _, v := range variants {
			b.Run(fmt.Sprintf("weak2/n=%d/%s", tc.n, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(g, in, alg, sim.WithWorkers(v.workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE9OracleSearch: the brute-force solvability oracle on the
// sinkless-orientation instance family at Δ=3 (K4, K_{3,3}, prism with
// shuffled ports), sequential vs parallel. The t=1 point is unsolvable
// (exhaustive refutation); the oriented t=1 superweak point is the
// solvable counterpart from the conformance harness.
func BenchmarkE9OracleSearch(b *testing.B) {
	bases, err := oracle.RegularBases(3, 10)
	if err != nil {
		b.Fatal(err)
	}
	plain := oracle.WithShuffledPorts(bases, 8, 1)
	oriented := oracle.WithRandomOrientations(oracle.WithShuffledPorts(bases, 4, 2), 3, 3)
	so := problems.SinklessOrientation(3)
	sw := problems.Superweak(2, 3)
	cases := []struct {
		name   string
		p      *core.Problem
		insts  []oracle.Instance
		rounds int
	}{
		{"sinkless-orientation/t=1", so, plain, 1},
		{"sinkless-orientation/t=2", so, plain, 2},
		{"superweak-oriented/t=1", sw, oriented, 1},
	}
	for _, tc := range cases {
		for _, v := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par", 0}} {
			b.Run(tc.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					verdict, err := oracle.Decide(tc.p, tc.insts, tc.rounds, oracle.WithWorkers(v.workers))
					if err != nil {
						b.Fatal(err)
					}
					if verdict.Solvable != (tc.p == sw) {
						b.Fatalf("unexpected verdict %v for %s", verdict.Solvable, tc.name)
					}
				}
			})
		}
	}
}

// BenchmarkE10InternedHalfStep: the interned-representation side of the
// E10 pair — HalfStep on superweak per Δ (the same workload the
// string-keyed engine was measured on at the pre-refactor commit; the
// recorded baseline numbers and the deltas live in EXPERIMENTS.md).
// Allocation counts are part of the experiment: the interner's point is
// fewer and smaller allocations per derived configuration.
func BenchmarkE10InternedHalfStep(b *testing.B) {
	for _, delta := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("superweak/delta=%d", delta), func(b *testing.B) {
			p := problems.Superweak(2, delta)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.HalfStep(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("weak2-speedup/delta=4", func(b *testing.B) {
		if testing.Short() {
			b.Skip("half-second per iteration; run without -short")
		}
		p := problems.WeakTwoColoringPointer(4)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Speedup(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11InternedFixpoint: the interned-representation side of the
// E11 pair — full fixpoint runs (speedup + interned-fingerprint memo +
// isomorphism confirmation) on the closing trajectories, against the
// string-keyed baselines recorded in EXPERIMENTS.md.
func BenchmarkE11InternedFixpoint(b *testing.B) {
	cases := []struct {
		name string
		p    *core.Problem
		want fixpoint.Kind
	}{
		{"sinkless-coloring/delta=3", problems.SinklessColoring(3), fixpoint.FixedPoint},
		{"sinkless-coloring/delta=8", problems.SinklessColoring(8), fixpoint.FixedPoint},
		{"sinkless-orientation/delta=3", problems.SinklessOrientation(3), fixpoint.FixedPoint},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := fixpoint.Run(tc.p, fixpoint.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Kind != tc.want {
					b.Fatalf("classified %v, want %v", res.Kind, tc.want)
				}
			}
		})
	}
}

// sweepMaxStates/sweepBudget match the bounds of the fixpoint golden
// tests: several catalog trajectories grow without bound, so sweeps pin
// MaxSteps and the state budget to make every task terminate
// deterministically. The same sweepMaxStates must key the store records
// (TrajectoryParams, StepMemo) or the memo would never match its run.
const sweepMaxStates = 60_000

var sweepBudget = fixpoint.Options{
	MaxSteps: 3,
	Core:     []core.Option{core.WithMaxStates(sweepMaxStates), core.WithWorkers(1)},
}

// sweepCatalogOnce replays cmd/sweep's per-task path over the full
// catalog against one store directory: rendered-checkpoint lookup,
// memoized fixpoint run on a miss, rendered-checkpoint write. It
// returns the number of checkpoint hits.
func sweepCatalogOnce(b *testing.B, st *store.Store) int {
	b.Helper()
	params := store.TrajectoryParams{MaxSteps: sweepBudget.MaxSteps, MaxStates: sweepMaxStates}
	hits := 0
	for _, entry := range problems.Catalog() {
		if _, ok, _ := st.GetRendered(entry.Problem, params); ok {
			hits++
			continue
		}
		opts := sweepBudget
		opts.Memo = st.StepMemo(sweepMaxStates)
		res, err := fixpoint.Run(entry.Problem, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.PutRendered(entry.Problem, params, service.RenderFixpointNDJSON(res)); err != nil {
			b.Fatal(err)
		}
	}
	return hits
}

// BenchmarkE12SweepStore: the E12 pair — a full-catalog classification
// sweep against a cold persistent store (every trajectory computed,
// checkpointed and step-memoized) vs the same sweep against the warm
// store it leaves behind (every task a checkpoint hit). The ratio is
// the cache's whole value proposition; EXPERIMENTS.md records it.
func BenchmarkE12SweepStore(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if hits := sweepCatalogOnce(b, st); hits != 0 {
				b.Fatalf("cold sweep had %d checkpoint hits", hits)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sweepCatalogOnce(b, st) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hits := sweepCatalogOnce(b, st); hits != len(problems.Catalog()) {
				b.Fatalf("warm sweep had %d hits, want %d", hits, len(problems.Catalog()))
			}
		}
	})
}

// BenchmarkE13FixpointMemo: the E13 pair — fixpoint runs against a warm
// step memo, store-backed (disk record + canonical-parse per step) vs
// in-memory (fixpoint.MapMemo) vs none. Store hits replace each
// enumeration with a file read; the in-memory memo bounds the best
// case. Outputs are byte-identical in all three modes (locked by
// TestMemoHitMatchesColdRun and TestMapMemoByteIdentity).
func BenchmarkE13FixpointMemo(b *testing.B) {
	cases := []struct {
		name string
		p    *core.Problem
	}{
		{"sinkless-coloring/delta=8", problems.SinklessColoring(8)},
		{"sinkless-orientation/delta=3", problems.SinklessOrientation(3)},
		{"weak2-pointer/delta=3", problems.WeakTwoColoringPointer(3)},
	}
	for _, tc := range cases {
		run := func(b *testing.B, memo fixpoint.Memo) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := sweepBudget
				opts.Memo = memo
				if _, err := fixpoint.Run(tc.p, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(tc.name+"/memo=none", func(b *testing.B) { run(b, nil) })
		b.Run(tc.name+"/memo=map", func(b *testing.B) {
			memo := fixpoint.NewMapMemo()
			opts := sweepBudget
			opts.Memo = memo
			if _, err := fixpoint.Run(tc.p, opts); err != nil { // warm it
				b.Fatal(err)
			}
			b.ResetTimer()
			run(b, memo)
		})
		b.Run(tc.name+"/memo=store", func(b *testing.B) {
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			memo := st.StepMemo(sweepMaxStates)
			opts := sweepBudget
			opts.Memo = memo
			if _, err := fixpoint.Run(tc.p, opts); err != nil { // warm it
				b.Fatal(err)
			}
			b.ResetTimer()
			run(b, memo)
		})
	}
}

// BenchmarkE5StepTable: Theorem 4 step counting.
func BenchmarkE5StepTable(b *testing.B) {
	heights := []int{3, 7, 12, 17, 27, 52, 102}
	for i := 0; i < b.N; i++ {
		superweak.StepTable(heights)
	}
}

// BenchmarkF1Independence: the exhaustive t-independence verification.
func BenchmarkF1Independence(b *testing.B) {
	g, err := graph.RingUniform(6)
	if err != nil {
		b.Fatal(err)
	}
	class := independence.OrientationClass(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := independence.CheckTIndependence(class, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2SuperweakTransform: the Lemma 3 transformation plus the
// Figure 2 style output verifier on the 3-cube.
func BenchmarkF2SuperweakTransform(b *testing.B) {
	half, err := superweak.TritHalfProblem(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	full, err := core.SecondHalfStep(half)
	if err != nil {
		b.Fatal(err)
	}
	bd := graph.NewBuilder(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}, {0, 4}, {1, 5}, {2, 6}, {3, 7}} {
		if err := bd.AddEdge(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
	g := bd.Build()
	// Restrict then solve once; benchmark the transformation itself.
	sol := solveRestricted(b, g, half, full)
	rng := rand.New(rand.NewSource(1))
	orient := graph.RandomOrientation(g, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := superweak.Transform(g, orient, sol, half, full, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := superweak.VerifyOutput(g, out, g.MaxDegree()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkU1ColeVishkin: simulated ring 3-coloring end to end.
func BenchmarkU1ColeVishkin(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g, err := graph.Ring(n)
			if err != nil {
				b.Fatal(err)
			}
			orient, err := algorithms.RingOrientation(g)
			if err != nil {
				b.Fatal(err)
			}
			ids, err := graph.UniqueIDs(g, 4*n, rng)
			if err != nil {
				b.Fatal(err)
			}
			alg := algorithms.RingThreeColoring{IDSpace: 4 * n}
			in := sim.Inputs{IDs: ids, Orientation: &orient}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := sim.Run(g, in, alg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Verify(g, sol, problems.KColoring(3, 2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkU1WeakTwoColoring: simulated odd-degree weak 2-coloring.
func BenchmarkU1WeakTwoColoring(b *testing.B) {
	for _, tc := range []struct{ n, delta int }{{20, 3}, {16, 5}} {
		b.Run(fmt.Sprintf("n=%d,delta=%d", tc.n, tc.delta), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g, err := graph.RandomRegular(tc.n, tc.delta, rng)
			if err != nil {
				b.Fatal(err)
			}
			ids, err := graph.UniqueIDs(g, 2*tc.n, rng)
			if err != nil {
				b.Fatal(err)
			}
			alg := algorithms.WeakTwoColoring{IDSpace: 2 * tc.n}
			in := sim.Inputs{IDs: ids}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := sim.Run(g, in, alg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Verify(g, sol, problems.WeakTwoColoringPointer(tc.delta)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkU2Theorem1: the mechanized Theorem 1 equivalence at t=1 on a
// fixed random problem.
func BenchmarkU2Theorem1(b *testing.B) {
	p := problems.KColoring(2, 2)
	for i := 0; i < b.N; i++ {
		derived, err := core.Speedup(p)
		if err != nil {
			b.Fatal(err)
		}
		one, err := synth.OneRoundOrientedSolvable(p)
		if err != nil {
			b.Fatal(err)
		}
		_, zero := core.ZeroRoundSolvableWithOrientation(derived)
		if one != zero {
			b.Fatal("equivalence violated")
		}
	}
}

// BenchmarkMatchingHopcroftKarp: the Lemma 2 substrate on random bipartite
// graphs.
func BenchmarkMatchingHopcroftKarp(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	bg := matching.NewBipartite(200, 200)
	for u := 0; u < 200; u++ {
		for v := 0; v < 200; v++ {
			if rng.Intn(20) == 0 {
				bg.AddEdge(u, v)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MaxMatching(bg)
	}
}

func solveRestricted(b *testing.B, g *graph.Graph, half, full *core.Problem) *sim.Solution {
	b.Helper()
	target, _ := half.Alpha.Lookup("11")
	allOnes := func(l core.Label) bool {
		prov, ok := full.Alpha.Provenance(l)
		return ok && prov.Contains(int(target))
	}
	rel := map[[2]core.Label]bool{}
	for _, cfg := range full.Edge.Configs() {
		ls := cfg.Expand()
		rel[[2]core.Label{ls[0], ls[1]}] = true
		rel[[2]core.Label{ls[1], ls[0]}] = true
	}
	relFn := func(x, y core.Label) bool { return rel[[2]core.Label{x, y}] }
	node := core.NewConstraint(full.Delta())
	for _, cfg := range full.Node.Configs() {
		pinf, ok := superweak.PInfOf(cfg, allOnes)
		if !ok {
			continue
		}
		q := cfg.Expand()
		friendly := true
		for mask := 0; mask < 1<<uint(full.Delta()) && friendly; mask++ {
			out := make([]bool, full.Delta())
			for i := range out {
				out[i] = mask&(1<<uint(i)) != 0
			}
			if _, ok := superweak.JStar(q, out, pinf, allOnes, relFn); !ok {
				friendly = false
			}
		}
		if friendly {
			node.MustAdd(cfg)
		}
	}
	restricted, err := core.NewProblem(full.Alpha, full.Edge.Clone(), node)
	if err != nil {
		b.Fatal(err)
	}
	sol, ok, err := solve.Solve(g, restricted, solve.Options{})
	if err != nil || !ok {
		b.Fatalf("restricted solve failed: ok=%v err=%v", ok, err)
	}
	return sol
}

// e14FixpointBody is the E14 request body: the sinkless-coloring Δ=3
// fixpoint trajectory, the service's flagship query.
const e14FixpointBody = `{"problem":"node:\n0^2 1\nedge:\n0 0\n0 1\n"}`

// e14Server starts a service HTTP server over a store dir ("" =
// memory-only), registering cleanup with the benchmark.
func e14Server(b *testing.B, dir string) *httptest.Server {
	b.Helper()
	engine, err := service.New(service.Config{StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = engine.Close() })
	srv := httptest.NewServer(service.Handler(engine))
	b.Cleanup(srv.Close)
	return srv
}

// e14Post issues one benchmark request and fails on a non-200.
func e14Post(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/fixpoint", "application/json", strings.NewReader(e14FixpointBody))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d", resp.StatusCode)
	}
}

// BenchmarkE14ServiceThroughput: the E14 pair, part one — one fixpoint
// query per iteration through the full HTTP stack (request parse,
// singleflight, engine or cache, NDJSON render). cold-store pays the
// full engine run into a fresh store every iteration; warm-store
// replays the persisted trajectory; warm-memory bounds the best case
// (in-process cache, no disk). ns/op inverts to requests/sec; bodies
// are byte-identical across all three (locked by
// TestColdWarmByteIdentity).
func BenchmarkE14ServiceThroughput(b *testing.B) {
	b.Run("fixpoint/cold-store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := e14Server(b, filepath.Join(b.TempDir(), fmt.Sprintf("cold-%d", i)))
			b.StartTimer()
			e14Post(b, srv.URL)
			b.StopTimer()
			srv.Close()
			b.StartTimer()
		}
	})
	b.Run("fixpoint/warm-store", func(b *testing.B) {
		srv := e14Server(b, filepath.Join(b.TempDir(), "warm"))
		e14Post(b, srv.URL) // prime the store
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e14Post(b, srv.URL)
		}
	})
	b.Run("fixpoint/warm-memory", func(b *testing.B) {
		srv := e14Server(b, "")
		e14Post(b, srv.URL) // prime the in-process cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e14Post(b, srv.URL)
		}
	})
}

// BenchmarkE14ServiceConcurrent: the E14 pair, part two — the same
// warm-store query under client concurrency (RunParallel saturates
// GOMAXPROCS workers), measuring how the read path scales when every
// request hits the store.
func BenchmarkE14ServiceConcurrent(b *testing.B) {
	srv := e14Server(b, filepath.Join(b.TempDir(), "warm"))
	e14Post(b, srv.URL)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			e14Post(b, srv.URL)
		}
	})
}

// BenchmarkE15ObservedConcurrency: E15 — the observed service under
// client concurrency, through the full production route set (Routes:
// query endpoints + instrument middleware + /metrics + /v1/stats).
// Each iteration fires a concurrent burst of identical fixpoint
// queries; the first burst is cold (singleflight dedups it), the rest
// are warm (store hits). Beyond ns/op, the benchmark reports the
// daemon's own instruments — dedup-ratio and peak-gate-depth from
// /v1/stats — so the CI bench artifact records a per-commit snapshot
// of observed admission pressure and deduplication.
func BenchmarkE15ObservedConcurrency(b *testing.B) {
	m := service.NewMetrics()
	engine, err := service.New(service.Config{
		StoreDir: filepath.Join(b.TempDir(), "obs"),
		Metrics:  m,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = engine.Close() })
	srv := httptest.NewServer(service.Routes(engine, m))
	b.Cleanup(srv.Close)

	const clients = 8
	burst := func() error {
		errc := make(chan error, clients)
		for c := 0; c < clients; c++ {
			go func() {
				resp, err := http.Post(srv.URL+"/v1/fixpoint", "application/json", strings.NewReader(e14FixpointBody))
				if err != nil {
					errc <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("HTTP %d", resp.StatusCode)
				}
				errc <- err
			}()
		}
		for c := 0; c < clients; c++ {
			if err := <-errc; err != nil {
				return err
			}
		}
		return nil
	}

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := burst(); err != nil {
			b.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var stats service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(stats.Singleflight.DedupRatio, "dedup-ratio")
	b.ReportMetric(float64(stats.Gate.PeakWaiting), "peak-gate-depth")
}

// BenchmarkE16PreloadTier: E16 — the packed warm-cache artifact
// against the JSON-store warm tier it replaces on the read path. Both
// variants answer the E14 flagship query through the full HTTP stack
// with byte-identical bodies; warm-store replays the record from the
// object tree (open + checksum per lookup), warm-pack replays it from
// the mmapped artifact (one validation at open, a binary search of the
// key table per lookup). The delta against E14's warm-store is the preload tier's
// latency and allocation win.
func BenchmarkE16PreloadTier(b *testing.B) {
	// Build the artifact once: prime a store cold, then pack it.
	seed := filepath.Join(b.TempDir(), "seed")
	prime := e14Server(b, seed)
	e14Post(b, prime.URL)
	prime.Close()
	st, err := store.Open(seed)
	if err != nil {
		b.Fatal(err)
	}
	packPath := filepath.Join(b.TempDir(), "warm.repack")
	if _, err := st.Pack(packPath); err != nil {
		b.Fatal(err)
	}

	b.Run("fixpoint/warm-store", func(b *testing.B) {
		srv := e14Server(b, seed)
		e14Post(b, srv.URL)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e14Post(b, srv.URL)
		}
	})
	b.Run("fixpoint/warm-pack", func(b *testing.B) {
		pr, err := store.OpenPack(packPath)
		if err != nil {
			b.Fatal(err)
		}
		engine, err := service.New(service.Config{
			StoreDir: filepath.Join(b.TempDir(), "fresh"),
			Pack:     pr,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = engine.Close() })
		srv := httptest.NewServer(service.Handler(engine))
		b.Cleanup(srv.Close)
		e14Post(b, srv.URL)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e14Post(b, srv.URL)
		}
	})
}

// BenchmarkE17RenderedTier: E17 — the zero-alloc warm serving path,
// measured at the engine (the E14/E16 figures include the HTTP client
// and httptest server; this one isolates what the service itself
// spends). A steady-state warm hit is one rendered-memo lookup keyed
// by the raw request text — no parsing, no fingerprinting, no
// marshaling, no per-line buffers — and one sink call with the cached
// body. The allocs/op figure is the entire warm-path allocation budget
// and is CI-gated by tools/allocgate against bench/alloc_thresholds.txt.
func BenchmarkE17RenderedTier(b *testing.B) {
	engine, err := service.New(service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = engine.Close() })
	req := service.FixpointRequest{Problem: "node:\n0^2 1\nedge:\n0 0\n0 1\n"}
	sink := func([]byte) error { return nil }
	if err := engine.Fixpoint(context.Background(), req, sink); err != nil { // prime
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.Fixpoint(context.Background(), req, sink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18GeneratedSweep: E18 — sweep throughput over a generated
// problem space (internal/problems/gen), cold vs warm. Each iteration
// classifies the same 32-point `-gen family=rand` space the way
// cmd/sweep does — fixpoint.Run per point, its rendered checkpoint
// committed to a store. The cold case starts from an empty
// store every iteration (generation + classification + commit); the
// warm case replays checkpoints from a pre-populated store (generation
// + store reads only). The gap is what a checkpointed store buys a
// re-run of a generated-space sweep; generation itself is in both
// numbers, so their ratio is honest about the generator's cost too.
func BenchmarkE18GeneratedSweep(b *testing.B) {
	spec, err := gen.ParseSpec("family=rand,seed=18,count=32,delta=3,labels=3,edge=60,node=60")
	if err != nil {
		b.Fatal(err)
	}
	const maxSteps = 2
	const maxStates = 8000
	params := store.TrajectoryParams{MaxSteps: maxSteps, MaxStates: maxStates}
	classify := func(b *testing.B, st *store.Store) {
		points, err := spec.Points()
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range points {
			if _, ok, _ := st.GetRendered(pt.Problem, params); ok {
				continue
			}
			res, err := fixpoint.Run(pt.Problem, fixpoint.Options{
				MaxSteps: maxSteps,
				Core:     []core.Option{core.WithMaxStates(maxStates)},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.PutRendered(pt.Problem, params, service.RenderFixpointNDJSON(res)); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := store.Open(filepath.Join(b.TempDir(), fmt.Sprintf("e18-cold-%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			classify(b, st)
		}
	})
	b.Run("warm", func(b *testing.B) {
		st, err := store.Open(filepath.Join(b.TempDir(), "e18-warm"))
		if err != nil {
			b.Fatal(err)
		}
		classify(b, st) // populate checkpoints
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			classify(b, st)
		}
	})
}

// BenchmarkE19SecondHalfStepGen: E19 — the maximal-set search of
// SecondHalfStep (core's cold-path hotspot) on the Π'_{1/2} inputs the
// servebench cold-gen and warm-hot workloads produce: every step input
// of the first 256 points of their generated space at their budgets
// (4 steps, 2000 states), lifted once by HalfStep and deduplicated.
// The corpus keeps the inputs whose search exhausts the state budget,
// which the cold path pays for too. One op is one SecondHalfStep per
// corpus entry at one worker: it builds 35,008 search states, each
// valid state once and the failing inputs' states up to their budget.
// allocs/op is CI-gated by tools/allocgate against
// bench/alloc_thresholds.txt, so per-state allocation in the search
// cannot come back unnoticed.
func BenchmarkE19SecondHalfStepGen(b *testing.B) {
	spec, err := gen.ParseSpec("family=rand,seed=1,count=256,delta=3,labels=3")
	if err != nil {
		b.Fatal(err)
	}
	const maxSteps, maxStates = 4, 2000
	opts := []core.Option{core.WithMaxStates(maxStates), core.WithWorkers(1)}
	var halves []*core.Problem
	seen := map[string]bool{}
	for i := 0; i < spec.Count; i++ {
		p, err := spec.Point(i)
		if err != nil {
			b.Fatal(err)
		}
		res, err := fixpoint.Run(p, fixpoint.Options{MaxSteps: maxSteps, Core: opts})
		if err != nil {
			b.Fatal(err)
		}
		// Trajectory[s] is the input of step s+1; a state-budget
		// failure happened on the input after the last completed step.
		inputs := res.Trajectory[:res.Steps]
		if res.Err != nil {
			inputs = res.Trajectory[:res.Steps+1]
		}
		for _, in := range inputs {
			half, err := core.HalfStep(in, opts...)
			if err != nil {
				continue // the half step's own budget ran out
			}
			if key := half.String(); !seen[key] {
				seen[key] = true
				halves = append(halves, half)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	exceeded := 0
	for i := 0; i < b.N; i++ {
		exceeded = 0
		for _, half := range halves {
			if _, err := core.SecondHalfStep(half, opts...); err != nil {
				if !errors.Is(err, core.ErrStateBudget) {
					b.Fatal(err)
				}
				exceeded++
			}
		}
	}
	b.ReportMetric(float64(len(halves)), "inputs")
	b.ReportMetric(float64(exceeded)/float64(len(halves)), "budget-exceeded-share")
}

// failureCounter counts the hits of the failure memo it wraps; E20
// runs single-threaded, so a plain int suffices.
type failureCounter struct {
	fixpoint.FailureMemo
	hits int
}

// LookupFailure delegates and counts hits.
func (c *failureCounter) LookupFailure(in *core.Problem) (error, bool) {
	err, ok := c.FailureMemo.LookupFailure(in)
	if ok {
		c.hits++
	}
	return err, ok
}

// BenchmarkE20FailureMemoGen: E20 — the failure memo on servebench's
// cold-gen inputs: the first 2,000 distinct points of
// family=rand,seed=1,delta=3,labels=3 (400 under -short), each through
// fixpoint.Run at 4 steps, 2,000 states and one worker, with one
// MapMemo shared by the op's runs. failures=iso adds one shared
// IsoFailureMemo; failures=none runs without one. Both report
// budget-exceeded (runs that end on a state-budget failure) and
// failure-hits (those the memo answered instead of core.Speedup).
func BenchmarkE20FailureMemoGen(b *testing.B) {
	n := 2000
	if testing.Short() {
		n = 400
	}
	spec, err := gen.ParseSpec(fmt.Sprintf("family=rand,seed=1,count=%d,delta=3,labels=3", gen.MaxSpecCount))
	if err != nil {
		b.Fatal(err)
	}
	var points []*core.Problem
	seen := map[string]bool{}
	for i := 0; len(points) < n; i++ {
		p, err := spec.Point(i)
		if err != nil {
			b.Fatal(err)
		}
		if text := string(p.CanonicalBytes()); !seen[text] {
			seen[text] = true
			points = append(points, p)
		}
	}
	for _, iso := range []bool{false, true} {
		name := "failures=none"
		if iso {
			name = "failures=iso"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			exceeded, hits := 0, 0
			for i := 0; i < b.N; i++ {
				opts := fixpoint.Options{
					MaxSteps: 4,
					Core:     []core.Option{core.WithMaxStates(2000), core.WithWorkers(1)},
					Memo:     fixpoint.NewMapMemo(),
				}
				var failures *failureCounter
				if iso {
					failures = &failureCounter{FailureMemo: fixpoint.NewIsoFailureMemo()}
					opts.Failures = failures
				}
				exceeded = 0
				for _, p := range points {
					res, err := fixpoint.Run(p, opts)
					if err != nil {
						b.Fatal(err)
					}
					if res.Err != nil {
						exceeded++
					}
				}
				if failures != nil {
					hits = failures.hits
				}
			}
			b.ReportMetric(float64(exceeded), "budget-exceeded")
			b.ReportMetric(float64(hits), "failure-hits")
		})
	}
}
