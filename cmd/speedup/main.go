// Command speedup applies the automatic speedup transformation of Brandt
// (PODC 2019) to a problem given in the text format of core.Parse — or
// the canonical serialization emitted by the result store and the HTTP
// service — read from a file or stdin, and prints the derived
// problem(s).
//
// Usage:
//
//	speedup [-steps n] [-half] [-keep-names] [-workers n] [-fixpoint] [-max-steps n] [-store dir] [file]
//
// Example (sinkless coloring at Δ=3):
//
//	printf 'node:\n0^2 1\nedge:\n0 0\n0 1\n' | speedup -steps 2
//
// With -fixpoint the command runs the iterated round-elimination driver
// instead: it applies speedup until the trajectory is classified as a
// fixed point, a cycle, collapsed, 0-round solvable, or out of budget
// (bounded by -max-steps), and prints each trajectory entry plus the
// classification. This is the paper's lower-bound recipe as one flag:
//
//	printf 'node:\n0^2 1\nedge:\n0 0\n0 1\n' | speedup -fixpoint
//
// With -store dir the fixpoint driver memoizes every speedup step in
// the persistent result store under dir (shared with cmd/sweep):
// repeated queries replace each transformation with a record lookup,
// and output is byte-identical with and without the store.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	steps := flag.Int("steps", 1, "number of full speedup steps to apply")
	half := flag.Bool("half", false, "apply only the half step Π → Π'_1/2")
	keepNames := flag.Bool("keep-names", false, "keep derived set-labels instead of renaming compactly")
	workers := flag.Int("workers", 0, "worker count for the parallel enumerations (0 = GOMAXPROCS)")
	fixpointMode := flag.Bool("fixpoint", false, "iterate speedup to a fixed point / cycle and classify the trajectory")
	maxSteps := flag.Int("max-steps", fixpoint.DefaultMaxSteps, "iteration bound in -fixpoint mode")
	storeDir := flag.String("store", "", "persistent result store directory for step memoization (requires -fixpoint)")
	flag.Parse()
	if err := validateFlags(*fixpointMode, *maxSteps); err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(2)
	}
	if err := run(options{
		steps:     *steps,
		half:      *half,
		keepNames: *keepNames,
		workers:   *workers,
		fixpoint:  *fixpointMode,
		maxSteps:  *maxSteps,
		storeDir:  *storeDir,
	}, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(1)
	}
}

// validateFlags rejects flag combinations the -fixpoint driver would
// silently ignore, rather than dropping them. The budget domain is the
// service layer's, so CLI and HTTP accept the same values.
func validateFlags(fixpointMode bool, maxSteps int) error {
	if err := service.ValidateBudgets(maxSteps, 0); err != nil {
		return fmt.Errorf("-max-steps: %v", err)
	}
	var conflict error
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "half", "steps", "keep-names":
			if fixpointMode {
				conflict = fmt.Errorf("-%s cannot be combined with -fixpoint", f.Name)
			}
		case "store":
			if !fixpointMode {
				conflict = fmt.Errorf("-store requires -fixpoint (the plain-step printer shows derived set-names the store does not keep)")
			}
		}
	})
	return conflict
}

type options struct {
	steps     int
	half      bool
	keepNames bool
	workers   int
	fixpoint  bool
	maxSteps  int
	storeDir  string
}

func run(o options, path string) error {
	text, err := readInput(path)
	if err != nil {
		return err
	}
	// ParseAuto also accepts the canonical serialization the result
	// store and the HTTP service emit, so their output feeds back in.
	p, err := core.ParseAuto(text)
	if err != nil {
		return err
	}
	fmt.Printf("# input problem: Δ=%d, %d labels, %d edge configs, %d node configs\n",
		p.Delta(), p.Alpha.Size(), p.Edge.Size(), p.Node.Size())

	coreOpts := []core.Option{core.WithWorkers(o.workers)}
	if o.fixpoint {
		return runFixpoint(p, o, coreOpts)
	}
	if o.half {
		derived, err := core.HalfStep(p, coreOpts...)
		if err != nil {
			return err
		}
		return printDerived(derived, o.keepNames, "Π'_1/2")
	}
	cur := p
	for i := 1; i <= o.steps; i++ {
		derived, err := core.Speedup(cur, coreOpts...)
		if err != nil {
			return err
		}
		if err := printDerived(derived, o.keepNames, fmt.Sprintf("Π_%d", i)); err != nil {
			return err
		}
		if m, ok := core.Isomorphic(derived, cur); ok {
			_ = m
			fmt.Println("# fixed point: derived problem is isomorphic to its predecessor")
			break
		}
		if cfg, ok := core.ZeroRoundSolvableNoInput(derived); ok {
			fmt.Printf("# 0-round solvable without input (witness %s)\n", cfg.String(derived.Alpha))
			break
		}
		cur = derived
		if !o.keepNames {
			cur, _ = cur.RenameCompact()
		}
	}
	return nil
}

func runFixpoint(p *core.Problem, o options, coreOpts []core.Option) error {
	// This command never overrides WithMaxStates, so its steps are
	// cached under the engine-default budget (0).
	var memo fixpoint.Memo = fixpoint.NewMapMemo()
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir)
		if err != nil {
			return err
		}
		memo = st.StepMemo(0)
	}
	res, err := fixpoint.Run(p, fixpoint.Options{MaxSteps: o.maxSteps, Core: coreOpts, Memo: memo})
	if err != nil {
		return err
	}
	for i, q := range res.Trajectory[1:] {
		if err := printDerived(q, true, fmt.Sprintf("Π_%d", i+1)); err != nil {
			return err
		}
	}
	fmt.Printf("\n# classification: %s after %d step(s)\n", res.Kind, res.Steps)
	switch res.Kind {
	case fixpoint.FixedPoint:
		fmt.Printf("# Π_%d is isomorphic to Π_%d — the paper's lower-bound fixed point\n",
			len(res.Trajectory)-1, res.CycleStart)
	case fixpoint.Cycle:
		fmt.Printf("# Π_%d is isomorphic to Π_%d (cycle of length %d)\n",
			len(res.Trajectory)-1, res.CycleStart, res.CycleLen)
	case fixpoint.BudgetExceeded:
		if res.Err != nil {
			fmt.Printf("# enumeration gave up: %v\n", res.Err)
		} else {
			fmt.Printf("# no closure within %d steps; raise -max-steps\n", res.Steps)
		}
	}
	return nil
}

func printDerived(p *core.Problem, keepNames bool, title string) error {
	out := p
	var backing map[string]string
	if !keepNames {
		out, backing = p.RenameCompact()
	}
	fmt.Printf("\n# %s: %d labels, %d edge configs, %d node configs\n",
		title, out.Alpha.Size(), out.Edge.Size(), out.Node.Size())
	if backing != nil {
		for _, name := range out.Alpha.Names() {
			fmt.Printf("# %s = %s\n", name, backing[name])
		}
	}
	fmt.Print(out.String())
	return nil
}

func readInput(path string) (string, error) {
	if path == "" || path == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(data), nil
}
