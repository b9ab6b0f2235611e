package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
)

// Algorithm is a deterministic distributed algorithm in the port numbering
// model, presented in the normal form of Section 3: a running time and a
// function from radius-t views to one output label per port.
type Algorithm interface {
	// Name identifies the algorithm in logs and error messages.
	Name() string
	// Rounds returns the number of communication rounds the algorithm
	// needs on graphs with n nodes and maximum degree delta.
	Rounds(n, delta int) int
	// Outputs maps a node's radius-t view to one label per port; the
	// returned slice must have length view.Degree.
	Outputs(view *View) ([]core.Label, error)
}

// Solution holds per-node, per-port output labels: Labels[v][port].
type Solution struct {
	Labels [][]core.Label
}

// Run executes alg on g with the given inputs and returns the outputs. It
// builds each node's radius-t view and applies the algorithm's output
// function — the canonical normal form of a t-round algorithm.
//
// Every view is built first, through the memoizing builder (which is
// not safe for concurrent use, and whose view DAG is then shared
// read-only); the output function then runs across one worker pool
// (WithWorkers), one worker included. Results are byte-identical for
// every worker count, and a failure is the first in node order.
func Run(g *graph.Graph, in Inputs, alg Algorithm, opts ...Option) (*Solution, error) {
	o := buildOptions(opts)
	t := alg.Rounds(g.N(), g.MaxDegree())
	if t < 0 {
		return nil, fmt.Errorf("sim: algorithm %q reports negative round count %d", alg.Name(), t)
	}
	builder := NewViewBuilder(g, in)
	views := make([]*View, g.N())
	for v := range views {
		views[v] = builder.View(v, t)
	}
	sol := &Solution{Labels: make([][]core.Label, g.N())}
	errs := make([]error, g.N())
	if par.RunSharded(par.WorkerCount(o.workers, g.N()), g.N(), func(_, v int) error {
		sol.Labels[v], errs[v] = runNode(g, views[v], alg, v)
		return errs[v]
	}) != nil {
		// The pool hands nodes out in order and lets started ones
		// finish, so every node below a failing one has run.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return sol, nil
}

// runNode applies the algorithm's output function at one node and
// validates the output arity.
func runNode(g *graph.Graph, view *View, alg Algorithm, v int) ([]core.Label, error) {
	out, err := alg.Outputs(view)
	if err != nil {
		return nil, fmt.Errorf("sim: algorithm %q at node %d: %w", alg.Name(), v, err)
	}
	if len(out) != g.Degree(v) {
		return nil, fmt.Errorf("sim: algorithm %q at node %d: got %d outputs, want %d",
			alg.Name(), v, len(out), g.Degree(v))
	}
	return out, nil
}

// Verify checks a solution against a problem: every node's port multiset
// must be in the node constraint and both endpoints of every edge must
// form a configuration of the edge constraint. Nodes whose degree differs
// from the problem's Δ are rejected (the catalog problems are defined on
// Δ-regular graphs).
func Verify(g *graph.Graph, sol *Solution, p *core.Problem) error {
	if len(sol.Labels) != g.N() {
		return fmt.Errorf("sim: solution covers %d nodes, graph has %d", len(sol.Labels), g.N())
	}
	delta := p.Delta()
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != delta {
			return fmt.Errorf("sim: node %d has degree %d, problem defined for Δ=%d", v, g.Degree(v), delta)
		}
		cfg := core.NewConfig(sol.Labels[v]...)
		if !p.Node.Contains(cfg) {
			return fmt.Errorf("sim: node %d outputs %s, not in node constraint", v, cfg.String(p.Alpha))
		}
	}
	for id := 0; id < g.M(); id++ {
		u, v, portU, portV := g.EdgeEndpoints(id)
		cfg := core.NewConfig(sol.Labels[u][portU], sol.Labels[v][portV])
		if !p.Edge.Contains(cfg) {
			return fmt.Errorf("sim: edge (%d,%d) carries %s, not in edge constraint", u, v, cfg.String(p.Alpha))
		}
	}
	return nil
}

// FuncAlgorithm adapts a plain function to the Algorithm interface.
type FuncAlgorithm struct {
	AlgName   string
	RoundsFn  func(n, delta int) int
	OutputsFn func(view *View) ([]core.Label, error)
}

var _ Algorithm = FuncAlgorithm{}

// Name implements Algorithm.
func (f FuncAlgorithm) Name() string { return f.AlgName }

// Rounds implements Algorithm.
func (f FuncAlgorithm) Rounds(n, delta int) int { return f.RoundsFn(n, delta) }

// Outputs implements Algorithm.
func (f FuncAlgorithm) Outputs(view *View) ([]core.Label, error) { return f.OutputsFn(view) }
