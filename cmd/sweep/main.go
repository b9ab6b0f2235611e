// Command sweep batch-classifies the whole problem catalog across a
// Δ/k parameter grid: every (family, Δ, k) point is instantiated,
// pushed through the iterated round-elimination driver
// (internal/fixpoint), and reported as one row of a JSON or TSV table.
//
// Usage:
//
//	sweep [-store dir] [-workers n] [-core-workers n]
//	      [-max-steps n] [-max-states n]
//	      [-families list] [-delta lo:hi] [-k lo:hi] [-catalog]
//	      [-gen spec] [-shard i/n] [-format tsv|json] [-out file] [-v]
//	sweep -store dir -pack out.repack
//
// Tasks shard across a worker pool (internal/par). With -store the
// sweep is checkpointed: every task, as soon as it finishes, commits
// its pre-rendered NDJSON response body — the exact bytes cmd/serve
// streams for the same /v1/fixpoint query — to the persistent result
// store, and a later invocation with the same flags decodes each
// finished task's report row from that body's last two lines instead
// of recomputing it. So a sweep killed at any point (kill -9 included)
// resumes where it stopped and produces a byte-identical report, and a
// daemon serving the store — or a pack built from it — answers from
// the rendered tier without marshaling anything. The store also
// memoizes individual speedup steps, which warms even tasks whose own
// checkpoint is missing, such as those of a store written before the
// rendered kind existed; without -store an in-memory step memo is
// shared across the tasks of this one run. Steps that exhaust the
// state budget are remembered in process, up to label renaming, so a
// task whose step is isomorphic to an earlier failed one ends without
// recomputing it.
//
// -shard i/n restricts the sweep to the slice of the grid that shard i
// owns on a consistent-hash ring over n synthetic members
// (internal/cluster): the n shards partition the grid exactly, with no
// coordination, so n worker processes — on one machine or many —
// sweeping into one shared store (or stores later merged or served as
// a cluster) together cover the grid once. A shard killed mid-run is
// resumed by rerunning it (or its slice from any surviving node):
// ownership is deterministic and checkpoints are content-addressed, so
// the final records are identical to a single-node sweep's.
//
// -gen replaces the catalog grid with a generated problem space
// (internal/problems/gen): the spec names a generator family and its
// parameters — e.g. -gen family=rand,seed=7,count=100,delta=3,labels=3
// — and the sweep classifies every generated point. Generation is a
// pure function of the spec, so the same spec reproduces byte-identical
// problems and a byte-identical report on any machine, and each report
// row's name embeds the single-point spec that regenerates it. -gen
// conflicts with -catalog, -families, -delta and -k (the spec IS the
// task list) and composes with everything else, including -shard: the
// ring partitions the generated space by stable problem fingerprint
// exactly as it partitions the grid. The spec grammar is documented at
// gen.ParseSpec.
//
// The report is written only after every task has finished, in grid
// order, so cold, warm, and interrupted-then-resumed runs emit
// identical bytes. Timing or cache-hit information never goes into the
// report (that would break the identity); -v prints it to stderr.
//
// With -pack the sweep does not classify anything: it walks the
// store's object tree and packs every valid record into one read-
// optimized artifact (see internal/store's pack format) that cmd/serve
// can preload with -preload. Packing is deterministic — the artifact
// is a pure function of the record set — and skips (counts, on
// stderr) any record that fails frame validation. -pack combines only
// with -store and -v.
//
// Examples:
//
//	sweep -store ./results                  # full default grid, TSV
//	sweep -store ./results -format json     # same tasks, JSON report
//	sweep -catalog                          # the paper's catalog only
//	sweep -gen family=rand,seed=7,count=100   # a generated problem space
//	sweep -store ./results -pack warm.repack  # pack the store's records
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/par"
	"repro/internal/problems"
	"repro/internal/problems/gen"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	if cfg.packPath != "" {
		if err := runPack(cfg, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return
	}
	// The report is buffered and only committed to -out after a fully
	// successful run — through the store's temp+fsync+rename path, so a
	// failed or interrupted run never truncates or tears a previous
	// report.
	var buf bytes.Buffer
	out := io.Writer(os.Stdout)
	toFile := cfg.outPath != "" && cfg.outPath != "-"
	if toFile {
		out = &buf
	}
	if err := run(cfg, out, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if toFile {
		if err := store.WriteFileAtomic(cfg.outPath, buf.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}
}

// runPack packs the store's records into one warm-cache artifact. The
// pack path commits atomically, so an interrupted -pack leaves any
// previous artifact intact.
func runPack(cfg config, errw io.Writer) error {
	st, err := store.Open(cfg.storeDir)
	if err != nil {
		return err
	}
	stats, err := st.Pack(cfg.packPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "sweep: packed %d record(s) into %s (%d corrupt record(s) skipped)\n",
		stats.Entries, cfg.packPath, stats.Skipped)
	return nil
}

// config is the parsed flag set of one sweep invocation.
type config struct {
	storeDir    string
	workers     int
	coreWorkers int
	maxSteps    int
	maxStates   int
	families    []string
	deltaLo     int
	deltaHi     int
	kLo         int
	kHi         int
	catalog     bool
	genSpec     *gen.Spec
	format      string
	outPath     string
	packPath    string
	shardIndex  int
	shardTotal  int // 0 = unsharded
	verbose     bool
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.storeDir, "store", "", "persistent result store directory (checkpoints + step memo); empty = in-memory only")
	fs.IntVar(&cfg.workers, "workers", 0, "task-level worker count (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.coreWorkers, "core-workers", 1, "worker count inside each speedup step (tasks are already parallel)")
	fs.IntVar(&cfg.maxSteps, "max-steps", 4, "fixpoint iteration bound per task")
	fs.IntVar(&cfg.maxStates, "max-states", 60_000, "per-step enumeration state budget (0 = engine default)")
	families := fs.String("families", strings.Join(problems.Families(), ","), "comma-separated families to sweep")
	delta := fs.String("delta", "2:4", "Δ range lo:hi (inclusive)")
	k := fs.String("k", "2:3", "k range lo:hi (inclusive; k-coloring and superweak)")
	fs.BoolVar(&cfg.catalog, "catalog", false, "sweep exactly the paper's problems.Catalog() instead of the grid")
	genText := fs.String("gen", "", "sweep a generated problem space instead of the grid (spec grammar: gen.ParseSpec)")
	fs.StringVar(&cfg.format, "format", "tsv", "report format: tsv or json")
	fs.StringVar(&cfg.outPath, "out", "-", "report destination ('-' = stdout)")
	fs.StringVar(&cfg.packPath, "pack", "", "pack the store's records into this warm-cache artifact instead of sweeping")
	shard := fs.String("shard", "", "sweep only the ring-owned slice i/n of the grid (e.g. 1/3; all shards together cover it exactly)")
	fs.BoolVar(&cfg.verbose, "v", false, "progress and cache-hit info on stderr")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *shard != "" {
		var err error
		if cfg.shardIndex, cfg.shardTotal, err = parseShard(*shard); err != nil {
			return cfg, fmt.Errorf("-shard: %v", err)
		}
	}
	if cfg.packPath != "" {
		if cfg.storeDir == "" {
			return cfg, fmt.Errorf("-pack requires -store (the artifact is built from a store's records)")
		}
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "pack", "store", "v":
			default:
				conflict = fmt.Errorf("-%s cannot be combined with -pack (packing only reads the store)", f.Name)
			}
		})
		if conflict != nil {
			return cfg, conflict
		}
		return cfg, nil
	}
	if cfg.catalog {
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "families", "delta", "k":
				conflict = fmt.Errorf("-%s cannot be combined with -catalog (the catalog is a fixed task list)", f.Name)
			}
		})
		if conflict != nil {
			return cfg, conflict
		}
	}
	genSet := false
	fs.Visit(func(f *flag.Flag) { genSet = genSet || f.Name == "gen" })
	if genSet {
		if *genText == "" {
			return cfg, fmt.Errorf("-gen: empty spec (want family=...,seed=...,count=...)")
		}
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "catalog", "families", "delta", "k":
				conflict = fmt.Errorf("-%s cannot be combined with -gen (the generation spec defines the task list)", f.Name)
			}
		})
		if conflict != nil {
			return cfg, conflict
		}
		spec, err := gen.ParseSpec(*genText)
		if err != nil {
			return cfg, fmt.Errorf("-gen: %v", err)
		}
		cfg.genSpec = spec
	}
	if cfg.format != "tsv" && cfg.format != "json" {
		return cfg, fmt.Errorf("-format must be tsv or json, got %q", cfg.format)
	}
	// The budget domain is the service layer's, so the sweep accepts
	// exactly what cmd/speedup and the HTTP endpoints accept.
	if err := service.ValidateBudgets(cfg.maxSteps, cfg.maxStates); err != nil {
		return cfg, err
	}
	var err error
	if cfg.deltaLo, cfg.deltaHi, err = parseRange(*delta); err != nil {
		return cfg, fmt.Errorf("-delta: %v", err)
	}
	if cfg.kLo, cfg.kHi, err = parseRange(*k); err != nil {
		return cfg, fmt.Errorf("-k: %v", err)
	}
	for _, f := range strings.Split(*families, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if !slices.Contains(problems.Families(), f) {
			return cfg, fmt.Errorf("unknown family %q (have %s)", f, strings.Join(problems.Families(), ", "))
		}
		cfg.families = append(cfg.families, f)
	}
	if len(cfg.families) == 0 {
		return cfg, fmt.Errorf("-families selected nothing")
	}
	return cfg, nil
}

// parseShard reads a strict "i/n" shard selector with 0 <= i < n.
func parseShard(s string) (index, total int, err error) {
	iStr, nStr, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("want i/n, got %q", s)
	}
	if index, err = strconv.Atoi(iStr); err != nil {
		return 0, 0, fmt.Errorf("want i/n, got %q", s)
	}
	if total, err = strconv.Atoi(nStr); err != nil {
		return 0, 0, fmt.Errorf("want i/n, got %q", s)
	}
	if total < 1 || index < 0 || index >= total {
		return 0, 0, fmt.Errorf("bad shard %d/%d (want 0 <= i < n)", index, total)
	}
	return index, total, nil
}

// shardTasks filters the grid down to the tasks the shard owns on the
// consistent-hash ring over cluster.ShardMembers(n). Ownership is a
// pure function of each task's stable problem fingerprint and n, so
// the n shards partition the grid exactly — every task owned by
// precisely one shard, in any process, with no coordination — and
// resharding to n+1 moves only the tasks the new shard takes over.
func shardTasks(tasks []problems.GridPoint, index, total int) ([]problems.GridPoint, error) {
	ring, err := cluster.NewRing(cluster.ShardMembers(total), cluster.DefaultVNodes)
	if err != nil {
		return nil, err
	}
	self := cluster.ShardMember(index)
	owned := make([]problems.GridPoint, 0, len(tasks)/total+1)
	for _, t := range tasks {
		if ring.Owner(core.StableKey(t.Problem)) == self {
			owned = append(owned, t)
		}
	}
	return owned, nil
}

// parseRange reads an inclusive "lo:hi" range, strictly: the whole
// string must be the two integers and the colon.
func parseRange(s string) (lo, hi int, err error) {
	loStr, hiStr, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want lo:hi, got %q", s)
	}
	if lo, err = strconv.Atoi(loStr); err != nil {
		return 0, 0, fmt.Errorf("want lo:hi, got %q", s)
	}
	if hi, err = strconv.Atoi(hiStr); err != nil {
		return 0, 0, fmt.Errorf("want lo:hi, got %q", s)
	}
	if lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("bad range %d:%d", lo, hi)
	}
	return lo, hi, nil
}

// buildTasks expands the configured grid (or the fixed catalog) into
// the deterministic task list that defines both the sharding and the
// report row order. The expansion itself lives in problems.Grid, shared
// with every other grid consumer.
func buildTasks(cfg config) ([]problems.GridPoint, error) {
	if cfg.genSpec != nil {
		return cfg.genSpec.Points()
	}
	if cfg.catalog {
		return problems.CatalogGrid(), nil
	}
	return problems.Grid(cfg.families, cfg.deltaLo, cfg.deltaHi, cfg.kLo, cfg.kHi)
}

// row is one report line. Every field is a pure function of the task
// and its fixpoint.Result, never of where the result came from — a
// cold run reads it off the result (makeRow), a checkpoint hit off the
// rendered body (checkpointRow) — and that is what makes cold, warm,
// and resumed reports byte-identical.
type row struct {
	Name        string `json:"name"`
	Family      string `json:"family"`
	Delta       int    `json:"delta"`
	K           int    `json:"k,omitempty"`
	Labels      int    `json:"labels"`
	EdgeConfigs int    `json:"edge_configs"`
	NodeConfigs int    `json:"node_configs"`
	Class       string `json:"class"`
	Steps       int    `json:"steps"`
	CycleStart  int    `json:"cycle_start"`
	CycleLen    int    `json:"cycle_len"`
	LastLabels  int    `json:"last_labels"`
	LastEdge    int    `json:"last_edge_configs"`
	LastNode    int    `json:"last_node_configs"`
	Err         string `json:"err,omitempty"`
}

// makeRow condenses a classified trajectory into its report line.
func makeRow(t problems.GridPoint, res *fixpoint.Result) row {
	in := t.Problem.Stats()
	last := res.Last().Stats()
	r := row{
		Name: t.Name, Family: t.Family, Delta: t.Delta, K: t.K,
		Labels: in.Labels, EdgeConfigs: in.EdgeConfigs, NodeConfigs: in.NodeConfigs,
		Class: res.Kind.String(), Steps: res.Steps,
		CycleStart: res.CycleStart, CycleLen: res.CycleLen,
		LastLabels: last.Labels, LastEdge: last.EdgeConfigs, LastNode: last.NodeConfigs,
	}
	if res.Err != nil {
		r.Err = res.Err.Error()
	}
	return r
}

// checkpointRow decodes a checkpoint hit's report line from its
// rendered body, which holds every field makeRow reads off the result:
// the classification line the class, the steps, the cycle and the
// budget error, and the last entry line (Π_steps) the last problem's
// counts. ok is false for a body that does not decode, which the
// caller recomputes.
func checkpointRow(t problems.GridPoint, body []byte) (row, bool) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return row{}, false
	}
	var last service.FixpointEntry
	var cls service.FixpointClassification
	if json.Unmarshal(lines[len(lines)-2], &last) != nil || json.Unmarshal(lines[len(lines)-1], &cls) != nil ||
		cls.Classification == "" || last.Index != cls.Steps {
		return row{}, false
	}
	in := t.Problem.Stats()
	return row{
		Name: t.Name, Family: t.Family, Delta: t.Delta, K: t.K,
		Labels: in.Labels, EdgeConfigs: in.EdgeConfigs, NodeConfigs: in.NodeConfigs,
		Class: cls.Classification, Steps: cls.Steps,
		CycleStart: cls.CycleStart, CycleLen: cls.CycleLen,
		LastLabels: last.Problem.Labels, LastEdge: last.Problem.EdgeConfigs, LastNode: last.Problem.NodeConfigs,
		Err: cls.BudgetError,
	}, true
}

// syncWriter serializes the task workers' progress lines onto one
// writer, which need not be safe for concurrent use.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Write forwards p under the lock.
func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run executes the sweep: build the grid, classify every task (store
// checkpoints permitting), and write the report to out. Progress goes
// to errw when verbose.
func run(cfg config, out, errw io.Writer) error {
	errw = &syncWriter{w: errw}
	tasks, err := buildTasks(cfg)
	if err != nil {
		return err
	}
	if len(tasks) == 0 {
		return fmt.Errorf("empty grid")
	}
	if cfg.shardTotal > 0 {
		owned, err := shardTasks(tasks, cfg.shardIndex, cfg.shardTotal)
		if err != nil {
			return err
		}
		if cfg.verbose {
			fmt.Fprintf(errw, "sweep: shard %d/%d owns %d of %d task(s)\n", cfg.shardIndex, cfg.shardTotal, len(owned), len(tasks))
		}
		// A shard that owns nothing still emits a valid (empty) report:
		// an empty slice of a non-empty grid is normal, not an error.
		tasks = owned
	}

	memo, st, err := service.OpenStepMemo(cfg.storeDir, cfg.maxStates)
	if err != nil {
		return err
	}
	// A sweep has one budget, so one failure memo serves every task.
	failures := fixpoint.NewIsoFailureMemo()
	params := store.TrajectoryParams{MaxSteps: cfg.maxSteps, MaxStates: cfg.maxStates}
	coreOpts := []core.Option{core.WithWorkers(cfg.coreWorkers)}
	if cfg.maxStates > 0 {
		coreOpts = append(coreOpts, core.WithMaxStates(cfg.maxStates))
	}

	rows := make([]row, len(tasks))
	workers := par.WorkerCount(cfg.workers, len(tasks))
	start := time.Now()
	err = par.RunSharded(workers, len(tasks), func(_, i int) error {
		t := tasks[i]
		if st != nil {
			body, ok, err := st.GetRendered(t.Problem, params)
			if ok {
				if rows[i], ok = checkpointRow(t, body); ok {
					if cfg.verbose {
						fmt.Fprintf(errw, "sweep: %-32s checkpoint hit\n", t.Name)
					}
					return nil
				}
				err = errors.New("rendered body does not decode")
			}
			if err != nil && cfg.verbose {
				fmt.Fprintf(errw, "sweep: %-32s corrupt checkpoint (%v), recomputing\n", t.Name, err)
			}
		}
		taskStart := time.Now()
		res, err := fixpoint.Run(t.Problem, fixpoint.Options{
			MaxSteps: cfg.maxSteps,
			Core:     coreOpts,
			Memo:     memo,
			Failures: failures,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		if st != nil {
			// The rendered body is the checkpoint, and a daemon serving
			// this store (or a pack built from it) answers the query
			// from it with a single lookup, no marshaling. Render
			// failure is impossible (closed struct types).
			if err := st.PutRendered(t.Problem, params, service.RenderFixpointNDJSON(res)); err != nil {
				return fmt.Errorf("%s: checkpoint: %w", t.Name, err)
			}
		}
		rows[i] = makeRow(t, res)
		if cfg.verbose {
			fmt.Fprintf(errw, "sweep: %-32s %-20s %8.1fms\n", t.Name, res.Kind, float64(time.Since(taskStart).Microseconds())/1000)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if cfg.verbose {
		fmt.Fprintf(errw, "sweep: %d task(s) in %v with %d worker(s)\n", len(tasks), time.Since(start).Round(time.Millisecond), workers)
	}
	return writeReport(out, cfg.format, rows)
}

// writeReport renders the rows, sorted by name, as TSV or JSON. An
// empty row set renders as an empty table ("[]" in JSON, header-only
// in TSV) — what a shard that owns no tasks emits.
func writeReport(out io.Writer, format string, rows []row) error {
	sorted := make([]row, 0, len(rows))
	sorted = append(sorted, rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	if format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(sorted)
	}
	if _, err := fmt.Fprintln(out, "name\tfamily\tdelta\tk\tlabels\tedge_configs\tnode_configs\tclass\tsteps\tcycle_start\tcycle_len\tlast_labels\tlast_edge_configs\tlast_node_configs\terr"); err != nil {
		return err
	}
	for _, r := range sorted {
		if _, err := fmt.Fprintf(out, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.Name, r.Family, r.Delta, r.K,
			r.Labels, r.EdgeConfigs, r.NodeConfigs,
			r.Class, r.Steps, r.CycleStart, r.CycleLen,
			r.LastLabels, r.LastEdge, r.LastNode, r.Err); err != nil {
			return err
		}
	}
	return nil
}
