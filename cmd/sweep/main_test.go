package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/problems"
	"repro/internal/service"
	"repro/internal/store"
)

// testArgs is a small, fast grid used by the in-process tests.
func testArgs(extra ...string) []string {
	base := []string{"-delta", "2:3", "-k", "2:2", "-max-states", "8000", "-max-steps", "2"}
	return append(base, extra...)
}

// runSweep runs the sweep in-process and returns the report bytes.
func runSweep(t *testing.T, args []string) []byte {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run(cfg, &out, &errw); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errw.String())
	}
	return out.Bytes()
}

func TestReportByteIdentityColdWarmResumed(t *testing.T) {
	for _, format := range []string{"tsv", "json"} {
		dir := t.TempDir()
		storeArgs := testArgs("-format", format, "-store", dir)

		bare := runSweep(t, testArgs("-format", format)) // no store at all
		cold := runSweep(t, storeArgs)                   // populates checkpoints
		warm := runSweep(t, storeArgs)                   // all checkpoint hits

		if !bytes.Equal(bare, cold) {
			t.Fatalf("%s: store-backed cold report differs from storeless report", format)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: warm report differs from cold report", format)
		}

		// A partially populated store — what a killed sweep leaves
		// behind — must resume into the same bytes: sweep a sub-grid
		// into a fresh store, then the full grid over it.
		partialDir := t.TempDir()
		runSweep(t, []string{"-delta", "2:2", "-k", "2:2", "-max-states", "8000", "-max-steps", "2",
			"-format", format, "-store", partialDir})
		resumed := runSweep(t, testArgs("-format", format, "-store", partialDir))
		if !bytes.Equal(cold, resumed) {
			t.Fatalf("%s: resumed report differs from cold report", format)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	want := runSweep(t, testArgs("-workers", "1"))
	for _, w := range []string{"2", "4", "8"} {
		if got := runSweep(t, testArgs("-workers", w)); !bytes.Equal(got, want) {
			t.Fatalf("workers=%s: report differs from workers=1", w)
		}
	}
}

// TestResumeAfterKill kills a sweeping subprocess with SIGKILL
// mid-run, resumes it against the same store, and requires the final
// report to be byte-identical to an uninterrupted run — the
// checkpoint/recovery acceptance test, end to end through the real
// binary.
func TestResumeAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real subprocess")
	}
	bin := buildSweep(t)

	// A grid slow enough to reliably survive until the first
	// checkpoint is written, fast enough for a test.
	gridArgs := []string{"-delta", "2:4", "-k", "2:2", "-max-states", "60000", "-max-steps", "3", "-workers", "1"}

	uninterruptedDir := t.TempDir()
	uninterrupted, err := exec.Command(bin, append(gridArgs, "-store", uninterruptedDir)...).Output()
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	killedDir := t.TempDir()
	cmd := exec.Command(bin, append(gridArgs, "-store", killedDir)...)
	cmd.Stdout = new(bytes.Buffer)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first checkpoint lands, so the store is
	// mid-sweep: some tasks done, the rest missing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		matches, _ := filepath.Glob(filepath.Join(killedDir, "objects", "*", "*.rendered"))
		if len(matches) > 0 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("no checkpoint landed within 30s: nothing to kill mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = cmd.Process.Signal(syscall.SIGKILL)
	err = cmd.Wait()
	interrupted := err != nil // false if it finished before the kill landed
	t.Logf("subprocess interrupted mid-run: %v", interrupted)
	if !interrupted {
		// A sweep that finished before the kill resumes nothing, so
		// the checks below would not test recovery at all.
		t.Fatal("the sweep finished before SIGKILL landed")
	}

	resumed, err := exec.Command(bin, append(gridArgs, "-store", killedDir)...).Output()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(resumed, uninterrupted) {
		t.Fatalf("resumed report differs from uninterrupted report:\n%s\nvs\n%s", resumed, uninterrupted)
	}

	// The interrupted store may contain a leftover temp file from the
	// kill, but never a torn record: a second resume is all hits.
	again, err := exec.Command(bin, append(gridArgs, "-store", killedDir)...).Output()
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if !bytes.Equal(again, uninterrupted) {
		t.Fatal("second resume differs")
	}
}

// buildSweep builds the sweep binary into a temp directory.
func buildSweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweep")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGroupCommitFailureWritesNoReport: a sweep whose group committer
// fails exits 1, names the failed group commit, and leaves its -out
// file as it was. The failure is real, not injected: a directory sits
// at the final name of every checkpoint, so the committer's rename of
// the first checkpoint fails.
func TestGroupCommitFailureWritesNoReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real subprocess")
	}
	bin := buildSweep(t)
	refDir := t.TempDir()
	runSweep(t, testArgs("-store", refDir))
	checkpoints, err := filepath.Glob(filepath.Join(refDir, "objects", "*", "*.rendered"))
	if err != nil || len(checkpoints) == 0 {
		t.Fatalf("reference sweep left no checkpoints (%v)", err)
	}
	dir := t.TempDir()
	for _, p := range checkpoints {
		rel, err := filepath.Rel(refDir, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, rel), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	outPath := filepath.Join(t.TempDir(), "report.tsv")
	previous := []byte("a previous report\n")
	if err := os.WriteFile(outPath, previous, 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(bin, testArgs("-store", dir, "-out", outPath)...)
	cmd.Stderr = &stderr
	err = cmd.Run()
	if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
		t.Fatalf("sweep with a failing committer: exit %d (%v), want 1; stderr:\n%s", code, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "group commit") {
		t.Fatalf("stderr does not name the failed group commit:\n%s", stderr.String())
	}
	if got, err := os.ReadFile(outPath); err != nil || !bytes.Equal(got, previous) {
		t.Fatalf("-out file changed to %q (%v)", got, err)
	}
}

// TestShardPartitionCoversGrid: the n shard slices are pairwise
// disjoint, their union is the full grid, and sweeping all shards into
// one shared store warms it completely — a final unsharded sweep over
// that store is all checkpoint hits and byte-identical to a
// single-process cold sweep.
func TestShardPartitionCoversGrid(t *testing.T) {
	const n = 3
	reference := runSweep(t, testArgs())

	// Partition check at the task level.
	cfg, err := parseFlags(testArgs())
	if err != nil {
		t.Fatal(err)
	}
	all, err := buildTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		owned, err := shardTasks(all, i, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range owned {
			seen[task.Name]++
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("shards cover %d of %d tasks", len(seen), len(all))
	}
	for name, count := range seen {
		if count != 1 {
			t.Fatalf("task %s owned by %d shards", name, count)
		}
	}

	// Sweep every shard into one shared store, then the full grid.
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		runSweep(t, testArgs("-store", dir, "-shard", fmt.Sprintf("%d/%d", i, n)))
	}
	cfgFull, err := parseFlags(testArgs("-store", dir, "-v"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run(cfgFull, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), reference) {
		t.Fatal("sharded-then-merged report differs from single-process report")
	}
	if hits := bytes.Count(errw.Bytes(), []byte("checkpoint hit")); hits != len(all) {
		t.Fatalf("final sweep had %d checkpoint hits, want %d (shards did not cover the grid)\n%s", hits, len(all), errw.String())
	}
}

// TestShardReportIsOwnedSubset: a shard's own report rows are exactly
// its owned tasks, rendered byte-compatibly with the full report.
func TestShardReportIsOwnedSubset(t *testing.T) {
	full := runSweep(t, testArgs("-format", "json"))
	var fullRows []row
	if err := json.Unmarshal(full, &fullRows); err != nil {
		t.Fatal(err)
	}
	var union []row
	for i := 0; i < 3; i++ {
		part := runSweep(t, testArgs("-format", "json", "-shard", fmt.Sprintf("%d/3", i)))
		var rows []row
		if err := json.Unmarshal(part, &rows); err != nil {
			t.Fatalf("shard %d: %v (report %q)", i, err, part)
		}
		union = append(union, rows...)
	}
	if len(union) != len(fullRows) {
		t.Fatalf("shard reports hold %d rows, full report %d", len(union), len(fullRows))
	}
	sort.Slice(union, func(i, j int) bool { return union[i].Name < union[j].Name })
	for i := range union {
		if union[i] != fullRows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, union[i], fullRows[i])
		}
	}
}

// TestShardEmptyReport: a shard owning no tasks emits a valid empty
// report, not an error — "[]" in JSON, header-only TSV.
func TestShardEmptyReport(t *testing.T) {
	var out bytes.Buffer
	if err := writeReport(&out, "json", nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Fatalf("empty JSON report = %q, want []", got)
	}
	out.Reset()
	if err := writeReport(&out, "tsv", nil); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(out.String(), "\n"); lines != 1 {
		t.Fatalf("empty TSV report has %d lines, want header only", lines)
	}
}

// TestShardFlagValidation: malformed selectors and the -pack conflict
// are rejected.
func TestShardFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-shard", "3"},
		{"-shard", "a/b"},
		{"-shard", "3/3"},
		{"-shard", "-1/3"},
		{"-shard", "0/0"},
		{"-shard", "1/"},
		{"-pack", "out.repack", "-store", "dir", "-shard", "0/2"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted bad shard input", args)
		}
	}
	cfg, err := parseFlags([]string{"-shard", "1/3", "-catalog"})
	if err != nil {
		t.Fatalf("-shard with -catalog rejected: %v", err)
	}
	if cfg.shardIndex != 1 || cfg.shardTotal != 3 {
		t.Fatalf("shard config = %d/%d", cfg.shardIndex, cfg.shardTotal)
	}
}

func TestBuildTasksGridShape(t *testing.T) {
	cfg, err := parseFlags([]string{"-delta", "2:3", "-k", "2:3"})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := buildTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 deltas × (1 sc + 1 so + 2 kcol + 1 weak2 + 2 superweak) = 14.
	if len(tasks) != 14 {
		t.Fatalf("got %d tasks, want 14", len(tasks))
	}
	seen := map[string]bool{}
	for _, task := range tasks {
		if seen[task.Name] {
			t.Fatalf("duplicate task %s", task.Name)
		}
		seen[task.Name] = true
		if task.Problem == nil {
			t.Fatalf("%s: nil problem", task.Name)
		}
	}
	for _, want := range []string{"sinkless-coloring/delta=2", "3-coloring/delta=3", "superweak/k=2,delta=3"} {
		if !seen[want] {
			t.Fatalf("missing task %s", want)
		}
	}

	catalogCfg, err := parseFlags([]string{"-catalog"})
	if err != nil {
		t.Fatal(err)
	}
	catalogTasks, err := buildTasks(catalogCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(catalogTasks); got != 8 {
		t.Fatalf("catalog mode: got %d tasks, want 8", got)
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	bad := [][]string{
		{"-format", "xml"},
		{"-delta", "4:2"},
		{"-delta", "0:2"},
		{"-k", "nope"},
		{"-families", "unknown-family"},
		{"-max-steps", "0"},
		{"positional"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted bad input", args)
		}
	}
}

// TestPackModeFlagValidation: -pack requires -store and refuses every
// sweep-shaping flag — packing only reads the store.
func TestPackModeFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-pack", "out.repack"},
		{"-pack", "out.repack", "-store", "dir", "-catalog"},
		{"-pack", "out.repack", "-store", "dir", "-format", "json"},
		{"-pack", "out.repack", "-store", "dir", "-delta", "2:3"},
		{"-pack", "out.repack", "-store", "dir", "-out", "report.tsv"},
		{"-pack", "out.repack", "-store", "dir", "-max-steps", "3"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted bad pack-mode input", args)
		}
	}
	cfg, err := parseFlags([]string{"-pack", "out.repack", "-store", "dir", "-v"})
	if err != nil {
		t.Fatalf("parseFlags rejected valid pack-mode input: %v", err)
	}
	if cfg.packPath != "out.repack" || cfg.storeDir != "dir" || !cfg.verbose {
		t.Fatalf("pack-mode config = %+v", cfg)
	}
}

// TestPackModeEmitsArtifact: a sweep followed by -pack produces an
// openable artifact holding every record the sweep committed — one
// rendered checkpoint per task plus the step records, no trajectory —
// and re-packing is bit-exact.
func TestPackModeEmitsArtifact(t *testing.T) {
	dir := t.TempDir()
	runSweep(t, testArgs("-store", dir))

	packPath := filepath.Join(t.TempDir(), "warm.repack")
	cfg, err := parseFlags([]string{"-store", dir, "-pack", packPath})
	if err != nil {
		t.Fatal(err)
	}
	var errw bytes.Buffer
	if err := runPack(cfg, &errw); err != nil {
		t.Fatalf("runPack: %v", err)
	}
	if !bytes.Contains(errw.Bytes(), []byte("packed")) {
		t.Fatalf("runPack summary missing: %q", errw.String())
	}

	pr, err := store.OpenPack(packPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	_, tasks := testTasks(t, testArgs())
	steps, trajs, rendered := countSweepObjects(t, dir, "step"), countSweepObjects(t, dir, "traj"), countSweepObjects(t, dir, "rendered")
	if rendered != len(tasks) || trajs != 0 {
		t.Fatalf("store has %d rendered and %d trajectory record(s) for %d tasks, want one rendered each", rendered, trajs, len(tasks))
	}
	if pr.Len() != steps+rendered {
		t.Fatalf("pack holds %d record(s), store has %d", pr.Len(), steps+rendered)
	}

	pack2 := filepath.Join(t.TempDir(), "warm2.repack")
	cfg2 := cfg
	cfg2.packPath = pack2
	if err := runPack(cfg2, &errw); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(pack2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-packing the same store is not bit-exact")
	}
}

// TestReportCommitIsAtomic: -out naming a missing path (or a regular
// file) goes through the store's atomic commit path, so a report file
// never coexists with its temp file.
func TestReportCommitIsAtomic(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(t.TempDir(), "report.tsv")
	cfg, err := parseFlags(testArgs("-store", dir, "-out", outPath))
	if err != nil {
		t.Fatal(err)
	}
	var buf, errw bytes.Buffer
	if err := run(cfg, &buf, &errw); err != nil {
		t.Fatal(err)
	}
	if err := writeOut(cfg.outPath, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil || !bytes.Equal(data, buf.Bytes()) {
		t.Fatalf("report mismatch after atomic commit (%v)", err)
	}
	residue, err := filepath.Glob(filepath.Join(filepath.Dir(outPath), ".tmp-*"))
	if err != nil || len(residue) != 0 {
		t.Fatalf("temp residue next to report: %v (%v)", residue, err)
	}
}

// countSweepObjects tallies the store's records of one kind (by
// extension).
func countSweepObjects(t *testing.T, dir, ext string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*."+ext))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// testTasks parses a sweep's flags and expands them into its task
// list.
func testTasks(t *testing.T, args []string) (config, []problems.GridPoint) {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := buildTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, tasks
}

// coldResult classifies one task alone, memo-free, under the sweep's
// budgets.
func coldResult(t *testing.T, cfg config, task problems.GridPoint) *fixpoint.Result {
	t.Helper()
	res, err := fixpoint.Run(task.Problem, fixpoint.Options{
		MaxSteps: cfg.maxSteps,
		Core:     []core.Option{core.WithMaxStates(cfg.maxStates), core.WithWorkers(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointRowMatchesMakeRow: the row a checkpoint hit decodes
// from a rendered body equals the row makeRow reads off the result,
// for every class the sweeps below produce — budget failures with
// their error messages included — and a body that does not decode is
// refused, so the task is recomputed.
func TestCheckpointRowMatchesMakeRow(t *testing.T) {
	classes := map[string]int{}
	for _, args := range [][]string{testArgs(), failureGenArgs()} {
		cfg, tasks := testTasks(t, args)
		for _, task := range tasks {
			res := coldResult(t, cfg, task)
			want := makeRow(task, res)
			got, ok := checkpointRow(task, service.RenderFixpointNDJSON(res))
			if !ok || got != want {
				t.Fatalf("%s: checkpoint row (%v) %+v, want %+v", task.Name, ok, got, want)
			}
			classes[want.Class]++
		}
	}
	if classes[fixpoint.BudgetExceeded.String()] == 0 || len(classes) < 3 {
		t.Fatalf("classes covered: %v, want budget failures among at least three", classes)
	}
	cfg, tasks := testTasks(t, testArgs())
	body := service.RenderFixpointNDJSON(coldResult(t, cfg, tasks[0]))
	lines := bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	for name, bad := range map[string][]byte{
		"empty":             nil,
		"one line":          lines[0],
		"no classification": bytes.Join(lines[:len(lines)-1], nil),
		"entry dropped":     append(bytes.Join(lines[:len(lines)-2], nil), lines[len(lines)-1]...),
		"not json":          []byte("{\n}\n"),
	} {
		if r, ok := checkpointRow(tasks[0], bad); ok {
			t.Errorf("%s: body decoded to %+v, want a refusal", name, r)
		}
	}
}

// TestResweepOfTrajectoryOnlyStore: a store that holds only trajectory
// checkpoints — what a sweep wrote before the rendered record became
// the checkpoint — is not read: every task is recomputed into a
// byte-identical report and commits its rendered checkpoint, which the
// next sweep then hits.
func TestResweepOfTrajectoryOnlyStore(t *testing.T) {
	reference := runSweep(t, testArgs())
	cfg, tasks := testTasks(t, testArgs())
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	params := store.TrajectoryParams{MaxSteps: cfg.maxSteps, MaxStates: cfg.maxStates}
	for _, task := range tasks {
		if err := st.PutTrajectory(task.Problem, params, coldResult(t, cfg, task)); err != nil {
			t.Fatal(err)
		}
	}

	for i, wantHits := range []int{0, len(tasks)} {
		cfgStore, err := parseFlags(testArgs("-store", dir, "-v"))
		if err != nil {
			t.Fatal(err)
		}
		var out, errw bytes.Buffer
		if err := run(cfgStore, &out, &errw); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), reference) {
			t.Fatalf("sweep %d over the trajectory-only store differs from the storeless report", i)
		}
		if hits := bytes.Count(errw.Bytes(), []byte("checkpoint hit")); hits != wantHits {
			t.Fatalf("sweep %d had %d checkpoint hit(s), want %d\n%s", i, hits, wantHits, errw.String())
		}
		if n := countSweepObjects(t, dir, "rendered"); n != len(tasks) {
			t.Fatalf("sweep %d left %d rendered record(s) for %d tasks", i, n, len(tasks))
		}
	}
}

// TestGenFlagValidation: malformed generation specs and flag conflicts
// are rejected with exit-before-work errors.
func TestGenFlagValidation(t *testing.T) {
	bad := [][]string{
		{"-gen", ""},                                // flag set but empty
		{"-gen", "family=nope,count=3"},             // unknown family
		{"-gen", "count=3"},                         // no family
		{"-gen", "family=rand,count=-1"},            // negative count
		{"-gen", "family=rand,count=0"},             // empty space
		{"-gen", "family=rand,count=abc"},           // malformed int
		{"-gen", "family=rand,count=3,count=4"},     // duplicate key
		{"-gen", "family=rand,count=3,bogus=1"},     // unknown key
		{"-gen", "family=rand,count=3,k=3"},         // key from another family
		{"-gen", "family=rand,count=3,delta=9"},     // out-of-domain delta
		{"-gen", "family=rand,count=3,,delta=3"},    // empty element
		{"-gen", "family=grid,count=3,k=1"},         // degenerate grid coloring
		{"-gen", "family=rand,count=200000"},        // beyond MaxSpecCount
		{"-gen", "family=rand,count=3", "-catalog"}, // conflicts: fixed task lists
		{"-gen", "family=rand,count=3", "-families", "sinkless-coloring"},
		{"-gen", "family=rand,count=3", "-delta", "2:3"}, // grid shaping is meaningless
		{"-gen", "family=rand,count=3", "-k", "2:3"},
		{"-pack", "p.repack", "-store", "d", "-gen", "family=rand,count=3"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted bad -gen input", args)
		}
	}

	cfg, err := parseFlags([]string{"-gen", "family=rand,seed=5,count=4", "-shard", "1/2", "-format", "json"})
	if err != nil {
		t.Fatalf("valid -gen input rejected: %v", err)
	}
	if cfg.genSpec == nil || cfg.genSpec.Count != 4 || cfg.genSpec.Seed != 5 {
		t.Fatalf("gen spec not captured: %+v", cfg.genSpec)
	}
	tasks, err := buildTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("generated space has %d tasks, want 4", len(tasks))
	}
}

// genTestArgs is a small generated space for the end-to-end -gen tests.
func genTestArgs(extra ...string) []string {
	base := []string{"-gen", "family=rand,seed=11,count=12,delta=3,labels=3,edge=60,node=60",
		"-max-states", "8000", "-max-steps", "2"}
	return append(base, extra...)
}

// TestGenSweepDeterminism: the same spec yields a byte-identical report
// across repeat runs, worker counts, and cold/warm store states — the
// byte-identity contract extended to generated problem spaces.
func TestGenSweepDeterminism(t *testing.T) {
	want := runSweep(t, genTestArgs("-workers", "1"))
	for _, w := range []string{"2", "4"} {
		if got := runSweep(t, genTestArgs("-workers", w)); !bytes.Equal(got, want) {
			t.Fatalf("workers=%s: generated-space report differs from workers=1", w)
		}
	}
	dir := t.TempDir()
	cold := runSweep(t, genTestArgs("-store", dir))
	warm := runSweep(t, genTestArgs("-store", dir))
	if !bytes.Equal(cold, want) || !bytes.Equal(warm, want) {
		t.Fatal("store-backed generated-space report differs from storeless report")
	}
}

// TestGenShardPartition: -shard partitions the generated space exactly —
// every generated task owned by precisely one shard, and the shard
// reports union to the unsharded report.
func TestGenShardPartition(t *testing.T) {
	const n = 3
	cfg, err := parseFlags(genTestArgs())
	if err != nil {
		t.Fatal(err)
	}
	all, err := buildTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		owned, err := shardTasks(all, i, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range owned {
			seen[task.Name]++
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("shards cover %d of %d generated tasks", len(seen), len(all))
	}
	for name, count := range seen {
		if count != 1 {
			t.Fatalf("generated task %s owned by %d shards", name, count)
		}
	}

	full := runSweep(t, genTestArgs("-format", "json"))
	var fullRows []row
	if err := json.Unmarshal(full, &fullRows); err != nil {
		t.Fatal(err)
	}
	var union []row
	for i := 0; i < n; i++ {
		part := runSweep(t, genTestArgs("-format", "json", "-shard", fmt.Sprintf("%d/%d", i, n)))
		var rows []row
		if err := json.Unmarshal(part, &rows); err != nil {
			t.Fatalf("shard %d: %v (report %q)", i, err, part)
		}
		union = append(union, rows...)
	}
	sort.Slice(union, func(i, j int) bool { return union[i].Name < union[j].Name })
	if len(union) != len(fullRows) {
		t.Fatalf("shard reports hold %d rows, full report %d", len(union), len(fullRows))
	}
	for i := range union {
		if union[i] != fullRows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, union[i], fullRows[i])
		}
	}
}

// failureGenArgs is a generated space whose tasks exhaust the state
// budget on isomorphic step inputs more than once, so a sweep of it
// reaches the failure memo.
func failureGenArgs(extra ...string) []string {
	base := []string{"-gen", "family=rand,seed=1,count=128,delta=3,labels=3",
		"-max-states", "200", "-max-steps", "4"}
	return append(base, extra...)
}

// TestGenSweepFailureMemo: a sweep whose tasks repeat a budget failure
// up to label renaming reports, at every worker count, exactly the
// rows that each task run alone and without any memo produces.
func TestGenSweepFailureMemo(t *testing.T) {
	cfg, tasks := testTasks(t, failureGenArgs())
	rows := make([]row, len(tasks))
	var failedInputs []*core.Problem
	repeats := 0
	for i, task := range tasks {
		res := coldResult(t, cfg, task)
		rows[i] = makeRow(task, res)
		if res.Err == nil {
			continue
		}
		for _, prev := range failedInputs {
			if _, ok := core.Isomorphic(res.Last(), prev); ok {
				repeats++
				break
			}
		}
		failedInputs = append(failedInputs, res.Last())
	}
	if repeats == 0 {
		t.Fatal("no task repeats an earlier budget failure up to renaming")
	}
	var want bytes.Buffer
	if err := writeReport(&want, "tsv", rows); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "2", "4"} {
		if got := runSweep(t, failureGenArgs("-workers", w)); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("workers=%s: report differs from memo-free runs:\n%s\nvs\n%s", w, got, want.Bytes())
		}
	}
	t.Logf("%d of %d budget failures repeat an earlier one up to renaming", repeats, len(failedInputs))
}
