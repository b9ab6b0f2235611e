package clustertest

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// chaosGrid is slow enough that a sharded worker reliably survives
// until its first checkpoint and fast enough for CI — the same grid
// the sweep package's single-process kill/resume test uses.
var chaosGrid = []string{"-delta", "2:4", "-k", "2:2", "-max-states", "60000", "-max-steps", "3", "-workers", "1"}

// TestChaosShardedSweepSurvivesKill is the cluster chaos acceptance
// test: three sharded sweep workers fill one shared store, one is
// SIGKILLed mid-run, a survivor re-runs the dead member's shard
// (ownership is deterministic — any process can), and the merged
// store then answers a full sweep entirely from checkpoints,
// byte-identical to a single-process cold sweep that was never
// interrupted.
func TestChaosShardedSweepSurvivesKill(t *testing.T) {
	b := testBinaries(t)
	const shards = 3

	reference, _, err := b.RunSweep("chaos-reference", append(chaosGrid, "-store", t.TempDir())...)
	if err != nil {
		t.Fatal(err)
	}

	shared := t.TempDir()
	shardArgs := func(i int) []string {
		return append(chaosGrid, "-store", shared, "-shard", fmt.Sprintf("%d/%d", i, shards))
	}
	procs := make([]*Proc, shards)
	for i := range procs {
		p, err := b.StartSweep(fmt.Sprintf("chaos-shard%d", i), shardArgs(i)...)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}

	// SIGKILL shard 0 as soon as the first checkpoint lands anywhere,
	// so the store is mid-sweep: some records committed, most missing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		matches, _ := filepath.Glob(filepath.Join(shared, "objects", "*", "*.rendered"))
		if len(matches) > 0 {
			break
		}
		if time.Now().After(deadline) {
			for _, p := range procs {
				p.Kill()
			}
			t.Fatal("no checkpoint landed within 30s: nothing to kill mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	procs[0].Kill()
	t.Logf("shard 0 killed mid-run: %v", procs[0].Wait() != nil)
	for i, p := range procs[1:] {
		if err := p.Wait(); err != nil {
			t.Fatalf("surviving shard %d failed: %v\n%s", i+1, err, p.Log())
		}
	}

	// Resume the victim's shard on a fresh process.
	if _, _, err := b.RunSweep("chaos-resume", shardArgs(0)...); err != nil {
		t.Fatal(err)
	}

	report, log, err := b.RunSweep("chaos-final", append(chaosGrid, "-store", shared, "-v")...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(report, reference) {
		t.Fatalf("post-chaos report differs from uninterrupted reference:\n%s\nvs\n%s", report, reference)
	}
	// TSV: one header line, then one row per task — and every task must
	// have been served from a committed checkpoint.
	rows := bytes.Count(bytes.TrimSuffix(report, []byte("\n")), []byte("\n"))
	if hits := bytes.Count(log, []byte("checkpoint hit")); hits != rows {
		t.Fatalf("final sweep had %d checkpoint hits, want %d:\n%s", hits, rows, log)
	}
}
