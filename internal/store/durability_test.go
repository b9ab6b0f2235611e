package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// stubSeams snapshots the durability seams and restores them when the
// test ends. Tests in this package do not run in parallel, so swapping
// the package-level functions is race-free.
func stubSeams(t *testing.T) {
	t.Helper()
	origSync, origRename, origDir := syncFile, renameFile, syncDir
	t.Cleanup(func() {
		syncFile, renameFile, syncDir = origSync, origRename, origDir
	})
}

// tempResidue returns any leftover .tmp- files under the store's
// objects tree.
func tempResidue(t *testing.T, s *Store) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Root(), "objects", "*", ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestWriteAtomicSyncFailure: a failed fsync of the temp file must
// surface as an error, leave no final object, and leave no temp
// residue. This is the crash-safety half of the durability contract —
// if we cannot prove the bytes are on disk, we must not publish the
// name.
func TestWriteAtomicSyncFailure(t *testing.T) {
	s := openTemp(t)
	stubSeams(t)
	injected := errors.New("injected fsync failure")
	syncFile = func(*os.File) error { return injected }

	in := sinkless(t)
	derived, err := putTarget(t, s, in)
	if !errors.Is(err, injected) {
		t.Fatalf("PutStep = %v, want injected fsync error", err)
	}
	if _, err := os.Stat(s.objectPath(KindStep, stepKey(in.CanonicalBytes(), 0))); !os.IsNotExist(err) {
		t.Fatalf("final object exists after failed sync (stat err %v)", err)
	}
	if residue := tempResidue(t, s); len(residue) != 0 {
		t.Fatalf("temp residue after failed sync: %v", residue)
	}
	_ = derived
}

// TestWriteAtomicRenameFailure: a failed rename surfaces, publishes
// nothing, and cleans its temp file.
func TestWriteAtomicRenameFailure(t *testing.T) {
	s := openTemp(t)
	stubSeams(t)
	injected := errors.New("injected rename failure")
	renameFile = func(oldpath, newpath string) error { return injected }

	in := sinkless(t)
	if _, err := putTarget(t, s, in); !errors.Is(err, injected) {
		t.Fatalf("PutStep = %v, want injected rename error", err)
	}
	if _, err := os.Stat(s.objectPath(KindStep, stepKey(in.CanonicalBytes(), 0))); !os.IsNotExist(err) {
		t.Fatalf("final object exists after failed rename (stat err %v)", err)
	}
	if residue := tempResidue(t, s); len(residue) != 0 {
		t.Fatalf("temp residue after failed rename: %v", residue)
	}
}

// TestWriteAtomicDirSyncFailure: a failed directory sync surfaces — the
// rename has happened, but its durability is unproven, so the write
// must still report failure rather than claim a commit it cannot
// guarantee.
func TestWriteAtomicDirSyncFailure(t *testing.T) {
	s := openTemp(t)
	stubSeams(t)
	injected := errors.New("injected dir sync failure")
	syncDir = func(string) error { return injected }

	if _, err := putTarget(t, s, sinkless(t)); !errors.Is(err, injected) {
		t.Fatalf("PutStep = %v, want injected dir-sync error", err)
	}
	if residue := tempResidue(t, s); len(residue) != 0 {
		t.Fatalf("temp residue after failed dir sync: %v", residue)
	}
}

// TestWriteAtomicSyncsDirectory: the happy path syncs the parent
// directory of every committed record exactly once, after the rename.
func TestWriteAtomicSyncsDirectory(t *testing.T) {
	s := openTemp(t)
	stubSeams(t)
	var synced []string
	origDir := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return origDir(dir)
	}

	in := sinkless(t)
	if _, err := putTarget(t, s, in); err != nil {
		t.Fatal(err)
	}
	want := filepath.Dir(s.objectPath(KindStep, stepKey(in.CanonicalBytes(), 0)))
	if len(synced) != 1 || synced[0] != want {
		t.Fatalf("directory syncs = %v, want exactly [%s]", synced, want)
	}
	if _, ok, err := s.GetStep(in, 0); !ok || err != nil {
		t.Fatalf("record unreadable after commit: ok=%v err=%v", ok, err)
	}
}

// TestWriteFileAtomicReportCommit: the exported commit path (used by
// cmd/sweep for reports and cmd/sweep -pack via writePackFile) is the
// same temp+fsync+rename+dirsync sequence as record writes.
func TestWriteFileAtomicReportCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.tsv")
	if err := WriteFileAtomic(path, []byte("name\tsteps\n")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "name\tsteps\n" {
		t.Fatalf("read back %q, %v", data, err)
	}

	stubSeams(t)
	injected := errors.New("injected rename failure")
	renameFile = func(oldpath, newpath string) error { return injected }
	if err := WriteFileAtomic(path, []byte("torn")); !errors.Is(err, injected) {
		t.Fatalf("WriteFileAtomic = %v, want injected error", err)
	}
	// The previous committed content must be untouched.
	data, err = os.ReadFile(path)
	if err != nil || string(data) != "name\tsteps\n" {
		t.Fatalf("prior content damaged by failed rewrite: %q, %v", data, err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil || len(matches) != 0 {
		t.Fatalf("temp residue: %v (%v)", matches, err)
	}
}

// TestPackWriteFailureLeavesNoArtifact: the pack writer commits through
// the same seams; a failed rename must leave no pack file behind.
func TestPackWriteFailureLeavesNoArtifact(t *testing.T) {
	s := openTemp(t)
	putOneStep(t, s)
	stubSeams(t)
	injected := errors.New("injected rename failure")
	renameFile = func(oldpath, newpath string) error { return injected }

	path := filepath.Join(t.TempDir(), "warm.repack")
	if _, err := s.Pack(path); !errors.Is(err, injected) {
		t.Fatalf("Pack = %v, want injected rename error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("pack artifact exists after failed commit (stat err %v)", err)
	}
	matches, err := filepath.Glob(filepath.Join(filepath.Dir(path), ".tmp-*"))
	if err != nil || len(matches) != 0 {
		t.Fatalf("temp residue: %v (%v)", matches, err)
	}
}

// putTarget writes one step record for in (budget 0) and returns the
// derived problem alongside the PutStep error, so failure-injection
// tests can assert on the error without the putOneStep helper's
// built-in t.Fatal.
func putTarget(t *testing.T, s *Store, in *core.Problem) (*core.Problem, error) {
	t.Helper()
	derived, err := core.Speedup(in)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := derived.RenameCompact()
	return out, s.PutStep(in, out, 0)
}
