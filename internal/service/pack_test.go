package service

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// packOf packs the store under dir into a fresh artifact and opens it.
func packOf(t *testing.T, dir string) *store.PackReader {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.repack")
	if _, err := st.Pack(path); err != nil {
		t.Fatal(err)
	}
	pr, err := store.OpenPack(path)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// servePack starts a server whose engine preloads pr. The engine owns
// pr (Close releases it).
func servePack(t *testing.T, dir string, pr *store.PackReader) (*Engine, *Metrics, *httptest.Server) {
	t.Helper()
	m := NewMetrics()
	e, err := New(Config{StoreDir: dir, Pack: pr, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(srv.Close)
	return e, m, srv
}

// tierStat returns the named tier's row from the stats snapshot.
func tierStat(t *testing.T, m *Metrics, _ *Engine, tier string) StoreStat {
	t.Helper()
	for _, row := range m.Stats().Store {
		if row.Tier == tier {
			return row
		}
	}
	t.Fatalf("tier %q missing from stats", tier)
	return StoreStat{}
}

// TestPackServedByteIdentity is the preload acceptance lock: an engine
// given only a pack artifact (its store directory fresh and empty)
// answers the full query battery byte-identically to the cold run that
// built the pack, entirely from the pack tier — zero object files are
// read or written, every pack lookup hits, and the store tiers are
// never consulted.
func TestPackServedByteIdentity(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	_, srvA := serve(t, dir)
	cold := querySet(t, srvA.URL)

	fresh := filepath.Join(t.TempDir(), "results")
	e, m, srv := servePack(t, fresh, packOf(t, dir))
	packed := querySet(t, srv.URL)
	for name, want := range cold {
		if !bytes.Equal(want, packed[name]) {
			t.Errorf("%s: pack-served body differs from cold body", name)
		}
	}

	// The pack answered everything: no object files materialized...
	objects, err := filepath.Glob(filepath.Join(fresh, "objects", "*", "*.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) != 0 {
		t.Fatalf("pack-served queries touched objects/: %v", objects)
	}
	// ...every pack lookup hit, and no lower warm tier was consulted.
	pack := tierStat(t, m, e, "pack")
	if pack.Hits == 0 || pack.Misses != 0 || pack.Corrupt != 0 {
		t.Fatalf("pack tier = %+v, want only hits", pack)
	}
	for _, tier := range []string{"step", "verdict"} {
		if row := tierStat(t, m, e, tier); row.Hits+row.Misses+row.Corrupt != 0 {
			t.Fatalf("tier %q consulted behind a fully-warm pack: %+v", tier, row)
		}
	}
}

// TestPackMemoryOnlyEngine: the pack tier composes with memory-only
// operation (no store directory at all) with the same byte identity.
func TestPackMemoryOnlyEngine(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	_, srvA := serve(t, dir)
	cold := querySet(t, srvA.URL)

	_, _, srv := servePack(t, "", packOf(t, dir))
	packed := querySet(t, srv.URL)
	for name, want := range cold {
		if !bytes.Equal(want, packed[name]) {
			t.Errorf("%s: pack+memory body differs from cold body", name)
		}
	}
}

// TestCorruptWarmRecordsDegrade is the satellite-2 lock: a serve path
// hitting corrupted store records must degrade to recomputation —
// byte-identical bodies, no failed queries — and report the damage
// through the corrupt warm-lookup outcome, per tier.
func TestCorruptWarmRecordsDegrade(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	_, srvA := serve(t, dir)
	cold := querySet(t, srvA.URL)

	// Flip one payload byte in every committed record: checksums break,
	// content stays parseable-looking.
	objects, err := filepath.Glob(filepath.Join(dir, "objects", "*", "*.*"))
	if err != nil || len(objects) == 0 {
		t.Fatalf("no objects to corrupt: %v (%v)", objects, err)
	}
	for _, path := range objects {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x40 // inside the checksum trailer
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m := NewMetrics()
	e, err := New(Config{StoreDir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	srv := httptest.NewServer(Handler(e))
	t.Cleanup(srv.Close)

	recomputed := querySet(t, srv.URL)
	for name, want := range cold {
		if !bytes.Equal(want, recomputed[name]) {
			t.Errorf("%s: body over corrupted store differs from cold body", name)
		}
	}
	for _, tier := range []string{"step", "rendered", "verdict"} {
		if row := tierStat(t, m, e, tier); row.Corrupt == 0 {
			t.Errorf("tier %q reported no corrupt outcomes over a fully-corrupted store", tier)
		}
	}
}

// TestCorruptPackFallsThrough: an engine whose pack tier misses (here:
// a pack built from an unrelated empty store) serves from the JSON
// store underneath, byte-identically.
func TestCorruptPackFallsThrough(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	_, srvA := serve(t, dir)
	cold := querySet(t, srvA.URL)

	// A valid but empty pack: every lookup misses, the store answers.
	empty := packOf(t, filepath.Join(t.TempDir(), "empty"))
	e, m, srv := servePack(t, dir, empty)
	served := querySet(t, srv.URL)
	for name, want := range cold {
		if !bytes.Equal(want, served[name]) {
			t.Errorf("%s: store-served body behind an empty pack differs", name)
		}
	}
	pack := tierStat(t, m, e, "pack")
	if pack.Hits != 0 || pack.Misses == 0 {
		t.Fatalf("pack tier = %+v, want only misses", pack)
	}
	if row := tierStat(t, m, e, "rendered"); row.Hits == 0 {
		t.Fatalf("rendered tier = %+v, want store hits behind the empty pack", row)
	}
}
