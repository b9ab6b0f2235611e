package store

// This file is the pack writer: the store's distributable warm-cache
// artifact. A pack is one read-optimized binary file holding every
// validated record of a store directory that the program reads (older
// stores' trajectory records are left out) — all keys in one sorted
// table of fixed-length entries that lookups binary-search, all
// payloads in one data section addressed by offset/length — behind a
// versioned header and a whole-file SHA-256 checksum. Store.Pack
// writes one; OpenPack (packreader.go) serves it read-only,
// mmap-backed where available.
//
// On disk (all integers big-endian):
//
//	magic "PODC19PK" · u32 PackFormatVersion · u32 FingerprintVersion
//	u64 entry count · u64 data bytes
//	key table (count × packKeyLen bytes, strictly increasing)
//	entry table (count × u64 offset, u64 length)
//	data section (payloads back to back, sorted-key order)
//	SHA-256 over everything preceding it
//
// The key and entry tables take their lengths from the entry count.
//
// The format is deterministic: entries are sorted by key and every
// section is a pure function of the record set, so packing the same
// store twice — or packing, unpacking into a fresh store, and packing
// again — produces bit-identical files. That is what makes a pack a
// cache artifact rather than a database: two builders of the same
// catalog produce the same bytes, and byte comparison is a complete
// integrity check.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

// PackFormatVersion is the on-disk pack container version, written into
// every pack header and rejected on mismatch by OpenPack. Like the
// record FormatVersion there is no migration path: a pack is a cache
// artifact, rebuilt from a store (or recomputed) when the format moves.
// Version 2 added the KindRendered section — pre-rendered response
// bodies packed alongside the records they were rendered from. A v1
// pack would still parse, but serving it would silently miss the
// rendered tier on every query, so the version gate turns "stale
// artifact" into an explicit rebuild signal instead of a quiet
// performance regression. Version 3 replaced the succinct trie index
// (level-order labels plus rank/select bitmaps) with the sorted key
// table: keys are a kind byte plus a SHA-256, which share no prefixes
// for a trie to save, so the flat table is smaller (33 bytes per key
// against ~43) and a binary search beats a 33-level walk.
const PackFormatVersion = 3

// packMagic opens every pack file. Eight bytes, fixed; distinct from
// the per-record magic so a pack can never be mistaken for a record.
const packMagic = "PODC19PK"

// packHeaderSize is magic + pack version + fingerprint version + entry
// count + data-section length.
const packHeaderSize = 8 + 4 + 4 + 8 + 8

// packKeyLen is the fixed key-table entry length: one kind byte
// followed by the 32-byte stable record key. Key i of the table is the
// key of entry i of the entry table.
const packKeyLen = 1 + 32

// packEntrySize is one entry-table slot: big-endian offset and length
// into the data section.
const packEntrySize = 8 + 8

// PackStats reports what Store.Pack put into (and left out of) an
// artifact.
type PackStats struct {
	// Entries is the number of validated records packed.
	Entries int
	// Skipped counts records present in the store but excluded because
	// their frame failed validation (corrupt, truncated, foreign) —
	// packing shares lookup's degradation contract: damage costs
	// warmth, never the artifact.
	Skipped int
}

// packEntry is one record staged for packing.
type packEntry struct {
	key     []byte // packKeyLen bytes: kind byte + stable record key
	payload []byte // validated record payload (the JSON inside the frame)
}

// Pack walks the store's objects and writes the packed warm-cache
// artifact to path, committed with the same temp+rename+dirsync
// protocol as every record. Trajectory records, which nothing reads,
// are left out uncounted; records that fail frame validation are
// skipped and counted in PackStats.Skipped. The output is
// deterministic in the record set (see the package comment on pack.go).
func (s *Store) Pack(path string) (PackStats, error) {
	var stats PackStats
	var entries []packEntry
	objects := filepath.Join(s.root, "objects")
	err := filepath.WalkDir(objects, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		ext := filepath.Ext(name)
		kind, ok := KindByExt(strings.TrimPrefix(ext, "."))
		if !ok || kind == KindTrajectory {
			return nil // temp files, foreign files and unread kinds
		}
		keyBytes, herr := hex.DecodeString(strings.TrimSuffix(name, ext))
		if herr != nil || len(keyBytes) != 32 {
			return nil
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		payload, derr := decodeRecord(data, kind)
		if derr != nil {
			stats.Skipped++
			return nil
		}
		key := make([]byte, 0, packKeyLen)
		key = append(key, byte(kind))
		key = append(key, keyBytes...)
		entries = append(entries, packEntry{key: key, payload: payload})
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("store: pack: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
	stats.Entries = len(entries)
	if err := writePackFile(path, entries); err != nil {
		return stats, fmt.Errorf("store: pack: %w", err)
	}
	return stats, nil
}

// writePackFile serializes sorted entries into the pack format and
// commits the file atomically and durably. The whole-file checksum is
// computed while streaming, so the payloads are never assembled into
// one buffer.
func writePackFile(path string, entries []packEntry) error {
	// Lookups binary-search the key table, and OpenPack refuses a table
	// that is not strictly increasing: refuse to write one.
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].key, entries[i].key) >= 0 {
			return fmt.Errorf("pack keys not sorted and unique at %d", i)
		}
	}
	var dataLen uint64
	for _, e := range entries {
		dataLen += uint64(len(e.payload))
	}
	index := make([]byte, 0, packHeaderSize+len(entries)*(packKeyLen+packEntrySize))
	index = append(index, packMagic...)
	index = binary.BigEndian.AppendUint32(index, PackFormatVersion)
	index = binary.BigEndian.AppendUint32(index, uint32(core.FingerprintVersion))
	index = binary.BigEndian.AppendUint64(index, uint64(len(entries)))
	index = binary.BigEndian.AppendUint64(index, dataLen)
	for _, e := range entries {
		index = append(index, e.key...)
	}
	var off uint64
	for _, e := range entries {
		index = binary.BigEndian.AppendUint64(index, off)
		index = binary.BigEndian.AppendUint64(index, uint64(len(e.payload)))
		off += uint64(len(e.payload))
	}

	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	fail := func(err error) error {
		tmp.Close()
		return err
	}

	h := sha256.New()
	bw := bufio.NewWriter(tmp)
	w := io.MultiWriter(bw, h)
	if _, err := w.Write(index); err != nil {
		return fail(err)
	}
	for _, e := range entries {
		if _, err := w.Write(e.payload); err != nil {
			return fail(err)
		}
	}
	// The checksum trailer goes to the file only — it covers everything
	// preceding it.
	if _, err := bw.Write(h.Sum(nil)); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	return commitTemp(tmp, path)
}
