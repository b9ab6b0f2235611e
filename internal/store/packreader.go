package store

// This file is the pack reader: the read-only, mmap-backed view of a
// packed warm-cache artifact (see pack.go for the format). OpenPack
// validates the whole file once — magic, versions, SHA-256, section
// geometry, entry bounds, key order — so lookups afterwards never
// re-verify and never fail, they only hit or miss. The reader is a
// Source over a binary search of the key table, so its typed getters
// are the Store's own, which is what makes a pack-served reply
// byte-identical to a JSON-store or cold reply for the same query.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
)

// PackReader serves lookups from one pack file, validated in full at
// open time. It is safe for concurrent use; Close is safe to race with
// lookups (a lookup against a closed reader degrades to a miss, never
// touches unmapped memory).
type PackReader struct {
	Source // lookup: a binary search of the key table
	mu     sync.RWMutex
	data   []byte       // the whole file: mmap-backed or heap-backed
	unmap  func() error // non-nil when data is a live mapping
	closed bool

	count    int
	keys     []byte // key table, aliasing data
	entries  []byte // entry table, aliasing data
	payloads []byte // data section, aliasing data
}

// OpenPack opens and fully validates the pack at path: mmap where the
// platform supports it, an io.ReaderAt full read otherwise. Validation
// failures wrap the store's corruption sentinels — ErrBadMagic,
// ErrVersionMismatch (container or fingerprint version), ErrTruncated,
// ErrChecksum — so callers can degrade exactly as they do for damaged
// records.
func OpenPack(path string) (*PackReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mmap (when used) survives the fd
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	data, unmap, err := mapFile(f, size)
	if err != nil {
		// No mmap on this platform (or it failed): read the whole file
		// through the io.ReaderAt interface instead.
		data = make([]byte, size)
		if _, rerr := io.ReadFull(io.NewSectionReader(f, 0, int64(size)), data); rerr != nil {
			return nil, fmt.Errorf("store: open pack %s: %w", path, rerr)
		}
		unmap = nil
	}
	pr, err := parsePack(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, fmt.Errorf("store: open pack %s: %w", path, err)
	}
	pr.unmap = unmap
	return pr, nil
}

// parsePack validates the pack bytes and assembles the reader over
// them.
func parsePack(data []byte) (*PackReader, error) {
	if len(data) < packHeaderSize+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), packHeaderSize+checksumSize)
	}
	if !bytes.Equal(data[:8], []byte(packMagic)) {
		return nil, ErrBadMagic
	}
	version := binary.BigEndian.Uint32(data[8:12])
	if version != PackFormatVersion {
		return nil, fmt.Errorf("%w: pack v%d, reader v%d", ErrVersionMismatch, version, PackFormatVersion)
	}
	fpVersion := int(binary.BigEndian.Uint32(data[12:16]))
	if fpVersion != core.FingerprintVersion {
		return nil, fmt.Errorf("%w: pack fingerprint v%d, engine v%d", ErrVersionMismatch, fpVersion, core.FingerprintVersion)
	}
	// Checksum before geometry: any damaged byte past the version words
	// reports ErrChecksum, whatever field it landed in.
	sum := sha256.Sum256(data[:len(data)-checksumSize])
	if !bytes.Equal(sum[:], data[len(data)-checksumSize:]) {
		return nil, ErrChecksum
	}
	count := binary.BigEndian.Uint64(data[16:24])
	dataLen := binary.BigEndian.Uint64(data[24:32])
	body := uint64(len(data) - packHeaderSize - checksumSize)
	// Each term is checked individually before the sum so a forged
	// header cannot overflow it.
	if count > body/(packKeyLen+packEntrySize) || dataLen > body {
		return nil, fmt.Errorf("%w: section sizes exceed the %d-byte body", ErrTruncated, body)
	}
	if need := count*(packKeyLen+packEntrySize) + dataLen; need != body {
		return nil, fmt.Errorf("%w: sections promise %d body bytes, file has %d", ErrTruncated, need, body)
	}
	off := uint64(packHeaderSize)
	keys := data[off : off+count*packKeyLen]
	off += count * packKeyLen
	entries := data[off : off+count*packEntrySize]
	off += count * packEntrySize
	pr := &PackReader{data: data, count: int(count), keys: keys, entries: entries, payloads: data[off : off+dataLen]}
	pr.Source = pr.lookup
	// Bounds-check every entry once, so lookups can slice the data
	// section without rechecking, and check the key order binary search
	// relies on.
	for i := range pr.count {
		o := binary.BigEndian.Uint64(entries[i*packEntrySize:])
		l := binary.BigEndian.Uint64(entries[i*packEntrySize+8:])
		if o+l < o || o+l > dataLen {
			return nil, fmt.Errorf("%w: entry %d spans [%d, %d) of a %d-byte data section", ErrTruncated, i, o, o+l, dataLen)
		}
		if i > 0 && bytes.Compare(pr.key(i-1), pr.key(i)) >= 0 {
			return nil, fmt.Errorf("%w: key %d does not sort after key %d", ErrTruncated, i, i-1)
		}
	}
	return pr, nil
}

// key returns key i of the key table.
func (pr *PackReader) key(i int) []byte {
	return pr.keys[i*packKeyLen : (i+1)*packKeyLen]
}

// payload returns payload i of the data section, aliasing the file.
func (pr *PackReader) payload(i int) []byte {
	off := binary.BigEndian.Uint64(pr.entries[i*packEntrySize:])
	length := binary.BigEndian.Uint64(pr.entries[i*packEntrySize+8:])
	return pr.payloads[off : off+length]
}

// Close releases the reader; with an mmap backing it unmaps the file.
// Idempotent. Lookups racing or following Close return misses.
func (pr *PackReader) Close() error {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.closed {
		return nil
	}
	pr.closed = true
	if pr.unmap != nil {
		return pr.unmap()
	}
	return nil
}

// Len returns the number of records in the pack.
func (pr *PackReader) Len() int { return pr.count }

// lookup is the pack's Source: a copy of the payload stored
// under (kind, key). The copy is deliberate: returned payloads outlive
// the reader (a serve path may still be rendering after the engine —
// and the mapping — is closed), so nothing returned may alias the
// mmap. The error is always nil: the pack was validated in full at
// open.
func (pr *PackReader) lookup(kind Kind, key core.StableFingerprint) ([]byte, bool, error) {
	pr.mu.RLock()
	defer pr.mu.RUnlock()
	if pr.closed {
		return nil, false, nil
	}
	var kb [packKeyLen]byte
	kb[0] = byte(kind)
	copy(kb[1:], key[:])
	i, ok := sort.Find(pr.count, func(i int) int { return bytes.Compare(kb[:], pr.key(i)) })
	if !ok {
		return nil, false, nil
	}
	return bytes.Clone(pr.payload(i)), true, nil
}

// Walk visits every record in the pack in sorted key order. The payload
// slice passed to fn is a fresh copy per record.
func (pr *PackReader) Walk(fn func(kind Kind, key core.StableFingerprint, payload []byte) error) error {
	pr.mu.RLock()
	defer pr.mu.RUnlock()
	if pr.closed {
		return fmt.Errorf("store: walk on closed pack")
	}
	for i := range pr.count {
		kb := pr.key(i)
		var key core.StableFingerprint
		copy(key[:], kb[1:])
		if err := fn(Kind(kb[0]), key, bytes.Clone(pr.payload(i))); err != nil {
			return err
		}
	}
	return nil
}

// Unpack rematerializes every pack record as an object file in s, via
// the same framing and atomic commit as a directly-written record —
// which is what makes pack → unpack → pack round-trip bit-exactly. It
// returns the number of records written.
func Unpack(pr *PackReader, s *Store) (int, error) {
	n := 0
	err := pr.Walk(func(kind Kind, key core.StableFingerprint, payload []byte) error {
		if err := s.putRecord(kind, key, payload); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}
