package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// FormatVersion is the on-disk container version written into every
// record header. It versions the *container* (magic, header layout,
// checksum trailer); the *payload semantics* are versioned separately
// by core.FingerprintVersion, which is hashed into every object key.
// Readers reject records whose container version differs — there is no
// migration path, because every record is a cache entry that can be
// recomputed.
const FormatVersion = 1

// recordMagic opens every record file. Eight bytes, fixed.
const recordMagic = "PODC19RS"

// Kind tags the payload type of a record.
type Kind uint32

// Record kinds. The kind is both part of the record header and encoded
// in the object filename extension, so a reader never interprets a
// payload under the wrong schema even if a file is renamed.
const (
	// KindStep records one memoized speedup step: canonical input
	// problem → canonical compact-renamed derived problem.
	KindStep Kind = 1
	// KindTrajectory records one classified fixpoint trajectory
	// (a fixpoint.Result) under explicit budget parameters. No serve,
	// sweep or pack path writes or reads it any more — the rendered
	// record holds the same trajectory — and Pack leaves it out; the
	// kind stays registered so that older stores and packs still open.
	KindTrajectory Kind = 2
	// KindVerdict records one rendered oracle verdict (a decision or
	// conformance report) under explicit family/seed/round parameters.
	KindVerdict Kind = 3
	// KindRendered records the exact pre-rendered NDJSON response body
	// of one classified fixpoint query under explicit budget parameters,
	// so a warm hit serves cached bytes with zero marshaling.
	KindRendered Kind = 4
)

// kindExts names every record kind: its object filename extension,
// which is also its wire name in the cluster peer protocol.
var kindExts = map[Kind]string{
	KindStep:       "step",
	KindTrajectory: "traj",
	KindVerdict:    "verdict",
	KindRendered:   "rendered",
}

// Ext returns the kind's filename extension ("step", "traj",
// "verdict", "rendered"), also the kind's wire name in the cluster
// peer protocol.
func (k Kind) Ext() string {
	if ext, ok := kindExts[k]; ok {
		return ext
	}
	return fmt.Sprintf("kind%d", uint32(k))
}

// KindByExt resolves a filename extension (or peer-protocol kind name)
// back to its Kind. ok is false for unknown extensions.
func KindByExt(ext string) (Kind, bool) {
	for k, e := range kindExts {
		if e == ext {
			return k, true
		}
	}
	return 0, false
}

// Corruption sentinels. Every decode failure wraps exactly one of
// these, so callers can distinguish "stale format" from "damaged file"
// with errors.Is. The lookup helpers treat all of them as a cache miss;
// Get surfaces them for tools and tests.
var (
	// ErrBadMagic: the file does not start with the record magic.
	ErrBadMagic = errors.New("store: bad record magic")
	// ErrVersionMismatch: the container FormatVersion differs.
	ErrVersionMismatch = errors.New("store: record format version mismatch")
	// ErrKindMismatch: the header kind differs from the kind implied by
	// the object's location.
	ErrKindMismatch = errors.New("store: record kind mismatch")
	// ErrTruncated: the file is shorter than its header promises (or
	// carries trailing garbage). A pack whose sections do not fit
	// together, including a key table out of order, reports it too.
	ErrTruncated = errors.New("store: truncated record")
	// ErrChecksum: the SHA-256 trailer does not match the content.
	ErrChecksum = errors.New("store: record checksum mismatch")
)

// recordHeaderSize is magic + version + kind + payload length.
const recordHeaderSize = 8 + 4 + 4 + 8

// checksumSize is the SHA-256 trailer length.
const checksumSize = sha256.Size

// encodeRecord frames a payload: header, payload, SHA-256 trailer over
// everything preceding it.
func encodeRecord(kind Kind, payload []byte) []byte {
	buf := make([]byte, 0, recordHeaderSize+len(payload)+checksumSize)
	buf = append(buf, recordMagic...)
	buf = binary.BigEndian.AppendUint32(buf, FormatVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decodeRecord validates a framed record and returns its payload.
func decodeRecord(data []byte, wantKind Kind) ([]byte, error) {
	if len(data) < recordHeaderSize+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), recordHeaderSize+checksumSize)
	}
	if !bytes.Equal(data[:8], []byte(recordMagic)) {
		return nil, ErrBadMagic
	}
	version := binary.BigEndian.Uint32(data[8:12])
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: record v%d, reader v%d", ErrVersionMismatch, version, FormatVersion)
	}
	kind := Kind(binary.BigEndian.Uint32(data[12:16]))
	if kind != wantKind {
		return nil, fmt.Errorf("%w: record kind %d, want %d", ErrKindMismatch, kind, wantKind)
	}
	payloadLen := binary.BigEndian.Uint64(data[16:recordHeaderSize])
	total := recordHeaderSize + int(payloadLen) + checksumSize
	if payloadLen > uint64(len(data)) || len(data) != total {
		return nil, fmt.Errorf("%w: %d bytes, header promises %d", ErrTruncated, len(data), total)
	}
	body := data[:recordHeaderSize+int(payloadLen)]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[len(body):]) {
		return nil, ErrChecksum
	}
	return data[recordHeaderSize : recordHeaderSize+int(payloadLen)], nil
}

// Commit-protocol seams. Production always uses the real operations;
// durability tests swap these to inject failures at each point of the
// temp-file + fsync + rename + dirsync sequence and assert that no
// failure mode can leave a torn or half-committed file behind.
var (
	syncFile   = func(f *os.File) error { return f.Sync() }
	renameFile = os.Rename
	syncDir    = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		serr := d.Sync()
		cerr := d.Close()
		if serr != nil {
			return serr
		}
		return cerr
	}
)

// commitTemp finalizes a staged temp file into path: fsync the data,
// close, rename into place, then fsync the parent directory. The
// directory sync is what makes the commit durable, not merely atomic —
// rename(2) only updates the directory entry in memory, so without it a
// crash after a "successful" commit can roll the directory back to a
// state where the record never existed. Invariant: once commitTemp
// returns nil, the file survives a crash at any later point.
func commitTemp(tmp *os.File, path string) error {
	if err := syncFile(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := renameFile(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeAtomic commits data to path with the temp-file + fsync + rename
// + directory-sync protocol: concurrent readers observe either no file
// or a complete record, never a partial write, and a crash (kill -9
// included) cannot leave a torn record under the final name — nor roll
// back a commit that was already reported successful (see commitTemp).
// Concurrent writers of the same object race only on the rename; since
// all writers of one key produce identical bytes (results are
// deterministic), either winner is correct.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	return commitTemp(tmp, path)
}

// WriteFileAtomic commits data to path with the store's temp-file +
// fsync + rename + directory-sync protocol. Exported for callers whose
// output files need the same crash-safety contract as store records —
// cmd/sweep commits its report through it, so a kill mid-write can
// never leave a truncated report that looks complete.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, data)
}
