package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixpoint"
	"repro/internal/problems"
)

// shaOf re-seals a record trailer after a deliberate header mutation.
func shaOf(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:]
}

// putOneStep populates s with a single step record and returns its
// input and output problems.
func putOneStep(t *testing.T, s *Store) (in, out *core.Problem) {
	t.Helper()
	in = sinkless(t)
	derived, err := core.Speedup(in)
	if err != nil {
		t.Fatal(err)
	}
	out, _ = derived.RenameCompact()
	if err := s.PutStep(in, out, 0); err != nil {
		t.Fatal(err)
	}
	return in, out
}

// corrupt rewrites the single step record of s through fn.
func corrupt(t *testing.T, s *Store, fn func(data []byte) []byte) {
	t.Helper()
	path := stepObjectPath(t, s)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionTruncatedRecord(t *testing.T) {
	for _, cut := range []int{1, checksumSize, checksumSize + 3} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			s := openTemp(t)
			in, _ := putOneStep(t, s)
			corrupt(t, s, func(data []byte) []byte { return data[:len(data)-cut] })

			_, ok, err := s.GetStep(in, 0)
			if ok {
				t.Fatal("GetStep returned a hit from a truncated record")
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("err = %v, want ErrTruncated or ErrChecksum", err)
			}
			// The Memo adapter degrades to a miss, never an error.
			if _, ok := s.StepMemo(0).LookupStep(in); ok {
				t.Fatal("LookupStep returned a hit from a truncated record")
			}
		})
	}
	// Truncation below the header is its own code path.
	s := openTemp(t)
	in, _ := putOneStep(t, s)
	corrupt(t, s, func(data []byte) []byte { return data[:recordHeaderSize-1] })
	if _, ok, err := s.GetStep(in, 0); ok || !errors.Is(err, ErrTruncated) {
		t.Fatalf("GetStep on sub-header file = (_, %v, %v), want ErrTruncated", ok, err)
	}
}

func TestCorruptionBadChecksum(t *testing.T) {
	s := openTemp(t)
	in, _ := putOneStep(t, s)
	// Flip one payload byte; header and length stay plausible.
	corrupt(t, s, func(data []byte) []byte {
		data[recordHeaderSize] ^= 0x40
		return data
	})
	_, ok, err := s.GetStep(in, 0)
	if ok || !errors.Is(err, ErrChecksum) {
		t.Fatalf("GetStep = (_, %v, %v), want ErrChecksum", ok, err)
	}
	if _, ok := s.StepMemo(0).LookupStep(in); ok {
		t.Fatal("LookupStep returned a hit from a corrupted record")
	}
}

func TestCorruptionVersionMismatch(t *testing.T) {
	s := openTemp(t)
	in, _ := putOneStep(t, s)
	// A record from a future container version: bump the version field
	// and re-seal the checksum, as a newer writer would have.
	corrupt(t, s, func(data []byte) []byte {
		payload, err := decodeRecord(data, KindStep)
		if err != nil {
			t.Fatal(err)
		}
		future := encodeRecord(KindStep, payload)
		binary.BigEndian.PutUint32(future[8:12], FormatVersion+1)
		sum := shaOf(future[:len(future)-checksumSize])
		copy(future[len(future)-checksumSize:], sum)
		return future
	})
	_, ok, err := s.GetStep(in, 0)
	if ok || !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("GetStep = (_, %v, %v), want ErrVersionMismatch", ok, err)
	}
}

func TestCorruptionBadMagicAndKind(t *testing.T) {
	s := openTemp(t)
	in, _ := putOneStep(t, s)
	corrupt(t, s, func(data []byte) []byte {
		copy(data[:8], "NOTMAGIC")
		return data
	})
	if _, ok, err := s.GetStep(in, 0); ok || !errors.Is(err, ErrBadMagic) {
		t.Fatalf("GetStep = (_, %v, %v), want ErrBadMagic", ok, err)
	}

	// A rendered record renamed into a step object's place: kind
	// mismatch, not a misinterpreted payload.
	s2 := openTemp(t)
	in2, _ := putOneStep(t, s2)
	corrupt(t, s2, func(data []byte) []byte {
		payload, err := decodeRecord(data, KindStep)
		if err != nil {
			t.Fatal(err)
		}
		return encodeRecord(KindRendered, payload)
	})
	if _, ok, err := s2.GetStep(in2, 0); ok || !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("GetStep = (_, %v, %v), want ErrKindMismatch", ok, err)
	}
}

// TestConcurrentSweepWriters hammers one store directory from many
// goroutines doing exactly what concurrent sweep shards do — memoized
// fixpoint runs plus rendered checkpoints over the catalog — and
// verifies every record afterwards. Run under -race this is the
// reader/writer-safety lock for the whole package.
func TestConcurrentSweepWriters(t *testing.T) {
	s := openTemp(t)
	catalog := problems.Catalog()
	par := TrajectoryParams{MaxSteps: 2, MaxStates: 8_000}

	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stagger starting points so shards collide on every key.
			for i := 0; i < len(catalog); i++ {
				entry := catalog[(i+w)%len(catalog)]
				res, err := fixpoint.Run(entry.Problem, fixpoint.Options{
					MaxSteps: par.MaxSteps,
					Core:     []core.Option{core.WithMaxStates(par.MaxStates), core.WithWorkers(1)},
					Memo:     s.StepMemo(par.MaxStates),
				})
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", entry.Name, err)
					return
				}
				if err := s.PutRendered(entry.Problem, par, testBody(res)); err != nil {
					errs[w] = fmt.Errorf("%s: put: %w", entry.Name, err)
					return
				}
				if _, ok, err := s.GetRendered(entry.Problem, par); !ok || err != nil {
					errs[w] = fmt.Errorf("%s: readback: ok=%v err=%w", entry.Name, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}

	// Every record left behind decodes cleanly and holds the cold
	// run's body.
	for _, entry := range catalog {
		body, ok, err := s.GetRendered(entry.Problem, par)
		if !ok || err != nil {
			t.Fatalf("%s: final readback: ok=%v err=%v", entry.Name, ok, err)
		}
		cold, err := fixpoint.Run(entry.Problem, fixpoint.Options{
			MaxSteps: par.MaxSteps,
			Core:     []core.Option{core.WithMaxStates(par.MaxStates), core.WithWorkers(1)},
		})
		if err != nil {
			t.Fatalf("%s: cold: %v", entry.Name, err)
		}
		if !bytes.Equal(body, testBody(cold)) {
			t.Fatalf("%s: stored body %q, cold body %q", entry.Name, body, testBody(cold))
		}
	}
}
