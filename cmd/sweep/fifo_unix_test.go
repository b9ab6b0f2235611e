//go:build unix

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestOutIntoFIFO: a FIFO at -out receives the report in place and is
// still a FIFO afterwards; the atomic commit would rename a regular
// file over it.
func TestOutIntoFIFO(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real subprocess")
	}
	bin := buildSweep(t)
	fifo := filepath.Join(t.TempDir(), "report.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	// A non-blocking reader opens without a writer, so the sweep's
	// open for writing does not block; the small report fits the pipe.
	fd, err := syscall.Open(fifo, syscall.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if out, err := exec.Command(bin, testArgs("-out", fifo)...).CombinedOutput(); err != nil {
		t.Fatalf("sweep: %v\n%s", err, out)
	}
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := syscall.Read(fd, buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if want := runSweep(t, testArgs()); !bytes.Equal(got, want) {
		t.Fatalf("FIFO received %d byte(s), want the %d-byte report", len(got), len(want))
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Fatalf("-out is no longer a FIFO: %v (%v)", fi.Mode(), err)
	}
}
