package ckptio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Commit points, in order. The CrashPoint hook fires at each so tests
// can stop a commit mid-flight and inspect the on-disk state a real
// crash at that instant would have left.
const (
	// CrashBeforeSync fires after the payload is written, before the
	// temp file is fsynced.
	CrashBeforeSync = "before-sync"
	// CrashBeforeRename fires after fsync, before the rename that
	// publishes the file.
	CrashBeforeRename = "before-rename"
	// CrashAfterRename fires after the rename, before the directory
	// fsync that makes it durable.
	CrashAfterRename = "after-rename"
)

// CrashPoint, when non-nil, is called at each commit point with the
// point's name. A non-nil return makes Commit stop in place — no
// cleanup, exactly like a process death there — and return the error.
// Test-only; production leaves it nil.
var CrashPoint func(point string) error

func crash(point string) error {
	if CrashPoint == nil {
		return nil
	}
	return CrashPoint(point)
}

// AtomicFile writes a file so that the destination path only ever
// holds a complete artifact: bytes go to a temp file in the same
// directory, and Commit publishes them with fsync + rename +
// directory fsync. Abandoning (Abort, or a crash) leaves the previous
// file untouched.
type AtomicFile struct {
	f         *os.File
	path      string
	committed bool
}

// NewAtomicFile starts an atomic write of path. A destination that
// exists and is not a regular file — a device node, a FIFO, a
// directory, a symlink — is refused with an error naming it: Commit's
// rename would put a regular file in its place.
func NewAtomicFile(path string) (*AtomicFile, error) {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("ckptio: %s is not a regular file (mode %v), and writing it would replace it", path, fi.Mode().Type())
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Probe creates and removes the temp file NewAtomicFile(path) would, so
// a run can refuse an unwritable output before its work, not after it.
func Probe(path string) error {
	a, err := NewAtomicFile(path)
	if err == nil {
		a.Abort()
	}
	return err
}

// Write appends to the pending file.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit makes the pending bytes durable and publishes them at the
// destination path in one atomic step.
func (a *AtomicFile) Commit() error {
	if a.committed {
		return fmt.Errorf("ckptio: %s already committed", a.path)
	}
	if err := crash(CrashBeforeSync); err != nil {
		return err
	}
	if err := a.f.Sync(); err != nil {
		a.Abort()
		return fmt.Errorf("ckptio: sync %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		a.Abort()
		return fmt.Errorf("ckptio: close %s: %w", a.path, err)
	}
	if err := crash(CrashBeforeRename); err != nil {
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		a.Abort()
		return err
	}
	a.committed = true
	if err := crash(CrashAfterRename); err != nil {
		return err
	}
	// Rename is atomic, but only the directory fsync makes it durable:
	// without it a power cut can roll the directory entry back to the
	// old file. Some filesystems reject directory syncs; that is not a
	// torn write, so it is not fatal.
	if dir, err := os.Open(filepath.Dir(a.path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// Abort discards the pending write (no-op after Commit).
func (a *AtomicFile) Abort() {
	if a.committed {
		return
	}
	_ = a.f.Close()
	_ = os.Remove(a.f.Name())
}

// WriteFileAtomic writes path via write(w) under AtomicFile: the
// destination is untouched unless write succeeds and the commit
// completes.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	a, err := NewAtomicFile(path)
	if err != nil {
		return err
	}
	if err := write(a); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}
