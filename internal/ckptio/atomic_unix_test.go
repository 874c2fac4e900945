//go:build unix

package ckptio

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestRefusesNonRegularDestination: an existing destination that is not
// a regular file — a FIFO, a symlink (to a regular file or dangling), a
// directory — is refused by Probe and by WriteFileAtomic with an error
// naming it, and left exactly as it was, with no temp file beside it.
func TestRefusesNonRegularDestination(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	if err := os.WriteFile(target, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	fifo, link, dangling, sub := filepath.Join(dir, "fifo"), filepath.Join(dir, "link"), filepath.Join(dir, "dangling"), filepath.Join(dir, "sub")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "nowhere"), dangling); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{fifo, link, dangling, sub} {
		before, err := os.Lstat(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, err := range map[string]error{
			"Probe":           Probe(path),
			"WriteFileAtomic": WriteFileAtomic(path, func(w io.Writer) error { _, err := w.Write([]byte("x")); return err }),
		} {
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("%s(%s) = %v, want a refusal naming the path", name, filepath.Base(path), err)
			}
		}
		after, err := os.Lstat(path)
		if err != nil || after.Mode() != before.Mode() || !os.SameFile(before, after) {
			t.Fatalf("%s changed: %v -> %v (%v)", filepath.Base(path), before.Mode(), after, err)
		}
	}
	if got, _ := os.ReadFile(target); string(got) != "kept" {
		t.Fatalf("the symlink's target now holds %q", got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
		t.Fatalf("refusals left temp files %v", left)
	}
}
