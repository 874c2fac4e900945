package ckptio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestSectionRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteSection(&buf, p); err != nil {
			t.Fatalf("WriteSection: %v", err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range payloads {
		got, err := ReadSection(r, "test")
		if err != nil {
			t.Fatalf("ReadSection %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("section %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := ReadSection(r, "test"); err == nil {
		t.Fatal("ReadSection past the end should fail")
	}
}

// Every single-bit flip of a framed section must fail the read with a
// *CorruptError — the acceptance property the checkpoint and corpus
// formats inherit from this frame.
func TestSectionDetectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSection(&buf, []byte("durable training artifact")); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(orig)
			mut[i] ^= 1 << bit
			_, err := ReadSection(bytes.NewReader(mut), "test")
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip byte %d bit %d: got %v, want *CorruptError", i, bit, err)
			}
		}
	}
}

// Every truncation must fail too, including cutting inside the
// trailing checksum.
func TestSectionDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSection(&buf, []byte("truncate me")); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for n := 0; n < len(orig); n++ {
		_, err := ReadSection(bytes.NewReader(orig[:n]), "test")
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncate to %d bytes: got %v, want *CorruptError", n, err)
		}
	}
}

func TestSectionRejectsHugeLength(t *testing.T) {
	// A frame whose length field claims 2^40 bytes: must be rejected
	// before any allocation of that size.
	frame := make([]byte, 8)
	frame[2] = 1 // big-endian 2^40
	_, err := ReadSection(bytes.NewReader(frame), "test")
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
}

// A length just under the cap with nothing behind it must fail at EOF
// having allocated next to nothing: the buffer grows with the bytes
// that arrive, not with the length declared.
func TestSectionLengthDoesNotSizeTheRead(t *testing.T) {
	frame := make([]byte, 8, 8+100)
	frame[4] = 0x3f // big-endian 0x3f000000: 1 GiB minus a little
	frame = append(frame, bytes.Repeat([]byte{7}, 100)...)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := ReadSection(bytes.NewReader(frame), "test")
	runtime.ReadMemStats(&m1)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<16 {
		t.Fatalf("a 108-byte stream declaring 1 GiB allocated %d bytes", grew)
	}
}

// SealSection lays down the bytes WriteSection writes, and
// ReadSectionInto reads them back into the buffer it is given: a
// caller that hands the payload back as the next buffer reads
// same-sized frames without allocating, a larger frame grows the
// buffer, and the checks of ReadSection all still apply.
func TestSealAndReadInto(t *testing.T) {
	payloads := [][]byte{bytes.Repeat([]byte{1}, 5000), bytes.Repeat([]byte{2}, 5000), []byte("small"), bytes.Repeat([]byte{3}, 70000), {}}
	var want, sealed bytes.Buffer
	for _, p := range payloads {
		if err := WriteSection(&want, p); err != nil {
			t.Fatal(err)
		}
		sealed.Write(SealSection(append(NewSection(nil, len(p)), p...)))
	}
	if !bytes.Equal(want.Bytes(), sealed.Bytes()) {
		t.Fatal("SealSection and WriteSection lay down different bytes")
	}
	r := bytes.NewReader(sealed.Bytes())
	var buf []byte
	for i, p := range payloads {
		before := cap(buf)
		got, err := ReadSectionInto(r, "test", buf)
		if err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("section %d: got %d bytes, want %d", i, len(got), len(p))
		}
		if fits := SectionLen(len(p)) <= before; fits && cap(got) != before {
			t.Fatalf("section %d fits the %d-byte buffer it was given but was read into another", i, before)
		}
		buf = got
	}
	reader := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(10, func() {
		reader.Reset(sealed.Bytes())
		if _, err := ReadSectionInto(reader, "test", buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reading into a buffer that fits allocated %v times", allocs)
	}
	flipped := bytes.Clone(sealed.Bytes())
	flipped[20] ^= 1
	var ce *CorruptError
	if _, err := ReadSectionInto(bytes.NewReader(flipped), "test", buf); !errors.As(err, &ce) {
		t.Fatalf("flipped payload bit: got %v, want *CorruptError", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing producer must leave the old file untouched and no temp
	// litter.
	wantErr := errors.New("producer failed")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, _ = w.Write([]byte("partial"))
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want producer error", err)
	}
	assertFile(t, path, "old")
	assertNoTemp(t, path)
	// A successful producer replaces it.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	assertFile(t, path, "new")
	assertNoTemp(t, path)
}

// A FailingWriter under WriteSection models a full disk / torn stream:
// whatever prefix lands must fail the read as corrupt.
func TestFailingWriterTornSection(t *testing.T) {
	full := &bytes.Buffer{}
	if err := WriteSection(full, []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut < int64(full.Len()); cut += 3 {
		var torn bytes.Buffer
		fw := &FailingWriter{W: &torn, FailAfter: cut}
		if err := WriteSection(fw, []byte("some payload bytes")); err == nil {
			t.Fatalf("cut at %d: write should have failed", cut)
		}
		if int64(torn.Len()) != cut {
			t.Fatalf("cut at %d: %d bytes reached the writer", cut, torn.Len())
		}
		_, err := ReadSection(bytes.NewReader(torn.Bytes()), "test")
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("cut at %d: got %v, want *CorruptError", cut, err)
		}
	}
}

// Crashing at each commit point must leave either the old artifact or
// the new one at the destination — never a torn file.
func TestCommitCrashPoints(t *testing.T) {
	defer func() { CrashPoint = nil }()
	for _, point := range []string{CrashBeforeSync, CrashBeforeRename, CrashAfterRename} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "artifact")
			if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			crashErr := fmt.Errorf("crash at %s", point)
			CrashPoint = func(p string) error {
				if p == point {
					return crashErr
				}
				return nil
			}
			err := WriteFileAtomic(path, func(w io.Writer) error {
				_, err := w.Write([]byte("new"))
				return err
			})
			CrashPoint = nil
			if !errors.Is(err, crashErr) {
				t.Fatalf("got %v, want crash error", err)
			}
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("destination unreadable after crash: %v", rerr)
			}
			want := "old"
			if point == CrashAfterRename {
				want = "new"
			}
			if string(got) != want {
				t.Fatalf("after crash at %s destination holds %q, want %q", point, got, want)
			}
		})
	}
}

func assertFile(t *testing.T, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s holds %q, want %q", path, got, want)
	}
}

func assertNoTemp(t *testing.T, path string) {
	t.Helper()
	matches, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp litter left behind: %v", matches)
	}
}

// ReadSectionSized refuses a frame of any other length from its header
// alone — typed, with no payload byte read — and otherwise is
// ReadSectionInto.
func TestReadSectionSized(t *testing.T) {
	frame := SealSection(append(NewSection(nil, 100), bytes.Repeat([]byte{9}, 100)...))
	got, err := ReadSectionSized(bytes.NewReader(frame), "test", nil, 100)
	if err != nil || !bytes.Equal(got, frame[8:108]) {
		t.Fatalf("exact length: %d bytes, err %v", len(got), err)
	}
	for _, want := range []int{0, 99, 101} {
		r := bytes.NewReader(frame)
		_, err := ReadSectionSized(r, "test", nil, want)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("want %d: got %v, want *CorruptError", want, err)
		}
		if read := len(frame) - r.Len(); read != 8 {
			t.Fatalf("want %d: refused after reading %d bytes, want the 8-byte header only", want, read)
		}
	}
}
