package corpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/datagen"
	"mtmlf/internal/workload"
)

// durableDatabases is a small fleet exercising every section kind:
// one database with a single-table section and examples.
func durableDatabases(t testing.TB) []*Database {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 4, 4
	cfg.MinRows, cfg.MaxRows = 60, 100
	db := datagen.GenerateFleet(37, 1, cfg)[0]
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 3
	return []*Database{{
		DB:          db,
		SingleTable: singleTableSet(db, 38, 2),
		Examples:    workload.NewGeneratorFrom(catalog.NewMemory(db), 39).Generate(3, wcfg),
	}}
}

var durableMeta = Meta{Seed: 37, Note: "durability"}

// durableCorpusBytes is durableDatabases written to memory: header,
// schema, single-table, examples, footer.
func durableCorpusBytes(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf, durableMeta, durableDatabases(t)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openWalk opens a corpus from bytes and touches every lazily verified
// section: meta, every schema, every single-table section, and every
// example. It returns the first error, so a corruption anywhere in the
// file surfaces no matter which section it landed in.
func openWalk(data []byte) error {
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	for i := 0; i < r.NumDBs(); i++ {
		c, err := r.Catalog(i)
		if err != nil {
			return err
		}
		if _, _, err := c.SingleTable(); err != nil {
			return err
		}
		ex, err := r.Examples(i)
		if err != nil {
			return err
		}
		for j := 0; j < ex.Len(); j++ {
			if _, err := ex.Example(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestCorpusDetectsBitFlips: a single-bit flip anywhere in a
// corpus — header, any data section, footer, trailer — must fail Open
// or the walk with a *CorruptError. The full cross-product is fuzz
// territory (FuzzCorpusOpen); this sweeps every bit of the header
// region plus a stride across the rest.
func TestCorpusDetectsBitFlips(t *testing.T) {
	orig := durableCorpusBytes(t)
	if err := openWalk(orig); err != nil {
		t.Fatalf("pristine corpus does not walk: %v", err)
	}
	check := func(i, bit int) {
		mut := bytes.Clone(orig)
		mut[i] ^= 1 << bit
		err := openWalk(mut)
		var ce *ckptio.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip byte %d bit %d: got %v, want *ckptio.CorruptError", i, bit, err)
		}
	}
	for i := 0; i < 64 && i < len(orig); i++ {
		for bit := 0; bit < 8; bit++ {
			check(i, bit)
		}
	}
	stride := (len(orig) - 64) / 48
	if stride < 1 {
		stride = 1
	}
	for k, i := 0, 64; i < len(orig); k, i = k+1, i+stride {
		check(i, k%8)
	}
	// The trailer is structural, not checksummed: sweep all of it.
	for i := len(orig) - trailerSize; i < len(orig); i++ {
		for bit := 0; bit < 8; bit++ {
			check(i, bit)
		}
	}
}

// TestCorpusDetectsTruncation: every truncated prefix of a corpus
// fails with a *CorruptError — the torn-write shape a crash mid-copy
// produces (the writer itself commits atomically, see WriteFile).
func TestCorpusDetectsTruncation(t *testing.T) {
	orig := durableCorpusBytes(t)
	stride := (len(orig) - 64) / 48
	if stride < 1 {
		stride = 1
	}
	for n := 0; n < len(orig); n++ {
		if n >= 64 && (n-64)%stride != 0 {
			continue
		}
		err := openWalk(orig[:n])
		var ce *ckptio.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncate to %d bytes: got %v, want *ckptio.CorruptError", n, err)
		}
	}
}

// TestCorpusWriteThroughFailingWriter: a write cut at any byte
// fails with the injected error, at the call that hit it and at every
// later one, with no footer written after it; and WriteFile, whose
// body the cut runs under, leaves neither the target nor a temp file.
func TestCorpusWriteThroughFailingWriter(t *testing.T) {
	dbs := durableDatabases(t)
	full := durableCorpusBytes(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cut.mtc")
	for n := int64(0); n < int64(len(full)); n++ {
		err := ckptio.WriteFileAtomic(path, func(f io.Writer) error {
			return write(&ckptio.FailingWriter{W: f, FailAfter: n}, durableMeta, dbs)
		})
		if !errors.Is(err, ckptio.ErrInjected) {
			t.Fatalf("cut at %d of %d bytes: got %v, want the injected error", n, len(full), err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("cut at %d: %d files left behind, first %q", n, len(left), left[0].Name())
		}
	}
	if err := WriteFile(path, durableMeta, dbs); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("uncut WriteFile: %d bytes, err %v; want the %d bytes written to memory", len(got), err, len(full))
	}

	// Sticky: a writer whose bytes stop landing keeps refusing, and its
	// Close writes nothing more.
	var sink bytes.Buffer
	fw := &ckptio.FailingWriter{W: &sink, FailAfter: 10}
	w, err := NewWriter(fw, durableMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginDB(dbs[0].DB); err != nil {
		t.Fatal(err) // still buffered
	}
	var first error
	for _, lq := range slices.Repeat(dbs[0].Examples, 200) { // past the buffer
		if first = w.AppendExample(lq); first != nil {
			break
		}
	}
	if !errors.Is(first, ckptio.ErrInjected) {
		t.Fatalf("appending past the buffer: got %v, want the injected error", first)
	}
	landed := sink.Len()
	for _, err := range []error{
		w.BeginDB(dbs[0].DB),
		w.WriteSingleTable(dbs[0].SingleTable),
		w.AppendExample(dbs[0].Examples[0]),
		w.Close(),
		w.Close(),
	} {
		if err != first {
			t.Fatalf("call after the failure returned %v, want the first error %v", err, first)
		}
	}
	if sink.Len() != landed {
		t.Fatalf("%d more bytes written after the failure", sink.Len()-landed)
	}
}

// TestOpenRefusesOldVersions: a file of an older format (the gob-based
// v1–v3, or v4 with its shard size) fails Open with a
// *ckptio.CorruptError, as any file this build cannot read does. No
// writer for them remains, so the files are built by hand. v1–v3 end in
// trailer magics of their own and fail at the trailer. A v4 file shares
// v5's trailer and is otherwise valid, so only its checksummed header
// version refuses it, and the message names the version and the remedy.
func TestOpenRefusesOldVersions(t *testing.T) {
	legacy := func(head string, trailer []byte) []byte {
		return append(append([]byte("\x29\x7f\x03\x01\x01\x06header"), head...), trailer...)
	}
	v1Trailer := append(make([]byte, 8), "MTCORPV1"...)
	v3Trailer := append(make([]byte, 16), "MTCORPV3"...)
	// v4's header is v5's with version 4 and a shard size after the seed.
	cur := appendHeader(nil, &durableMeta)
	seedEnd := preambleSize + len(ckptio.AppendInt(nil, durableMeta.Seed))
	v4 := binary.BigEndian.AppendUint16([]byte(Magic), 4)
	v4 = append(ckptio.AppendInt(append(v4, cur[preambleSize:seedEnd]...), 16), cur[seedEnd:]...)
	footerOff := len(v4)
	v4 = appendFooter(v4, &footer{HeaderEnd: int64(footerOff), HeaderCRC: ckptio.Checksum(v4)})
	footerCRC := ckptio.Checksum(v4[footerOff:])
	v4 = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(v4, uint64(footerOff)), footerCRC)
	v4 = append(append(v4, 0, 0, 0, 0), trailerMagic...)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"v1", legacy("\x01\x0c"+Magic+"\x01\x02\x00", v1Trailer), `bad trailer magic "MTCORPV1"`},
		{"v2", legacy("\x01\x0c"+Magic+"\x01\x04\x00", v1Trailer), `bad trailer magic "MTCORPV1"`},
		{"v1 trailer, no header", v1Trailer, `bad trailer magic "MTCORPV1"`},
		{"v3", legacy("\x01\x0c"+Magic+"\x01\x06\x00", v3Trailer), `bad trailer magic "MTCORPV3"`},
		{"v4", v4, "unsupported corpus version 4 — regenerate with mtmlf-datagen"},
	} {
		_, err := NewReader(bytes.NewReader(tc.data), int64(len(tc.data)))
		var ce *ckptio.CorruptError
		if !errors.As(err, &ce) || ce.Artifact != "corpus" || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want a corpus *ckptio.CorruptError saying %q", tc.name, err, tc.want)
		}
	}
}
