package corpus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
	"mtmlf/internal/workload"
)

// Reader is seekable read access to a corpus file. Opening validates
// the header, trailer, and the whole index (see validateIndex), so a
// structurally corrupt file fails at Open with a *CorruptError; table
// data and examples are decoded on demand. All methods are safe for
// concurrent use — example reads go through ReadAt, so any number of
// training workers can stream from one Reader.
type Reader struct {
	ra    io.ReaderAt
	meta  Meta
	index []dbIndex
	cats  []*DBCatalog

	closer io.Closer // set when Open owns the file
}

// Open opens a corpus file for reading.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader opens a corpus from any io.ReaderAt of known size (an
// os.File, a bytes.Reader, an mmap). A file of an older format fails
// with a *VersionError, a damaged one with a *CorruptError.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	// The last 8 bytes name the format.
	if size < 8 {
		return nil, corruptf("file too small (%d bytes)", size)
	}
	var tmagic [8]byte
	if _, err := ra.ReadAt(tmagic[:], size-8); err != nil {
		return nil, fmt.Errorf("corpus: read trailer: %w", err)
	}
	switch string(tmagic[:]) {
	case trailerMagic:
	case legacyTrailerV1:
		return nil, &VersionError{Version: legacyVersion(ra)}
	case legacyTrailerV3:
		return nil, &VersionError{Version: 3}
	default:
		return nil, corruptf("bad trailer magic %q (truncated, foreign, or newer file?)", tmagic[:])
	}
	if size < trailerSize {
		return nil, corruptf("file too small for a trailer (%d bytes)", size)
	}
	var trailer [trailerSize]byte
	if _, err := ra.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("corpus: read trailer: %w", err)
	}
	for _, b := range trailer[12:16] {
		if b != 0 {
			return nil, corruptf("reserved trailer bytes are not zero")
		}
	}
	footerOff := int64(binary.BigEndian.Uint64(trailer[:8]))
	dataEnd := size - trailerSize
	if footerOff < 0 || footerOff >= dataEnd {
		return nil, corruptf("footer offset %d outside file of %d bytes", footerOff, size)
	}
	// Verify the footer checksum before trusting any offset in it.
	var ft footer
	fb, err := readSection(ra, footerOff, dataEnd, binary.BigEndian.Uint32(trailer[8:12]))
	if err == nil {
		err = decodeFooter(fb, &ft)
	}
	if err != nil {
		return nil, corruptf("footer: %v", err)
	}
	// The header is checksum-verified before it is decoded, so a flip in
	// (say) the version field reads as corruption, not as another
	// version.
	if ft.HeaderEnd <= 0 || ft.HeaderEnd > footerOff {
		return nil, corruptf("header end %d outside data region (0, %d]", ft.HeaderEnd, footerOff)
	}
	var meta Meta
	hb, err := readSection(ra, 0, ft.HeaderEnd, ft.HeaderCRC)
	if err == nil {
		meta, err = decodeHeader(hb)
	}
	var verr *VersionError
	if errors.As(err, &verr) {
		return nil, err
	}
	if err != nil {
		return nil, corruptf("header: %v", err)
	}
	if err := validateIndex(ft.DBs, footerOff); err != nil {
		return nil, err
	}
	r := &Reader{ra: ra, meta: meta, index: ft.DBs, cats: make([]*DBCatalog, len(ft.DBs))}
	for i := range r.cats {
		r.cats[i] = &DBCatalog{r: r, idx: i}
	}
	return r, nil
}

// legacyVersion tells v1 from v2 in a file closed by the trailer they
// share. Their gob header holds the magic string followed by the
// version field: a field delta of 1, then the version doubled (gob's
// encoding of a small int).
func legacyVersion(ra io.ReaderAt) int {
	head := make([]byte, 128)
	n, _ := ra.ReadAt(head, 0)
	head = head[:n]
	if i := bytes.Index(head, []byte(Magic+"\x01")); i >= 0 && i+len(Magic)+1 < n {
		if v := head[i+len(Magic)+1]; v == 2 || v == 4 {
			return int(v / 2)
		}
	}
	return 1
}

// validateIndex checks every structural invariant of the footer index
// before any section is decoded: database ranges are in file order and
// inside the data region (before the footer), section order inside a
// database is schema < single-table < examples, and example offsets
// are strictly increasing inside [Off, End). A violated invariant
// means the file is corrupt (torn write, bit rot, hostile input); it
// fails here with a *CorruptError instead of panicking later when
// DBCatalog.DB or ExampleSet.Example slices a bogus byte range.
func validateIndex(dbs []dbIndex, footerOff int64) error {
	prevEnd := int64(0)
	for i := range dbs {
		d := &dbs[i]
		if d.Off <= 0 || d.End <= d.Off || d.End > footerOff {
			return corruptf("database %d (%q): range [%d, %d) outside data region (0, %d]",
				i, d.Name, d.Off, d.End, footerOff)
		}
		if d.Off < prevEnd {
			return corruptf("database %d (%q): offset %d overlaps previous database ending at %d",
				i, d.Name, d.Off, prevEnd)
		}
		prevEnd = d.End
		if d.SingleOff != 0 && (d.SingleOff <= d.Off || d.SingleOff >= d.singleEnd()) {
			return corruptf("database %d (%q): single-table offset %d outside (%d, %d)",
				i, d.Name, d.SingleOff, d.Off, d.singleEnd())
		}
		lo := d.Off
		if d.SingleOff > 0 {
			lo = d.SingleOff
		}
		for j, off := range d.ExampleOffs {
			if off <= lo || off >= d.End {
				return corruptf("database %d (%q): example %d offset %d outside (%d, %d)",
					i, d.Name, j, off, lo, d.End)
			}
			lo = off
		}
	}
	return nil
}

// Close releases the underlying file when the reader owns one (Open).
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// Meta returns the corpus provenance record.
func (r *Reader) Meta() Meta { return r.meta }

// Version returns the file's format version, which is Version: Open
// refuses every other.
func (r *Reader) Version() int { return Version }

// NumDBs returns the number of databases in the corpus.
func (r *Reader) NumDBs() int { return len(r.index) }

// Names returns the database names in file order.
func (r *Reader) Names() []string {
	out := make([]string, len(r.index))
	for i, d := range r.index {
		out[i] = d.Name
	}
	return out
}

// Catalog returns the i-th database as a catalog.Catalog. The schema
// and columnar data are decoded on first use and cached; statistics
// are computed on first use.
func (r *Reader) Catalog(i int) (*DBCatalog, error) {
	if i < 0 || i >= len(r.index) {
		return nil, fmt.Errorf("corpus: database %d outside [0, %d)", i, len(r.index))
	}
	c := r.cats[i]
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// CatalogByName returns the named database's catalog.
func (r *Reader) CatalogByName(name string) (*DBCatalog, error) {
	for i, d := range r.index {
		if d.Name == name {
			return r.Catalog(i)
		}
	}
	return nil, fmt.Errorf("corpus: no database %q (have %v)", name, r.Names())
}

// Examples returns the i-th database's labeled workload as a
// streaming workload.Source: each access decodes one example straight
// from disk, so epochs never materialize the corpus.
func (r *Reader) Examples(i int) (*ExampleSet, error) {
	if i < 0 || i >= len(r.index) {
		return nil, fmt.Errorf("corpus: database %d outside [0, %d)", i, len(r.index))
	}
	return &ExampleSet{r: r, d: &r.index[i]}, nil
}

// readSection returns the bytes of [off, end) once their CRC32C is
// want. This is the lazy half of the integrity contract: the index is
// verified at Open, each data section on first decode. Its errors name
// no section; the caller adds that, on failure only.
func readSection(ra io.ReaderAt, off, end int64, want uint32) ([]byte, error) {
	buf := make([]byte, end-off)
	if _, err := ra.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("read: %v", err)
	}
	if got := ckptio.Checksum(buf); got != want {
		return nil, fmt.Errorf("checksum mismatch: stored %08x, computed %08x", want, got)
	}
	return buf, nil
}

// DBCatalog is one corpus database behind the catalog.Catalog
// interface: the on-disk backend's answer to catalog.Memory.
type DBCatalog struct {
	r   *Reader
	idx int

	dbOnce sync.Once
	db     *sqldb.DB
	dbErr  error

	stOnce sync.Once
	st     *stats.DBStats
}

var _ catalog.Catalog = (*DBCatalog)(nil)

// load decodes and caches the schema + columnar data.
func (c *DBCatalog) load() error {
	c.dbOnce.Do(func() {
		d := &c.r.index[c.idx]
		var rec dbRecord
		b, err := readSection(c.r.ra, d.Off, d.schemaEnd(), d.SchemaCRC)
		if err == nil {
			err = decodeSchema(b, &rec)
		}
		if err != nil {
			c.dbErr = corruptf("schema of %q: %v", d.Name, err)
			return
		}
		c.db, c.dbErr = fromRecord(rec)
	})
	return c.dbErr
}

// Name implements catalog.Catalog.
func (c *DBCatalog) Name() string { return c.r.index[c.idx].Name }

// DB implements catalog.Catalog. Catalogs are handed out by
// Reader.Catalog, which fails on decode errors, so DB never returns
// nil on a loaded catalog; and NewReader validates every byte range
// in the index up front, so a corrupt file fails at Open rather than
// reaching this panic.
func (c *DBCatalog) DB() *sqldb.DB {
	if err := c.load(); err != nil {
		panic(err)
	}
	return c.db
}

// Stats implements catalog.Catalog, re-running ANALYZE over the
// reloaded columns. The columns round-trip bitwise, so these
// statistics equal the ones the in-memory backend computed at
// generation time.
func (c *DBCatalog) Stats() *stats.DBStats {
	c.stOnce.Do(func() { c.st = stats.Analyze(c.DB()) })
	return c.st
}

// Examples returns this database's workload source.
func (c *DBCatalog) Examples() *ExampleSet {
	return &ExampleSet{r: c.r, d: &c.r.index[c.idx]}
}

// SingleTable returns this database's cached encoder pre-training
// workloads (the single-table section). ok is false when the database
// was written without the section — consumers then fall back to
// generating the data live (featurize.PretrainAll).
func (c *DBCatalog) SingleTable() (data []workload.TableWorkload, ok bool, err error) {
	d := &c.r.index[c.idx]
	if d.SingleOff == 0 {
		return nil, false, nil
	}
	b, err := readSection(c.r.ra, d.SingleOff, d.singleEnd(), d.SingleCRC)
	if err == nil {
		data, err = decodeSingleTable(b)
	}
	if err != nil {
		return nil, false, corruptf("single-table section of %q: %v", d.Name, err)
	}
	return data, true, nil
}

// ExampleSet is one database's pre-labeled workload, streamed from
// disk. It implements workload.Source; Example is safe for any number
// of concurrent callers (reads go through ReadAt with no shared
// cursor) and always decodes the same bits for the same index.
type ExampleSet struct {
	r *Reader
	d *dbIndex
}

var _ workload.Source = (*ExampleSet)(nil)

// Len implements workload.Source.
func (s *ExampleSet) Len() int { return len(s.d.ExampleOffs) }

// Example implements workload.Source, decoding example i from its
// recorded byte range.
func (s *ExampleSet) Example(i int) (*workload.LabeledQuery, error) {
	if i < 0 || i >= len(s.d.ExampleOffs) {
		return nil, fmt.Errorf("corpus: example %d outside [0, %d) of %q", i, len(s.d.ExampleOffs), s.d.Name)
	}
	end := s.d.End
	if i+1 < len(s.d.ExampleOffs) {
		end = s.d.ExampleOffs[i+1]
	}
	lq := new(workload.LabeledQuery)
	b, err := readSection(s.r.ra, s.d.ExampleOffs[i], end, s.d.ExampleCRCs[i])
	if err == nil {
		err = decodeExample(b, lq)
	}
	if err != nil {
		return nil, corruptf("example %d of %q: %v", i, s.d.Name, err)
	}
	return lq, nil
}
