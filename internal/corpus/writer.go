package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// Writer streams a corpus to an io.Writer: header, then for each
// database a schema section followed by any number of example
// sections, then the index footer and trailer on Close. Appending is
// sequential (one goroutine); generation can still be parallel —
// produce databases concurrently, append them in order.
//
// The first failed write sticks: that call and every later one,
// Close included, return its error, and no footer is written.
type Writer struct {
	bw     *bufio.Writer
	n      int64  // bytes written: the offset of the next section
	buf    []byte // the section being encoded, reused
	dbs    []dbIndex
	open   bool
	closed bool
	err    error

	// headerEnd/headerCRC delimit and checksum the header section.
	headerEnd int64
	headerCRC uint32
}

// NewWriter writes the header and returns a corpus writer. The caller
// owns the underlying writer (Close does not close it).
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	out := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	out.buf = appendHeader(out.buf, &meta)
	crc, err := out.put()
	if err != nil {
		return nil, err
	}
	out.headerEnd, out.headerCRC = out.n, crc
	return out, nil
}

// put appends the section encoded in w.buf and returns its CRC32C.
func (w *Writer) put() (uint32, error) {
	if _, err := w.bw.Write(w.buf); err != nil {
		w.err = fmt.Errorf("corpus: write: %w", err)
		return 0, w.err
	}
	w.n += int64(len(w.buf))
	return ckptio.Checksum(w.buf), nil
}

// usable returns the sticky write error, or an error when the writer
// is closed.
func (w *Writer) usable() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("corpus: writer closed")
	}
	return nil
}

// BeginDB starts a new database section, writing its schema and
// columnar data. Examples appended afterwards belong to it.
func (w *Writer) BeginDB(db *sqldb.DB) error {
	if err := w.usable(); err != nil {
		return err
	}
	w.endDB()
	rec := toRecord(db)
	w.buf = appendSchema(w.buf[:0], &rec)
	off := w.n
	crc, err := w.put()
	if err != nil {
		return err
	}
	w.dbs = append(w.dbs, dbIndex{Name: db.Name, Off: off, SchemaCRC: crc})
	w.open = true
	return nil
}

// WriteSingleTable writes the current database's single-table
// pre-training section: the per-table encoder workloads a training run
// pre-trains the database's (F) module on (mtmlf.Attach). It must be
// called after BeginDB and before the database's first AppendExample,
// at most once per database.
func (w *Writer) WriteSingleTable(data []workload.TableWorkload) error {
	if err := w.usable(); err != nil {
		return err
	}
	if !w.open {
		return errors.New("corpus: WriteSingleTable before BeginDB")
	}
	d := &w.dbs[len(w.dbs)-1]
	if len(d.ExampleOffs) > 0 {
		return fmt.Errorf("corpus: WriteSingleTable after AppendExample for %q", d.Name)
	}
	if d.SingleOff > 0 {
		return fmt.Errorf("corpus: duplicate single-table section for %q", d.Name)
	}
	w.buf = appendSingleTable(w.buf[:0], data)
	off := w.n
	crc, err := w.put()
	if err != nil {
		return err
	}
	d.SingleOff, d.SingleCRC = off, crc
	return nil
}

// AppendExample appends one labeled example to the current database.
func (w *Writer) AppendExample(lq *workload.LabeledQuery) error {
	if err := w.usable(); err != nil {
		return err
	}
	if !w.open {
		return errors.New("corpus: AppendExample before BeginDB")
	}
	w.buf = appendExample(w.buf[:0], lq)
	off := w.n
	crc, err := w.put()
	if err != nil {
		return err
	}
	d := &w.dbs[len(w.dbs)-1]
	d.ExampleOffs = append(d.ExampleOffs, off)
	d.ExampleCRCs = append(d.ExampleCRCs, crc)
	return nil
}

// endDB seals the in-progress database index entry.
func (w *Writer) endDB() {
	if w.open {
		w.dbs[len(w.dbs)-1].End = w.n
		w.open = false
	}
}

// Close writes the footer index and trailer and flushes. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.closed || w.err != nil {
		w.closed = true
		return w.err
	}
	w.closed = true
	w.endDB()
	footerOff := w.n
	w.buf = appendFooter(w.buf[:0], &footer{DBs: w.dbs, HeaderEnd: w.headerEnd, HeaderCRC: w.headerCRC})
	footerCRC, err := w.put()
	if err != nil {
		return err
	}
	var trailer [trailerSize]byte
	binary.BigEndian.PutUint64(trailer[:8], uint64(footerOff))
	binary.BigEndian.PutUint32(trailer[8:12], footerCRC)
	copy(trailer[16:], trailerMagic)
	w.buf = append(w.buf[:0], trailer[:]...)
	if _, err := w.put(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("corpus: write: %w", err)
	}
	return w.err
}

// Database pairs one database with its labeled workload (and,
// optionally, its single-table pre-training section), for the
// convenience writer.
type Database struct {
	DB       *sqldb.DB
	Examples []*workload.LabeledQuery
	// SingleTable, when non-nil, is written as the database's
	// single-table section.
	SingleTable []workload.TableWorkload
}

// WriteFile writes a whole corpus to path in one call. The write is
// atomic (temp file + fsync + rename): a crash mid-write leaves the
// previous corpus, or nothing — never a torn file.
func WriteFile(path string, meta Meta, dbs []*Database) error {
	return ckptio.WriteFileAtomic(path, func(f io.Writer) error { return write(f, meta, dbs) })
}

// InMemory writes a whole corpus into a byte slice and opens it: the
// data plane's in-memory backend. A run that generates its data on the
// fly trains from the returned Reader exactly as a run from the file
// WriteFile would write, bit for bit.
func InMemory(meta Meta, dbs []*Database) (*Reader, error) {
	var b bytes.Buffer
	if err := write(&b, meta, dbs); err != nil {
		return nil, err
	}
	return NewReader(bytes.NewReader(b.Bytes()), int64(b.Len()))
}

// write streams a whole corpus to f.
func write(f io.Writer, meta Meta, dbs []*Database) error {
	w, err := NewWriter(f, meta)
	if err != nil {
		return err
	}
	for _, d := range dbs {
		if err := w.BeginDB(d.DB); err != nil {
			return err
		}
		if d.SingleTable != nil {
			if err := w.WriteSingleTable(d.SingleTable); err != nil {
				return err
			}
		}
		for _, lq := range d.Examples {
			if err := w.AppendExample(lq); err != nil {
				return err
			}
		}
	}
	return w.Close()
}
