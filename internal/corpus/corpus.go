// Package corpus is the data plane every training run reads: a
// versioned container holding, per database, the full columnar table
// data plus a pre-labeled workload — everything a training run needs,
// so corpora are generated once (mtmlf-datagen -out), shipped as
// files, and trained from repeatedly without regenerating or
// relabeling anything. A run that labels its data on the fly writes
// the same bytes into memory (InMemory) and reads them back through
// the same Reader.
//
// # File layout
//
// A corpus file is a sequence of sections, each one hand-encoded
// binary record (codec.go), plus a fixed-size trailer:
//
//	offset 0   header: magic "MTMLF-CORPUS" + big-endian uint16
//	           version, then the Meta record
//	...        per database, in order:
//	             one schema section: name, columnar tables, join
//	             edges, fact tables
//	             one OPTIONAL single-table section: the per-table
//	             encoder pre-training workloads
//	             ([]workload.TableWorkload)
//	             one section PER EXAMPLE: a workload.LabeledQuery
//	...        footer: the index — every database's schema offset,
//	           optional single-table offset, per-example offsets, a
//	           CRC32C per section, and the header's end offset + CRC
//	end-24     trailer: big-endian footer offset (8 bytes) + big-endian
//	           footer CRC32C (4 bytes) + reserved zeros (4 bytes) +
//	           trailer magic "MTCORPV4" (8 bytes).
//
// # Versions
//
// This build reads and writes version 5 only. A file it cannot read
// fails Open with a *ckptio.CorruptError, like a damaged one, and the
// remedy is to regenerate the corpus with mtmlf-datagen. The gob-based
// versions 1–3 end in trailer magics of their own and fail at the
// trailer. Version 4 shares v5's trailer magic, which marks the
// record-codec family; it had a workload shard size in Meta, from a
// second, sharded generation scheme, and its checksum-verified header
// version refuses it with a message that names the version and says to
// regenerate. The single-table section is optional in the format:
// mtmlf-datagen always writes it, a database written without one
// reports none, and training refuses such a database.
//
// Opening validates the trailer, the footer checksum, the header
// checksum, and the whole index before any section is decoded: every
// database range must lie inside the file, example offsets must be
// strictly increasing inside their database's range, and section
// order must be schema < single-table < examples. A corrupt index
// fails at Open with a *ckptio.CorruptError instead of panicking later
// in the serving or training process. Schema, single-table, and example
// sections are checksum-verified lazily, when first decoded, and every
// length inside a record is checked against the bytes left before
// anything is allocated.
//
// Every section being its own record is what makes the format
// seekable: the reader jumps to any example's offset and decodes just
// that record, so an epoch over a corpus far larger than RAM touches
// one minibatch of examples at a time. The writer is append-only
// (offsets are counted, never seeked), so generation can stream
// examples straight to disk.
//
// Floats are stored as their IEEE-754 bits, which the data plane's
// determinism contract relies on: a write → read round trip
// reproduces the exact example set, and a training run streamed from
// disk is bitwise identical to one fed from memory.
package corpus

import (
	"fmt"

	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

const (
	// Magic opens a corpus file.
	Magic = "MTMLF-CORPUS"
	// Version is the one format version this build reads and writes.
	Version = 5
	// preambleSize is the magic plus the uint16 version.
	preambleSize = len(Magic) + 2
	// trailerMagic closes a file of the record-codec family (v4 and
	// v5); a torn or truncated write fails loudly at open instead of
	// decoding garbage.
	trailerMagic = "MTCORPV4"
	// trailerSize is the fixed byte size of the trailer:
	// [8B footer offset][4B footer CRC32C][4B reserved][8B magic].
	trailerSize = 24
)

// Meta describes a corpus's provenance, echoed into the file at write
// time and returned by Reader.Meta. The header codec writes every
// field by hand, so a field added here must be added to appendHeader
// and decodeHeader too; TestRecordsCarryEveryField fails until it is.
type Meta struct {
	// Seed is the master seed the corpus was generated from.
	Seed int64
	// Note is free-form provenance (generator settings echo).
	Note string
	// SingleTablePerTable and MLAWorkload record the Algorithm 1
	// generation parameters (mtmlf-datagen -single-table): the
	// single-table queries stored per table and the workload config
	// every draw used. mtmlf-train -mla trains with them and refuses a
	// corpus whose SingleTablePerTable is 0.
	SingleTablePerTable int
	MLAWorkload         workload.Config
}

// dbRecord is the on-wire schema + columnar data of one database.
// The column vectors are stored verbatim, so a reloaded database is
// value-identical to the generated one (and therefore re-ANALYZEs to
// identical statistics).
type dbRecord struct {
	Name       string
	Tables     []tableRecord
	Edges      []sqldb.JoinEdge
	FactTables []string
}

type tableRecord struct {
	Name string
	Cols []columnRecord
}

type columnRecord struct {
	Name string
	Kind sqldb.Kind
	Ints []int64
	Flts []float64
	Strs []string
}

// dbIndex locates one database's sections inside the file.
type dbIndex struct {
	Name string
	// Off is the schema section's offset; ExampleOffs the offset of
	// every example section; End the offset one past the last example.
	Off         int64
	ExampleOffs []int64
	End         int64
	// SingleOff is the offset of the optional single-table
	// pre-training section; 0 means absent.
	SingleOff int64
	// SchemaCRC, SingleCRC, and ExampleCRCs are the CRC32C of the
	// schema section, the single-table section, and each example
	// section, verified lazily when a section is first decoded.
	// ExampleCRCs is as long as ExampleOffs.
	SchemaCRC   uint32
	SingleCRC   uint32
	ExampleCRCs []uint32
}

// schemaEnd returns the offset one past the schema section: the next
// section in file order (single-table section, first example, or the
// database's end).
func (d *dbIndex) schemaEnd() int64 {
	if d.SingleOff > 0 {
		return d.SingleOff
	}
	if len(d.ExampleOffs) > 0 {
		return d.ExampleOffs[0]
	}
	return d.End
}

// singleEnd returns the offset one past the single-table section.
func (d *dbIndex) singleEnd() int64 {
	if len(d.ExampleOffs) > 0 {
		return d.ExampleOffs[0]
	}
	return d.End
}

// footer is the seekable index written at the end of the file.
type footer struct {
	DBs []dbIndex
	// HeaderEnd and HeaderCRC delimit and checksum the header section
	// (preamble + Meta), so bit rot in the header is caught before it
	// is decoded.
	HeaderEnd int64
	HeaderCRC uint32
}

// toRecord flattens a database for encoding.
func toRecord(db *sqldb.DB) dbRecord {
	rec := dbRecord{
		Name:       db.Name,
		Edges:      db.Edges,
		FactTables: db.FactTables,
	}
	for _, t := range db.Tables {
		tr := tableRecord{Name: t.Name}
		for _, c := range t.Columns {
			tr.Cols = append(tr.Cols, columnRecord{
				Name: c.Name, Kind: c.Kind,
				Ints: c.Ints, Flts: c.Flts, Strs: c.Strs,
			})
		}
		rec.Tables = append(rec.Tables, tr)
	}
	return rec
}

// fromRecord reconstitutes a database, re-validating schema
// invariants (column lengths, edge endpoints) exactly like the
// original construction path did.
func fromRecord(rec dbRecord) (*sqldb.DB, error) {
	db := sqldb.NewDB(rec.Name)
	for _, tr := range rec.Tables {
		cols := make([]*sqldb.Column, len(tr.Cols))
		for i, cr := range tr.Cols {
			cols[i] = &sqldb.Column{Name: cr.Name, Kind: cr.Kind, Ints: cr.Ints, Flts: cr.Flts, Strs: cr.Strs}
		}
		t, err := sqldb.NewTable(tr.Name, cols...)
		if err != nil {
			return nil, fmt.Errorf("corpus: database %q: %w", rec.Name, err)
		}
		if err := db.AddTable(t); err != nil {
			return nil, fmt.Errorf("corpus: database %q: %w", rec.Name, err)
		}
	}
	for _, e := range rec.Edges {
		if err := db.AddEdge(e); err != nil {
			return nil, fmt.Errorf("corpus: database %q: %w", rec.Name, err)
		}
	}
	db.FactTables = append(db.FactTables, rec.FactTables...)
	return db, nil
}
