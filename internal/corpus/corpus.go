// Package corpus is the on-disk backend of the data plane: a
// versioned container holding, per database, the full columnar table
// data plus a pre-labeled workload — everything a training run needs,
// so corpora are generated once (mtmlf-datagen -out), shipped as
// files, and trained from repeatedly without regenerating or
// relabeling anything.
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
// This build reads and writes version 4 only. Versions 1–3 stored
// every section as its own gob stream; Open refuses them with a
// *VersionError naming the version, and the remedy is to regenerate
// the corpus with mtmlf-datagen. A database written without a
// single-table section reports none, so consumers fall back to
// generating that data live (featurize.PretrainAll instead of
// PretrainAllFrom).
//
// Opening validates the trailer, the footer checksum, the header
// checksum, and the whole index before any section is decoded: every
// database range must lie inside the file, example offsets must be
// strictly increasing inside their database's range, and section
// order must be schema < single-table < examples. A corrupt index
// fails at Open with a *CorruptError instead of panicking later in
// the serving or training process. Schema, single-table, and example
// sections are checksum-verified lazily, when first decoded, and every
// length inside a record is checked against the bytes left before
// anything is allocated.
//
// Every section being its own record is what makes the format
// seekable: the reader jumps to any example's offset and decodes just
// that record, so an epoch over a corpus far larger than RAM touches
// one minibatch of examples at a time. The writer is append-only
// (offsets are counted, never seeked), so generation can stream
// examples straight to disk shard by shard.
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
	Version = 4
	// preambleSize is the magic plus the uint16 version.
	preambleSize = len(Magic) + 2
	// trailerMagic closes a file; a torn or truncated write fails
	// loudly at open instead of decoding garbage.
	trailerMagic = "MTCORPV4"
	// trailerSize is the fixed byte size of the trailer:
	// [8B footer offset][4B footer CRC32C][4B reserved][8B magic].
	trailerSize = 24
	// The trailer magics of the gob-based formats: v1 and v2 files end
	// with the first, v3 files with the second.
	legacyTrailerV1 = "MTCORPV1"
	legacyTrailerV3 = "MTCORPV3"
)

// Meta describes a corpus's provenance, echoed into the file at write
// time and returned by Reader.Meta. The header codec writes every
// field by hand, so a field added here must be added to appendHeader
// and decodeHeader too; TestRecordsCarryEveryField fails until it is.
type Meta struct {
	// Seed is the master seed the corpus was generated from.
	Seed int64
	// ShardSize is the workload generation shard size (the unit of the
	// deterministic seed scheme; see workload.ShardSeed). 0 for
	// fleet-MLA corpora, whose generation is per-DB single-stream.
	ShardSize int
	// Note is free-form provenance (generator settings echo).
	Note string
	// SingleTablePerTable and MLAWorkload record the Algorithm 1
	// generation parameters of a fleet-MLA corpus (mtmlf-datagen
	// -single-table): SingleTablePerTable > 0 marks the corpus as one
	// and MLAWorkload is the workload config every draw used — what a
	// training run needs to reproduce the live (F)-pretrain fallback
	// bitwise when the single-table sections are absent. Zero on
	// corpora not generated for MLA.
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

// CorruptError reports a damaged corpus: a failed checksum, a
// structurally invalid index, or a record that does not decode. It
// exists so callers can distinguish "this file is damaged" (errors.As)
// from I/O errors and version mismatches.
type CorruptError struct {
	// Reason describes the failed invariant.
	Reason string
}

func (e *CorruptError) Error() string { return "corpus: corrupt corpus: " + e.Reason }

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// VersionError reports a corpus written in a format this build no
// longer reads. Nothing converts such a file; it is regenerated.
type VersionError struct {
	// Version is the file's format version.
	Version int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("corpus: unsupported corpus version %d — regenerate with mtmlf-datagen", e.Version)
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
