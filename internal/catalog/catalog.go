// Package catalog is the backend-agnostic read side of the data
// plane: one database's schema, columnar row data, and ANALYZE
// statistics behind a single interface. It carves the seam that used
// to be implicit in the datagen → sqldb → stats tangle, so every
// consumer — the workload generator, the (F) featurizer, the trainer,
// the serving layer — can run against any backend that satisfies
// Catalog: the in-memory synthetic generators (Memory, the original
// path), the on-disk corpus format (internal/corpus), or a future
// real-DBMS import.
//
// A Catalog is immutable once published: every accessor returns the
// same pointers on every call, and implementations must be safe for
// concurrent readers. That is what lets the sharded workload
// generator and the data-parallel trainer fan out over one catalog
// without locks, and what makes results independent of worker count
// (the readers see one frozen snapshot, never a mutating one).
package catalog

import (
	"sync"

	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
)

// Catalog is read access to one database: its name, its schema and
// columnar rows, and its ANALYZE statistics. Implementations must
// return stable pointers (the same *sqldb.DB and *stats.DBStats every
// call) and be safe for concurrent use.
type Catalog interface {
	// Name identifies the database (e.g. "imdb", "D3").
	Name() string
	// DB returns the schema plus columnar row data.
	DB() *sqldb.DB
	// Stats returns the ANALYZE product for the database. Computed at
	// most once per catalog; cheap to call repeatedly.
	Stats() *stats.DBStats
}

// Memory is the in-memory backend: a generated (or hand-built)
// sqldb.DB with lazily computed statistics. It is the Catalog the
// legacy datagen path produces, and the reference other backends are
// tested against.
type Memory struct {
	db   *sqldb.DB
	once sync.Once
	st   *stats.DBStats
}

// NewMemory wraps an in-memory database. The database must not be
// mutated afterwards.
func NewMemory(db *sqldb.DB) *Memory {
	return &Memory{db: db}
}

// Name implements Catalog.
func (m *Memory) Name() string { return m.db.Name }

// DB implements Catalog.
func (m *Memory) DB() *sqldb.DB { return m.db }

// Stats implements Catalog, running ANALYZE on first use.
func (m *Memory) Stats() *stats.DBStats {
	m.once.Do(func() { m.st = stats.Analyze(m.db) })
	return m.st
}
