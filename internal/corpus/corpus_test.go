package corpus

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/datagen"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// testCorpus generates a small fleet with labeled workloads
// and writes it to a temp file, returning the path and the in-memory
// originals.
func testCorpus(t *testing.T, seed int64, nDBs, nExamples int) (string, []*Database) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 4, 5
	cfg.MinRows, cfg.MaxRows = 60, 120
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 3
	var dbs []*Database
	for i, db := range datagen.GenerateFleet(seed, nDBs, cfg) {
		ex := workload.NewGeneratorFrom(catalog.NewMemory(db), seed+int64(i)*7919).Generate(nExamples, wcfg)
		dbs = append(dbs, &Database{DB: db, Examples: ex})
	}
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	if err := WriteFile(path, Meta{Seed: seed, Note: "test"}, dbs); err != nil {
		t.Fatal(err)
	}
	return path, dbs
}

// equalColumns compares two columns value-for-value (floats bitwise).
func equalColumns(t *testing.T, table string, a, b *sqldb.Column) {
	t.Helper()
	if a.Name != b.Name || a.Kind != b.Kind || a.Len() != b.Len() {
		t.Fatalf("%s.%s: column identity differs: %v/%v vs %v/%v", table, a.Name, a.Kind, a.Len(), b.Kind, b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		switch a.Kind {
		case sqldb.KindInt:
			if a.Ints[i] != b.Ints[i] {
				t.Fatalf("%s.%s[%d]: %d != %d", table, a.Name, i, a.Ints[i], b.Ints[i])
			}
		case sqldb.KindFloat:
			if math.Float64bits(a.Flts[i]) != math.Float64bits(b.Flts[i]) {
				t.Fatalf("%s.%s[%d]: %v != %v", table, a.Name, i, a.Flts[i], b.Flts[i])
			}
		default:
			if a.Strs[i] != b.Strs[i] {
				t.Fatalf("%s.%s[%d]: %q != %q", table, a.Name, i, a.Strs[i], b.Strs[i])
			}
		}
	}
}

// equalPlans compares plan trees structurally including operators.
func equalPlans(t *testing.T, a, b *plan.Node) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatal("plan nil-ness differs")
	}
	if a == nil {
		return
	}
	if a.Table != b.Table || a.Scan != b.Scan || a.Join != b.Join || a.IsLeaf() != b.IsLeaf() {
		t.Fatalf("plan node differs: %v vs %v", a, b)
	}
	if !a.IsLeaf() {
		equalPlans(t, a.Left, b.Left)
		equalPlans(t, a.Right, b.Right)
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// equalExamples asserts a corpus round trip reproduced the exact
// example: query, filters, plan, and every label bitwise.
func equalExamples(t *testing.T, a, b *workload.LabeledQuery) {
	t.Helper()
	if len(a.Q.Tables) != len(b.Q.Tables) {
		t.Fatalf("table count %d vs %d", len(a.Q.Tables), len(b.Q.Tables))
	}
	for i := range a.Q.Tables {
		if a.Q.Tables[i] != b.Q.Tables[i] {
			t.Fatalf("table %d: %q vs %q", i, a.Q.Tables[i], b.Q.Tables[i])
		}
	}
	if len(a.Q.Joins) != len(b.Q.Joins) {
		t.Fatalf("join count differs")
	}
	for i := range a.Q.Joins {
		if a.Q.Joins[i] != b.Q.Joins[i] {
			t.Fatalf("join %d: %v vs %v", i, a.Q.Joins[i], b.Q.Joins[i])
		}
	}
	if len(a.Q.Filters) != len(b.Q.Filters) {
		t.Fatalf("filter count differs")
	}
	for i := range a.Q.Filters {
		if a.Q.Filters[i] != b.Q.Filters[i] {
			t.Fatalf("filter %d: %v vs %v", i, a.Q.Filters[i], b.Q.Filters[i])
		}
	}
	equalPlans(t, a.Plan, b.Plan)
	if !bitsEqual(a.NodeCards, b.NodeCards) || !bitsEqual(a.NodeCosts, b.NodeCosts) {
		t.Fatal("per-node labels differ")
	}
	if math.Float64bits(a.Card) != math.Float64bits(b.Card) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) ||
		math.Float64bits(a.RawCard) != math.Float64bits(b.RawCard) {
		t.Fatal("root labels differ")
	}
	if len(a.OptimalOrder) != len(b.OptimalOrder) {
		t.Fatalf("optimal order length %d vs %d", len(a.OptimalOrder), len(b.OptimalOrder))
	}
	for i := range a.OptimalOrder {
		if a.OptimalOrder[i] != b.OptimalOrder[i] {
			t.Fatalf("optimal order %d: %q vs %q", i, a.OptimalOrder[i], b.OptimalOrder[i])
		}
	}
}

// TestRoundTripExact is the data-plane contract: write → read
// reproduces the exact databases (every column value) and the exact
// example set (every label bitwise).
func TestRoundTripExact(t *testing.T) {
	path, want := testCorpus(t, 31, 2, 10)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumDBs() != len(want) {
		t.Fatalf("NumDBs %d, want %d", r.NumDBs(), len(want))
	}
	if m := r.Meta(); m.Seed != 31 || m.Note != "test" {
		t.Fatalf("meta round trip: %+v", m)
	}
	for i, w := range want {
		cat, err := r.Catalog(i)
		if err != nil {
			t.Fatal(err)
		}
		db := cat.DB()
		if db.Name != w.DB.Name {
			t.Fatalf("db %d name %q, want %q", i, db.Name, w.DB.Name)
		}
		if len(db.Tables) != len(w.DB.Tables) {
			t.Fatalf("db %d table count differs", i)
		}
		for j, tab := range w.DB.Tables {
			got := db.Tables[j]
			if got.Name != tab.Name || len(got.Columns) != len(tab.Columns) {
				t.Fatalf("db %d table %d identity differs", i, j)
			}
			for k := range tab.Columns {
				equalColumns(t, tab.Name, tab.Columns[k], got.Columns[k])
			}
		}
		if len(db.Edges) != len(w.DB.Edges) {
			t.Fatalf("db %d edge count differs", i)
		}
		for j := range w.DB.Edges {
			if db.Edges[j] != w.DB.Edges[j] {
				t.Fatalf("db %d edge %d differs", i, j)
			}
		}
		if len(db.FactTables) != len(w.DB.FactTables) {
			t.Fatalf("db %d fact tables differ", i)
		}
		ex, err := r.Examples(i)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Len() != len(w.Examples) {
			t.Fatalf("db %d has %d examples, want %d", i, ex.Len(), len(w.Examples))
		}
		for j, wex := range w.Examples {
			got, err := ex.Example(j)
			if err != nil {
				t.Fatal(err)
			}
			equalExamples(t, wex, got)
		}
	}
}

// TestExamplesConcurrentAndRepeatable: the source contract — any
// number of concurrent readers, same bits on every read.
func TestExamplesConcurrentAndRepeatable(t *testing.T) {
	path, want := testCorpus(t, 7, 1, 8)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ex, err := r.Examples(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 50; it++ {
				i := rng.Intn(ex.Len())
				got, err := ex.Example(i)
				if err != nil {
					done <- err
					return
				}
				if math.Float64bits(got.Card) != math.Float64bits(want[0].Examples[i].Card) {
					t.Errorf("reader %d example %d: card differs", w, i)
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsMatchMemoryBackend: the corpus catalog's ANALYZE result
// must equal the in-memory backend's — the invariant that makes a
// model built over either backend bitwise identical.
func TestStatsMatchMemoryBackend(t *testing.T) {
	path, want := testCorpus(t, 13, 1, 2)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cat, err := r.Catalog(0)
	if err != nil {
		t.Fatal(err)
	}
	mem := catalog.NewMemory(want[0].DB)
	got, ref := cat.Stats(), mem.Stats()
	for name, ts := range ref.Tables {
		gts, ok := got.Tables[name]
		if !ok {
			t.Fatalf("corpus stats lack table %q", name)
		}
		if gts.RowCount != ts.RowCount {
			t.Fatalf("%s: row count %d vs %d", name, gts.RowCount, ts.RowCount)
		}
		for col, cs := range ts.Cols {
			gcs := gts.Cols[col]
			if gcs == nil {
				t.Fatalf("%s.%s: missing column stats", name, col)
			}
			if gcs.Distinct != cs.Distinct || len(gcs.MCVs) != len(cs.MCVs) ||
				!bitsEqual(gcs.MCVFreqs, cs.MCVFreqs) || !bitsEqual(gcs.Bounds, cs.Bounds) {
				t.Fatalf("%s.%s: stats differ", name, col)
			}
		}
	}
}

// TestOpenRejectsGarbage: foreign, truncated, and torn files must
// fail loudly at open, not decode into garbage.
func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, bytes.Repeat([]byte("not a corpus!"), 10), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk); err == nil {
		t.Fatal("expected error for junk file")
	}
	path, _ := testCorpus(t, 3, 1, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc")
	if err := os.WriteFile(trunc, raw[:len(raw)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc); err == nil {
		t.Fatal("expected error for truncated file")
	}
	tiny := filepath.Join(dir, "tiny")
	if err := os.WriteFile(tiny, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tiny); err == nil {
		t.Fatal("expected error for tiny file")
	}
}

// TestCatalogByNameAndBounds covers lookup errors.
func TestCatalogByNameAndBounds(t *testing.T) {
	path, _ := testCorpus(t, 5, 2, 2)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.CatalogByName("D2"); err != nil {
		t.Fatalf("D2 should exist: %v", err)
	}
	if _, err := r.CatalogByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
	if _, err := r.Catalog(99); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	ex, err := r.Examples(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Example(-1); err == nil {
		t.Fatal("expected error for negative index")
	}
	if _, err := ex.Example(ex.Len()); err == nil {
		t.Fatal("expected error past end")
	}
}

// singleTableSet builds a small deterministic pre-training set for db.
func singleTableSet(db *sqldb.DB, seed int64, perTable int) []workload.TableWorkload {
	gen := workload.NewGeneratorFrom(catalog.NewMemory(db), seed)
	return gen.GenPretrainSet(perTable, workload.DefaultConfig())
}

// TestSingleTableRoundTrip: the single-table section reproduces
// the stored pre-training workloads exactly, and databases written
// without one report ok=false.
func TestSingleTableRoundTrip(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 4, 5
	cfg.MinRows, cfg.MaxRows = 60, 120
	fleet := datagen.GenerateFleet(17, 2, cfg)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 3
	want := singleTableSet(fleet[0], 18, 4)
	dbs := []*Database{
		{DB: fleet[0], SingleTable: want,
			Examples: workload.NewGeneratorFrom(catalog.NewMemory(fleet[0]), 19).Generate(3, wcfg)},
		{DB: fleet[1], // no single-table section
			Examples: workload.NewGeneratorFrom(catalog.NewMemory(fleet[1]), 20).Generate(3, wcfg)},
	}
	path := filepath.Join(t.TempDir(), "single.mtc")
	if err := WriteFile(path, Meta{Seed: 17}, dbs); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c0, err := r.Catalog(0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := c0.SingleTable()
	if err != nil || !ok {
		t.Fatalf("single-table section missing: ok=%v err=%v", ok, err)
	}
	if len(got) != len(want) {
		t.Fatalf("table count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Table != want[i].Table || len(got[i].Queries) != len(want[i].Queries) {
			t.Fatalf("table %d identity differs: %q/%d vs %q/%d",
				i, got[i].Table, len(got[i].Queries), want[i].Table, len(want[i].Queries))
		}
		for j := range want[i].Queries {
			a, b := want[i].Queries[j], got[i].Queries[j]
			if a.Table != b.Table || len(a.Filters) != len(b.Filters) ||
				math.Float64bits(a.Card) != math.Float64bits(b.Card) ||
				math.Float64bits(a.Frac) != math.Float64bits(b.Frac) {
				t.Fatalf("%s query %d differs: %+v vs %+v", want[i].Table, j, a, b)
			}
			for k := range a.Filters {
				if a.Filters[k] != b.Filters[k] {
					t.Fatalf("%s query %d filter %d differs", want[i].Table, j, k)
				}
			}
		}
	}
	// Schema and examples still decode around the section.
	if db := c0.DB(); db.Name != fleet[0].Name {
		t.Fatalf("schema decode around single-table section: %q", db.Name)
	}
	ex, err := r.Examples(0)
	if err != nil {
		t.Fatal(err)
	}
	equalExamples(t, dbs[0].Examples[1], mustExample(t, ex, 1))
	// DB without a section: ok=false, no error.
	c1, err := r.Catalog(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c1.SingleTable(); ok || err != nil {
		t.Fatalf("unexpected single-table section: ok=%v err=%v", ok, err)
	}
}

func mustExample(t *testing.T, s *ExampleSet, i int) *workload.LabeledQuery {
	t.Helper()
	lq, err := s.Example(i)
	if err != nil {
		t.Fatal(err)
	}
	return lq
}

// writeCorrupted writes a tiny corpus whose in-memory index is
// tampered with by corrupt just before the footer is encoded —
// producing a structurally valid file with a lying index, the
// corruption class that used to surface as a panic deep inside
// DBCatalog.DB or ExampleSet.Example.
func writeCorrupted(t *testing.T, corrupt func(dbs []dbIndex)) string {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 4, 4
	cfg.MinRows, cfg.MaxRows = 60, 100
	db := datagen.GenerateFleet(29, 1, cfg)[0]
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 3
	path := filepath.Join(t.TempDir(), "corrupt.mtc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, Meta{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginDB(db); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSingleTable(singleTableSet(db, 30, 2)); err != nil {
		t.Fatal(err)
	}
	for _, lq := range workload.NewGeneratorFrom(catalog.NewMemory(db), 31).Generate(3, wcfg) {
		if err := w.AppendExample(lq); err != nil {
			t.Fatal(err)
		}
	}
	// Seal the in-progress database entry so Close does not overwrite
	// the tampered End, then corrupt the index Close will encode.
	w.endDB()
	corrupt(w.dbs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenRejectsCorruptIndex: every index invariant is validated at
// Open, which must fail with a *ckptio.CorruptError — never hand out a
// Reader that panics later.
func TestOpenRejectsCorruptIndex(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(dbs []dbIndex)
	}{
		{"example offsets not increasing", func(dbs []dbIndex) {
			dbs[0].ExampleOffs[2] = dbs[0].ExampleOffs[1]
		}},
		{"example offset before schema", func(dbs []dbIndex) {
			dbs[0].ExampleOffs[0] = dbs[0].Off
		}},
		{"example offset past db end", func(dbs []dbIndex) {
			dbs[0].ExampleOffs[2] = dbs[0].End + 7
		}},
		{"db range past file", func(dbs []dbIndex) {
			dbs[0].End = 1 << 40
		}},
		{"db offset negative", func(dbs []dbIndex) {
			dbs[0].Off = -1
		}},
		{"single-table offset before schema", func(dbs []dbIndex) {
			dbs[0].SingleOff = dbs[0].Off - 1
		}},
		{"single-table offset past examples", func(dbs []dbIndex) {
			dbs[0].SingleOff = dbs[0].End - 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeCorrupted(t, tc.corrupt)
			r, err := Open(path)
			if err == nil {
				r.Close()
				t.Fatal("expected corrupt index to fail at Open")
			}
			var ce *ckptio.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T) is not a *ckptio.CorruptError", err, err)
			}
		})
	}
	// A sane index still opens — the validator must not be overzealous.
	path := writeCorrupted(t, func([]dbIndex) {})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
}
