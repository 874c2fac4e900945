package catalog

import (
	"testing"

	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
)

func testDB() *sqldb.DB {
	db := sqldb.NewDB("t")
	db.MustAddTable(sqldb.MustNewTable("a",
		sqldb.IntColumn("id", []int64{0, 1, 2, 3}),
		sqldb.IntColumn("x", []int64{5, 5, 6, 7}),
	))
	db.MustAddTable(sqldb.MustNewTable("b",
		sqldb.IntColumn("id", []int64{0, 1}),
		sqldb.IntColumn("fk_a", []int64{0, 3}),
	))
	db.MustAddEdge(sqldb.JoinEdge{T1: "a", C1: "id", T2: "b", C2: "fk_a"})
	return db
}

// TestMemoryStablePointers: the Catalog contract — same pointers on
// every call, so concurrent readers share one frozen snapshot.
func TestMemoryStablePointers(t *testing.T) {
	cat := NewMemory(testDB())
	if cat.Name() != "t" {
		t.Fatalf("name %q", cat.Name())
	}
	if cat.DB() != cat.DB() {
		t.Fatal("DB() not stable")
	}
	if cat.Stats() != cat.Stats() {
		t.Fatal("Stats() not stable")
	}
}

// TestMemoryStatsMatchAnalyze: the lazy Stats is exactly ANALYZE.
func TestMemoryStatsMatchAnalyze(t *testing.T) {
	db := testDB()
	cat := NewMemory(db)
	ref := stats.Analyze(db)
	got := cat.Stats()
	for name, ts := range ref.Tables {
		gts := got.Tables[name]
		if gts == nil || gts.RowCount != ts.RowCount || len(gts.Cols) != len(ts.Cols) {
			t.Fatalf("stats for %q differ", name)
		}
	}
}
