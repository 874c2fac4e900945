package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mtmlf/internal/sqldb"
)

// uniformIntTable builds a table with one uniform int column over
// [0, domain).
func uniformIntTable(rng *rand.Rand, name string, rows, domain int) *sqldb.Table {
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	return sqldb.MustNewTable(name, sqldb.IntColumn("v", vals))
}

func TestAnalyzeBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := sqldb.NewDB("d")
	db.MustAddTable(uniformIntTable(rng, "t", 1000, 50))
	s := Analyze(db)
	ts := s.Tables["t"]
	if ts == nil || ts.RowCount != 1000 {
		t.Fatal("table stats missing")
	}
	cs := ts.Cols["v"]
	if cs.Distinct < 40 || cs.Distinct > 50 {
		t.Fatalf("distinct estimate %d implausible for 50-value domain", cs.Distinct)
	}
	if len(cs.MCVs) != DefaultMCVs {
		t.Fatalf("expected %d MCVs, got %d", DefaultMCVs, len(cs.MCVs))
	}
	if cs.Min < 0 || cs.Max > 49 {
		t.Fatal("min/max wrong")
	}
}

// TestAnalyzeDistinct: Distinct is the exact number of distinct values
// of an int, a float and a string column with duplicates (the
// workload generator reads it to pick a filter's operator).
func TestAnalyzeDistinct(t *testing.T) {
	db := sqldb.NewDB("d")
	db.MustAddTable(sqldb.MustNewTable("t",
		sqldb.IntColumn("i", []int64{1, 1, 2, 3, 3, 3}),
		sqldb.FloatColumn("f", []float64{0.5, 2, 0.5, 2, 7, 0.5}),
		sqldb.StringColumn("s", []string{"a", "a", "b", "a", "b", "a"})))
	cols := Analyze(db).Tables["t"].Cols
	for col, want := range map[string]int64{"i": 3, "f": 3, "s": 2} {
		if got := cols[col].Distinct; got != want {
			t.Errorf("column %s: Distinct %d, want %d", col, got, want)
		}
	}
}

func TestEqSelectivityOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := sqldb.NewDB("d")
	db.MustAddTable(uniformIntTable(rng, "t", 5000, 100))
	s := Analyze(db)
	sel := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpEq, Val: sqldb.IntVal(7)})
	if sel < 0.002 || sel > 0.05 {
		t.Fatalf("uniform eq selectivity %g, want ~0.01", sel)
	}
}

func TestEqSelectivityOnSkewedMCV(t *testing.T) {
	// 90% of rows hold value 0; the MCV list must capture this.
	vals := make([]int64, 1000)
	for i := 100; i < 1000; i++ {
		vals[i] = 0
	}
	for i := 0; i < 100; i++ {
		vals[i] = int64(i + 1)
	}
	db := sqldb.NewDB("d")
	db.MustAddTable(sqldb.MustNewTable("t", sqldb.IntColumn("v", vals)))
	s := Analyze(db)
	sel := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpEq, Val: sqldb.IntVal(0)})
	if math.Abs(sel-0.9) > 1e-9 {
		t.Fatalf("MCV eq selectivity %g, want 0.9 exactly", sel)
	}
}

func TestRangeSelectivityMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := sqldb.NewDB("d")
	db.MustAddTable(uniformIntTable(rng, "t", 5000, 1000))
	s := Analyze(db)
	prev := -1.0
	for _, cut := range []int64{0, 100, 250, 500, 750, 999} {
		sel := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpLt, Val: sqldb.IntVal(cut)})
		if sel < prev-1e-9 {
			t.Fatalf("range selectivity not monotone at %d: %g < %g", cut, sel, prev)
		}
		prev = sel
	}
	// Lt midpoint of uniform should be near 0.5.
	mid := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpLt, Val: sqldb.IntVal(500)})
	if math.Abs(mid-0.5) > 0.1 {
		t.Fatalf("uniform midpoint selectivity %g, want ~0.5", mid)
	}
}

func TestRangeComplementary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := sqldb.NewDB("d")
	db.MustAddTable(uniformIntTable(rng, "t", 2000, 500))
	s := Analyze(db)
	v := sqldb.IntVal(123)
	lt := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpLt, Val: v})
	eq := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpEq, Val: v})
	gt := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpGt, Val: v})
	if math.Abs(lt+eq+gt-1) > 0.05 {
		t.Fatalf("lt+eq+gt = %g, want ~1", lt+eq+gt)
	}
}

func TestLikeSelectivity(t *testing.T) {
	strs := make([]string, 1000)
	for i := range strs {
		if i < 300 {
			strs[i] = "alpha"
		} else {
			strs[i] = "beta"
		}
	}
	db := sqldb.NewDB("d")
	db.MustAddTable(sqldb.MustNewTable("t", sqldb.StringColumn("s", strs)))
	s := Analyze(db)
	// Both values are MCVs, so LIKE 'alp%' should be ~0.3.
	sel := s.Selectivity(sqldb.Filter{Table: "t", Col: "s", Op: sqldb.OpLike, Val: sqldb.StrVal("alp%")})
	if math.Abs(sel-0.3) > 0.02 {
		t.Fatalf("LIKE selectivity %g, want ~0.3", sel)
	}
	// A pattern matching nothing should fall back to near-default.
	sel2 := s.Selectivity(sqldb.Filter{Table: "t", Col: "s", Op: sqldb.OpLike, Val: sqldb.StrVal("zz%")})
	if sel2 > 0.01 {
		t.Fatalf("non-matching LIKE selectivity %g too large", sel2)
	}
}

// Property: every selectivity is in [0, 1].
func TestSelectivityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := sqldb.NewDB("d")
	db.MustAddTable(uniformIntTable(rng, "t", 500, 40))
	s := Analyze(db)
	f := func(raw int64, opRaw uint8) bool {
		ops := []sqldb.Op{sqldb.OpEq, sqldb.OpNeq, sqldb.OpLt, sqldb.OpLe, sqldb.OpGt, sqldb.OpGe}
		op := ops[int(opRaw)%len(ops)]
		sel := s.Selectivity(sqldb.Filter{Table: "t", Col: "v", Op: op, Val: sqldb.IntVal(raw % 100)})
		return sel >= 0 && sel <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinEstimateExactOnCleanPKFK(t *testing.T) {
	// Dimension d with unique PK 0..99; fact f referencing it uniformly.
	rng := rand.New(rand.NewSource(6))
	pk := make([]int64, 100)
	for i := range pk {
		pk[i] = int64(i)
	}
	fk := make([]int64, 2000)
	for i := range fk {
		fk[i] = int64(rng.Intn(100))
	}
	db := sqldb.NewDB("d")
	db.MustAddTable(sqldb.MustNewTable("dim", sqldb.IntColumn("id", pk)))
	db.MustAddTable(sqldb.MustNewTable("fact", sqldb.IntColumn("dim_id", fk)))
	db.MustAddEdge(sqldb.JoinEdge{T1: "dim", C1: "id", T2: "fact", C2: "dim_id"})
	s := Analyze(db)
	q := &sqldb.Query{
		Tables: []string{"dim", "fact"},
		Joins:  []sqldb.JoinEdge{{T1: "dim", C1: "id", T2: "fact", C2: "dim_id"}},
	}
	est := s.EstimateSubplanCard(q.Tables, q)
	truth := float64(sqldb.NewExecutor(db, q).Cardinality())
	// Clean PK-FK: estimate 100*2000/100 = 2000 = truth.
	if math.Abs(est-truth)/truth > 0.01 {
		t.Fatalf("clean PK-FK estimate %g, truth %g", est, truth)
	}
}

func TestIndependenceAssumptionUnderestimatesCorrelated(t *testing.T) {
	// Two perfectly correlated columns: a == b always. True selectivity
	// of (a=1 AND b=1) is P(a=1); independence predicts P(a=1)^2.
	n := 1000
	a := make([]int64, n)
	b := make([]int64, n)
	for i := 0; i < n; i++ {
		v := int64(i % 10)
		a[i], b[i] = v, v
	}
	db := sqldb.NewDB("d")
	db.MustAddTable(sqldb.MustNewTable("t", sqldb.IntColumn("a", a), sqldb.IntColumn("b", b)))
	s := Analyze(db)
	filters := []sqldb.Filter{
		{Table: "t", Col: "a", Op: sqldb.OpEq, Val: sqldb.IntVal(1)},
		{Table: "t", Col: "b", Op: sqldb.OpEq, Val: sqldb.IntVal(1)},
	}
	est := s.EstimateTableCard("t", filters)
	truth := float64(sqldb.FilteredCard(db.Table("t"), filters))
	if est >= truth {
		t.Fatalf("independence should underestimate correlated predicates: est %g, truth %g", est, truth)
	}
	// This documented failure mode is exactly why the learned models in
	// this repo beat the stats baseline on q-error.
}

func TestEstimateCardFloorsAtOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := sqldb.NewDB("d")
	db.MustAddTable(uniformIntTable(rng, "t", 100, 10))
	s := Analyze(db)
	// Stack many filters; estimate must never drop below 1.
	var filters []sqldb.Filter
	for i := 0; i < 10; i++ {
		filters = append(filters, sqldb.Filter{Table: "t", Col: "v", Op: sqldb.OpEq, Val: sqldb.IntVal(int64(i))})
	}
	if est := s.EstimateTableCard("t", filters); est < 1 {
		t.Fatalf("estimate %g below floor", est)
	}
}

func TestUnknownTableAndColumnAreNeutral(t *testing.T) {
	s := &DBStats{Tables: map[string]*TableStats{}}
	if s.Selectivity(sqldb.Filter{Table: "zz", Col: "c", Op: sqldb.OpEq, Val: sqldb.IntVal(1)}) != 1 {
		t.Fatal("unknown table selectivity must be 1")
	}
}

func TestHistFractionBelow(t *testing.T) {
	bounds := []float64{0, 10, 20, 30, 40}
	cases := []struct {
		x    float64
		want float64
	}{
		{-5, 0}, {0, 0}, {40, 1}, {45, 1}, {20, 0.5}, {5, 0.125},
	}
	for _, c := range cases {
		if got := histFractionBelow(bounds, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("histFractionBelow(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}
