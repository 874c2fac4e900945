package workload

import (
	"errors"
	"math"
	"testing"

	"mtmlf/internal/datagen"
	"mtmlf/internal/optimizer"
	"mtmlf/internal/sqldb"
)

func testDB() *sqldb.DB { return datagen.SyntheticIMDB(11, 0.08) }

func TestGenQueryConnectedAndBounded(t *testing.T) {
	g := NewGenerator(testDB(), 1)
	cfg := DefaultConfig()
	for i := 0; i < 30; i++ {
		q := g.GenQuery(cfg)
		if len(q.Tables) < cfg.MinTables || len(q.Tables) > cfg.MaxTables {
			t.Fatalf("query has %d tables", len(q.Tables))
		}
		if !q.IsConnected() {
			t.Fatalf("disconnected query: %v", q.Tables)
		}
		// Spanning-tree joins: exactly |T|-1 edges.
		if len(q.Joins) != len(q.Tables)-1 {
			t.Fatalf("expected %d joins, got %d", len(q.Tables)-1, len(q.Joins))
		}
	}
}

func TestGenQueryFiltersReferenceQueryTables(t *testing.T) {
	g := NewGenerator(testDB(), 2)
	cfg := DefaultConfig()
	for i := 0; i < 20; i++ {
		q := g.GenQuery(cfg)
		for _, f := range q.Filters {
			if !q.HasTable(f.Table) {
				t.Fatalf("filter %v on non-query table", f)
			}
			if f.Col == "id" {
				t.Fatal("filters must not target key columns")
			}
		}
	}
}

func TestLabelProducesConsistentGroundTruth(t *testing.T) {
	db := testDB()
	g := NewGenerator(db, 3)
	cfg := DefaultConfig()
	cfg.MaxTables = 4
	for i := 0; i < 10; i++ {
		q := g.GenQuery(cfg)
		lq, err := g.Label(q, true)
		if err != nil {
			t.Fatal(err)
		}
		nodes := lq.Plan.Nodes()
		if len(lq.NodeCards) != len(nodes) || len(lq.NodeCosts) != len(nodes) {
			t.Fatal("per-node label lengths wrong")
		}
		// Root labels match the scalar fields.
		if lq.NodeCards[len(nodes)-1] != lq.Card || lq.NodeCosts[len(nodes)-1] != lq.Cost {
			t.Fatal("root labels inconsistent")
		}
		// Cards clamped to >= 1 (q-error needs positive values).
		for _, c := range lq.NodeCards {
			if c < 1 {
				t.Fatalf("node card %g below 1", c)
			}
		}
		// The plan covers exactly the query's tables.
		if len(lq.Plan.Tables()) != len(q.Tables) {
			t.Fatal("plan table count mismatch")
		}
		// The root card equals the true executed cardinality (clamped).
		ex := sqldb.NewExecutor(db, q)
		want := float64(ex.Cardinality())
		if want < 1 {
			want = 1
		}
		if lq.Card != want {
			t.Fatalf("root card %g != executed %g", lq.Card, want)
		}
	}
}

// TestLabelRefusesUncountableQuery: a count the executor cannot give
// (here a second edge on one table pair, so the joins are not a tree)
// is Label's error, which Generate resamples, never a label.
func TestLabelRefusesUncountableQuery(t *testing.T) {
	g := NewGenerator(testDB(), 3)
	cfg := DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 2, 2
	q := g.GenQuery(cfg)
	q.Joins = append(q.Joins, q.Joins[0])
	var ce *sqldb.CountError
	if lq, err := g.Label(q, true); !errors.As(err, &ce) || !ce.Cycle {
		t.Fatalf("Label of %v: %v, %v; want an error wrapping a cycle sqldb.CountError", q, lq, err)
	}
}

func TestLabelOptimalOrderIsOptimal(t *testing.T) {
	db := testDB()
	g := NewGenerator(db, 4)
	cfg := DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 3, 5
	for i := 0; i < 5; i++ {
		q := g.GenQuery(cfg)
		lq, err := g.Label(q, true)
		if err != nil {
			t.Fatal(err)
		}
		if lq.OptimalOrder == nil {
			t.Fatal("small query must get an optimal order")
		}
		ex := sqldb.NewExecutor(db, q)
		cards := optimizer.TrueCards{Ex: ex}
		got := optimizer.OrderCost(lq.OptimalOrder, cards)
		best, err := optimizer.BestLeftDeep(q, cards)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-best.Cost) > 1e-9 {
			t.Fatalf("labeled order cost %g != optimal %g", got, best.Cost)
		}
	}
}

func TestGenerateAndSplit(t *testing.T) {
	g := NewGenerator(testDB(), 5)
	cfg := DefaultConfig()
	cfg.MaxTables = 4
	qs := g.Generate(20, cfg)
	if len(qs) != 20 {
		t.Fatalf("generated %d queries", len(qs))
	}
	train, val, test := Split(qs, 0.8, 0.1)
	if len(train) != 16 || len(val) != 2 || len(test) != 2 {
		t.Fatalf("split sizes %d/%d/%d", len(train), len(val), len(test))
	}
}

func TestGenSingleTable(t *testing.T) {
	db := testDB()
	g := NewGenerator(db, 6)
	cfg := DefaultConfig()
	qs := g.GenSingleTable("title", 20, cfg)
	if len(qs) != 20 {
		t.Fatal("single-table count wrong")
	}
	rows := float64(db.Table("title").NumRows())
	for _, q := range qs {
		if q.Card < 1 || q.Card > rows {
			t.Fatalf("single-table card %g out of range", q.Card)
		}
		if math.Abs(q.Frac-q.Card/rows) > 1e-12 {
			t.Fatal("Frac inconsistent with Card")
		}
		// Verify the label against direct filtering.
		want := float64(sqldb.FilteredCard(db.Table("title"), q.Filters))
		if want < 1 {
			want = 1
		}
		if q.Card != want {
			t.Fatalf("single-table card %g != truth %g", q.Card, want)
		}
	}
}

func TestLikePatternsMatchSource(t *testing.T) {
	g := NewGenerator(testDB(), 7)
	// Patterns derived from a value must match that value.
	for i := 0; i < 200; i++ {
		s := "hello_world_42"
		p := g.likePattern(s)
		if !sqldb.MatchLike(s, p) {
			t.Fatalf("pattern %q does not match its source %q", p, s)
		}
	}
}

func TestLargeQueriesSkipOptimalLabel(t *testing.T) {
	g := NewGenerator(testDB(), 8)
	cfg := DefaultConfig()
	cfg.MinTables, cfg.MaxTables = MaxOptimalTables+1, MaxOptimalTables+3
	var found bool
	for i := 0; i < 10 && !found; i++ {
		q := g.GenQuery(cfg)
		if len(q.Tables) <= MaxOptimalTables {
			continue
		}
		lq, err := g.Label(q, true)
		if err != nil {
			continue
		}
		if lq.OptimalOrder != nil {
			t.Fatal("oversized query must not get optimal label")
		}
		found = true
	}
	if !found {
		t.Skip("could not generate an oversized query on this schema")
	}
}
