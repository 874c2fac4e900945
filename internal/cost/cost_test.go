package cost

import (
	"math/rand"
	"testing"

	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
)

func TestScanCostTradeoff(t *testing.T) {
	m := Default()
	// Selective predicate: index scan should win.
	if m.ChooseScanOp(100000, 10) != plan.IndexScan {
		t.Fatal("selective predicate should pick index scan")
	}
	// Unselective predicate: sequential scan should win.
	if m.ChooseScanOp(100000, 90000) != plan.SeqScan {
		t.Fatal("unselective predicate should pick seq scan")
	}
}

func TestJoinCostTradeoffs(t *testing.T) {
	m := Default()
	// Tiny outer with huge inner: nested loop beats hash (no build).
	if op := m.ChooseJoinOp(2, 1000000, 2); op != plan.NestLoopJoin {
		t.Fatalf("tiny-outer join picked %v", op)
	}
	// Two large inputs: hash join should win over nested loop.
	if op := m.ChooseJoinOp(50000, 60000, 50000); op == plan.NestLoopJoin {
		t.Fatal("large join must not pick nested loop")
	}
}

func TestJoinCostSymmetryOfHash(t *testing.T) {
	m := Default()
	a := m.JoinCost(plan.HashJoin, 100, 10000, 50)
	b := m.JoinCost(plan.HashJoin, 10000, 100, 50)
	if a != b {
		t.Fatal("hash join cost must build on the smaller side regardless of argument order")
	}
}

func TestJoinCostsPositive(t *testing.T) {
	m := Default()
	for _, op := range []plan.JoinOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin} {
		if c := m.JoinCost(op, 10, 10, 5); c <= 0 {
			t.Fatalf("%v cost %g", op, c)
		}
	}
}

// starDB builds the same 3-table star schema used in the sqldb tests.
func starDB(rng *rand.Rand) (*sqldb.DB, *sqldb.Query) {
	nA, nB, nF := 20, 15, 100
	aID := make([]int64, nA)
	for i := range aID {
		aID[i] = int64(i)
	}
	bID := make([]int64, nB)
	for i := range bID {
		bID[i] = int64(i)
	}
	fa := make([]int64, nF)
	fb := make([]int64, nF)
	fz := make([]int64, nF)
	for i := 0; i < nF; i++ {
		fa[i] = int64(rng.Intn(nA))
		fb[i] = int64(rng.Intn(nB))
		fz[i] = int64(rng.Intn(8))
	}
	db := sqldb.NewDB("star")
	db.MustAddTable(sqldb.MustNewTable("a", sqldb.IntColumn("id", aID)))
	db.MustAddTable(sqldb.MustNewTable("b", sqldb.IntColumn("id", bID)))
	db.MustAddTable(sqldb.MustNewTable("f", sqldb.IntColumn("a_id", fa), sqldb.IntColumn("b_id", fb), sqldb.IntColumn("z", fz)))
	db.MustAddEdge(sqldb.JoinEdge{T1: "a", C1: "id", T2: "f", C2: "a_id"})
	db.MustAddEdge(sqldb.JoinEdge{T1: "b", C1: "id", T2: "f", C2: "b_id"})
	q := &sqldb.Query{
		Tables: []string{"a", "b", "f"},
		Joins: []sqldb.JoinEdge{
			{T1: "a", C1: "id", T2: "f", C2: "a_id"},
			{T1: "b", C1: "id", T2: "f", C2: "b_id"},
		},
		Filters: []sqldb.Filter{{Table: "f", Col: "z", Op: sqldb.OpLt, Val: sqldb.IntVal(4)}},
	}
	return db, q
}

func TestSimulatedTimeOrderMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db, q := starDB(rng)
	ex := sqldb.NewExecutor(db, q)
	order := []string{"f", "a", "b"}
	timeOrder := SimulatedTimeOrder(ex, order)
	// The same plan as a tree: every join node contributes its exact
	// output size.
	var timePlan float64
	for _, n := range plan.LeftDeepFromOrder(order, plan.SeqScan, plan.HashJoin).Nodes() {
		if !n.IsLeaf() {
			timePlan += float64(ex.CardOf(n.Tables()))
		}
	}
	if timeOrder != timePlan {
		t.Fatalf("order time %g != plan time %g for the same left-deep plan", timeOrder, timePlan)
	}
}

func TestSimulatedTimeOrderSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, q := starDB(rng)
	ex := sqldb.NewExecutor(db, q)
	// Starting with the filtered fact table should not be worse than
	// starting with the cross-product-heavy dimension pair order.
	good := SimulatedTimeOrder(ex, []string{"f", "a", "b"})
	bad := SimulatedTimeOrder(ex, []string{"a", "b", "f"}) // a⋈b is a cross product
	if good > bad {
		t.Fatalf("C_out ordering insensitive: good=%g bad=%g", good, bad)
	}
}

func TestPlanCostPerNodeLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, q := starDB(rng)
	ex := sqldb.NewExecutor(db, q)
	m := Default()
	tree := plan.LeftDeepFromOrder([]string{"f", "a", "b"}, plan.SeqScan, plan.HashJoin)
	card := func(tables []string) float64 { return float64(ex.CardOf(tables)) }
	rows := func(name string) float64 { return float64(db.Table(name).NumRows()) }
	total, cards, costs := m.PlanCost(tree, rows, card)
	nodes := tree.Nodes()
	if len(cards) != len(nodes) || len(costs) != len(nodes) {
		t.Fatal("per-node label lengths wrong")
	}
	// Root labels come last (post-order) and the root cost is the total.
	if costs[len(costs)-1] != total {
		t.Fatal("root cumulative cost must equal total")
	}
	if cards[len(cards)-1] != float64(ex.Cardinality()) {
		t.Fatal("root card must equal query card")
	}
	// Cumulative costs never decrease from child to parent.
	pos := map[*plan.Node]int{}
	for i, n := range nodes {
		pos[n] = i
	}
	for i, n := range nodes {
		if !n.IsLeaf() {
			if costs[i] < costs[pos[n.Left]] || costs[i] < costs[pos[n.Right]] {
				t.Fatal("parent cost below child cost")
			}
		}
	}
}

func TestChooseScanOpNoFilterEdge(t *testing.T) {
	m := Default()
	if m.ChooseScanOp(0, 0) != plan.SeqScan {
		t.Fatal("degenerate table should seq scan")
	}
}
