package optimizer

import (
	"math"
	"math/rand"
	"testing"

	"mtmlf/internal/cost"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
)

// chainDB builds a chain a - b - c - d of PK-FK joins with controllable
// sizes, plus filters to make cardinalities interesting.
func chainDB(rng *rand.Rand, sizes []int) (*sqldb.DB, *sqldb.Query) {
	names := []string{"a", "b", "c", "d", "e", "g"}[:len(sizes)]
	db := sqldb.NewDB("chain")
	for i, n := range sizes {
		cols := []*sqldb.Column{}
		ids := make([]int64, n)
		for r := range ids {
			ids[r] = int64(r)
		}
		cols = append(cols, sqldb.IntColumn("id", ids))
		if i > 0 {
			fk := make([]int64, n)
			for r := range fk {
				fk[r] = int64(rng.Intn(sizes[i-1]))
			}
			cols = append(cols, sqldb.IntColumn("prev_id", fk))
		}
		attr := make([]int64, n)
		for r := range attr {
			attr[r] = int64(rng.Intn(10))
		}
		cols = append(cols, sqldb.IntColumn("x", attr))
		db.MustAddTable(sqldb.MustNewTable(names[i], cols...))
		if i > 0 {
			db.MustAddEdge(sqldb.JoinEdge{T1: names[i-1], C1: "id", T2: names[i], C2: "prev_id"})
		}
	}
	q := &sqldb.Query{Tables: append([]string{}, names...)}
	for i := 1; i < len(names); i++ {
		q.Joins = append(q.Joins, sqldb.JoinEdge{T1: names[i-1], C1: "id", T2: names[i], C2: "prev_id"})
	}
	q.Filters = []sqldb.Filter{
		{Table: names[0], Col: "x", Op: sqldb.OpLt, Val: sqldb.IntVal(3)},
		{Table: names[len(names)-1], Col: "x", Op: sqldb.OpGe, Val: sqldb.IntVal(5)},
	}
	return db, q
}

// bruteForceBestLeftDeep enumerates every legal permutation.
func bruteForceBestLeftDeep(q *sqldb.Query, cards CardSource) ([]string, float64) {
	n := len(q.Tables)
	best := math.Inf(1)
	var bestOrder []string
	adj := map[string]map[string]bool{}
	for _, e := range q.Joins {
		if adj[e.T1] == nil {
			adj[e.T1] = map[string]bool{}
		}
		if adj[e.T2] == nil {
			adj[e.T2] = map[string]bool{}
		}
		adj[e.T1][e.T2] = true
		adj[e.T2][e.T1] = true
	}
	perm := make([]string, 0, n)
	used := make([]bool, n)
	var rec func(costSoFar float64)
	rec = func(costSoFar float64) {
		if len(perm) == n {
			if costSoFar < best {
				best = costSoFar
				bestOrder = append([]string{}, perm...)
			}
			return
		}
		for i, t := range q.Tables {
			if used[i] {
				continue
			}
			if len(perm) > 0 {
				connected := false
				for _, p := range perm {
					if adj[t][p] {
						connected = true
						break
					}
				}
				if !connected {
					continue
				}
			}
			used[i] = true
			perm = append(perm, t)
			add := 0.0
			if len(perm) >= 2 {
				add = cards.Card(perm)
			}
			rec(costSoFar + add)
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	rec(0)
	return bestOrder, best
}

func TestBestLeftDeepMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 10; iter++ {
		sizes := []int{20 + rng.Intn(30), 30 + rng.Intn(40), 30 + rng.Intn(40), 20 + rng.Intn(30)}
		db, q := chainDB(rng, sizes)
		ex := sqldb.NewExecutor(db, q)
		cards := TrueCards{Ex: ex}
		res, err := BestLeftDeep(q, cards)
		if err != nil {
			t.Fatal(err)
		}
		_, bfCost := bruteForceBestLeftDeep(q, cards)
		if math.Abs(res.Cost-bfCost) > 1e-9 {
			t.Fatalf("iter %d: DP cost %g != brute force %g (order %v)", iter, res.Cost, bfCost, res.Order)
		}
		// The reported cost must equal the replayed C_out of the order.
		if math.Abs(OrderCost(res.Order, cards)-res.Cost) > 1e-9 {
			t.Fatalf("iter %d: OrderCost mismatch", iter)
		}
	}
}

func TestGreedyLeftDeepLegalAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, q := chainDB(rng, []int{30, 40, 50, 30})
	ex := sqldb.NewExecutor(db, q)
	res, err := GreedyLeftDeep(q, TrueCards{Ex: ex})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != len(q.Tables) {
		t.Fatal("greedy order incomplete")
	}
	// Every prefix of the order must be connected (legality).
	for i := 2; i <= len(res.Order); i++ {
		sub := &sqldb.Query{Tables: res.Order[:i], Joins: q.JoinsAmong(res.Order[:i])}
		if !sub.IsConnected() {
			t.Fatalf("greedy prefix %v disconnected", res.Order[:i])
		}
	}
	// Greedy is never better than exact DP.
	best, err := BestLeftDeep(q, TrueCards{Ex: ex})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < best.Cost-1e-9 {
		t.Fatalf("greedy %g beat exact DP %g", res.Cost, best.Cost)
	}
}

func TestEstimatedCardsProduceDifferentPlans(t *testing.T) {
	// With skewed correlated data the estimator's order can differ
	// from the true-card order; at minimum it must be legal and the
	// DP must succeed.
	rng := rand.New(rand.NewSource(4))
	db, q := chainDB(rng, []int{50, 60, 70, 40})
	st := stats.Analyze(db)
	res, err := BestLeftDeep(q, EstimatedCards{S: st, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 4 {
		t.Fatal("estimated plan incomplete")
	}
	// Evaluate under TRUE cards: must be >= true optimum.
	ex := sqldb.NewExecutor(db, q)
	trueCards := TrueCards{Ex: ex}
	opt, _ := BestLeftDeep(q, trueCards)
	if OrderCost(res.Order, trueCards) < opt.Cost-1e-9 {
		t.Fatal("estimated plan beat the true optimum under true cards")
	}
}

func TestDPRejectsDisconnectedAndOversized(t *testing.T) {
	q := &sqldb.Query{Tables: []string{"a", "b"}}
	if _, err := BestLeftDeep(q, nil); err == nil {
		t.Fatal("disconnected query must error")
	}
	big := &sqldb.Query{}
	for i := 0; i < MaxDPTables+1; i++ {
		big.Tables = append(big.Tables, string(rune('a'+i)))
	}
	if _, err := BestLeftDeep(big, nil); err == nil {
		t.Fatal("oversized query must error")
	}
	if _, err := BestLeftDeep(&sqldb.Query{}, nil); err == nil {
		t.Fatal("empty query must error")
	}
}

func TestSingleTableQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, _ := chainDB(rng, []int{10, 10})
	q := &sqldb.Query{Tables: []string{"a"}}
	ex := sqldb.NewExecutor(db, q)
	res, err := BestLeftDeep(q, TrueCards{Ex: ex})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 1 || res.Order[0] != "a" || res.Cost != 0 {
		t.Fatalf("single-table result wrong: %+v", res)
	}
}

func TestPhysicalPlanAnnotation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db, q := chainDB(rng, []int{40, 50, 60, 30})
	ex := sqldb.NewExecutor(db, q)
	cards := TrueCards{Ex: ex}
	res, err := BestLeftDeep(q, cards)
	if err != nil {
		t.Fatal(err)
	}
	phys := PhysicalPlan(q, db, res.Tree, cards, cost.Default())
	if phys.Shape() != res.Tree.Shape() {
		t.Fatal("physical annotation changed tree shape")
	}
	// Unfiltered tables must be sequential scans.
	for _, n := range phys.Nodes() {
		if n.IsLeaf() && len(q.FiltersFor(n.Table)) == 0 && n.Scan != 0 {
			t.Fatalf("unfiltered %s got %v", n.Table, n.Scan)
		}
	}
}

func TestOrderCostEmptyAndPair(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, q := chainDB(rng, []int{10, 12})
	ex := sqldb.NewExecutor(db, q)
	cards := TrueCards{Ex: ex}
	if OrderCost([]string{"a"}, cards) != 0 {
		t.Fatal("single-table order must cost 0")
	}
	want := cards.Card([]string{"a", "b"})
	if OrderCost([]string{"a", "b"}, cards) != want {
		t.Fatal("pair order cost wrong")
	}
}
