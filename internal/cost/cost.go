// Package cost implements a PostgreSQL-style operator cost model and
// the simulated-execution-time oracle used by Tables 2 and 3. Since
// the real PostgreSQL testbed is unavailable, "execution time" for a
// join order is the standard C_out proxy from the join-ordering
// literature (Leis et al., "How Good Are Query Optimizers, Really?"):
// the sum of all intermediate result sizes plus scan costs, computed
// over exact cardinalities by actually executing the joins in
// internal/sqldb. This preserves exactly what Tables 2–3 measure: how
// much worse a chosen join order is than the optimal one.
package cost

import (
	"math"

	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
)

// Model holds the operator cost coefficients, loosely mirroring
// PostgreSQL's seq_page_cost / random_page_cost / cpu_tuple_cost
// family.
type Model struct {
	CPUTuple    float64 // per input tuple processed
	HashBuild   float64 // per build-side tuple of a hash join
	RandomPage  float64 // per index probe
	SortFactor  float64 // merge join sort multiplier (n log n)
	NestedInner float64 // nested-loop per (outer x inner) pair
	OutputTuple float64 // per output tuple materialized
}

// Default returns coefficients that reproduce the usual operator
// trade-offs: index scans win on selective predicates, hash joins win
// on large equijoins, nested loops win with a tiny outer side.
func Default() *Model {
	return &Model{
		CPUTuple:    1.0,
		HashBuild:   1.5,
		RandomPage:  4.0,
		SortFactor:  0.2,
		NestedInner: 0.01,
		OutputTuple: 1.0,
	}
}

// ScanCost prices scanning a table of tableRows producing outRows.
//
// Every product a sum adds is rounded explicitly, float64(a*b): the
// conversion keeps a port from fusing it into one FMA, so the cost
// labels are the same bits on every CPU.
func (m *Model) ScanCost(op plan.ScanOp, tableRows, outRows float64) float64 {
	switch op {
	case plan.IndexScan:
		return float64(m.RandomPage*outRows) + math.Log2(tableRows+2)
	default:
		return m.CPUTuple * tableRows
	}
}

// JoinCost prices joining inputs of the given sizes producing outRows.
func (m *Model) JoinCost(op plan.JoinOp, leftRows, rightRows, outRows float64) float64 {
	switch op {
	case plan.MergeJoin:
		sort := func(n float64) float64 { return m.SortFactor * n * math.Log2(n+2) }
		return float64(sort(leftRows)) + float64(sort(rightRows)) + float64(m.CPUTuple*(leftRows+rightRows)) + float64(m.OutputTuple*outRows)
	case plan.NestLoopJoin:
		return float64(m.CPUTuple*leftRows) + float64(m.NestedInner*leftRows*rightRows) + float64(m.OutputTuple*outRows)
	default: // HashJoin
		build, probe := leftRows, rightRows
		if probe < build {
			build, probe = probe, build
		}
		return float64(m.HashBuild*build) + float64(m.CPUTuple*probe) + float64(m.OutputTuple*outRows)
	}
}

// ChooseScanOp picks the cheaper scan operator for a predicate with
// the given filtered fraction, mimicking the optimizer heuristic the
// paper cites as transferable meta knowledge ("index scan for
// high-selectivity predicates, sequential scan for low-selectivity").
func (m *Model) ChooseScanOp(tableRows, outRows float64) plan.ScanOp {
	if tableRows <= 0 {
		return plan.SeqScan
	}
	if m.ScanCost(plan.IndexScan, tableRows, outRows) < m.ScanCost(plan.SeqScan, tableRows, outRows) {
		return plan.IndexScan
	}
	return plan.SeqScan
}

// ChooseJoinOp picks the cheapest join operator for the given input
// and output sizes.
func (m *Model) ChooseJoinOp(leftRows, rightRows, outRows float64) plan.JoinOp {
	best := plan.HashJoin
	bestC := m.JoinCost(plan.HashJoin, leftRows, rightRows, outRows)
	for _, op := range []plan.JoinOp{plan.MergeJoin, plan.NestLoopJoin} {
		if c := m.JoinCost(op, leftRows, rightRows, outRows); c < bestC {
			best, bestC = op, c
		}
	}
	return best
}

// CardFunc supplies the cardinality of the sub-plan rooted at a set of
// tables. Implementations: exact execution (sqldb.Executor) or the
// stats estimator.
type CardFunc func(tables []string) float64

// PlanCost prices a whole plan tree: per-node operator costs over the
// cardinalities returned by card. It returns the total and the
// per-node output cardinality and cumulative cost, indexed in
// post-order (matching Node.Nodes) — exactly the labels the paper's
// modified CardEst/CostEst tasks need ("estimate the cardinality and
// cost of the sub-plan rooted at each node of P").
func (m *Model) PlanCost(root *plan.Node, tableRows func(string) float64, card CardFunc) (total float64, nodeCards, nodeCosts []float64) {
	// rec returns a node's tables, output card and cumulative cost, and
	// appends the last two in post-order, the order of Node.Nodes.
	var rec func(n *plan.Node) ([]string, float64, float64)
	rec = func(n *plan.Node) ([]string, float64, float64) {
		var tabs []string
		var out, c float64
		if n.IsLeaf() {
			tabs = []string{n.Table}
			out = card(tabs)
			c = m.ScanCost(n.Scan, tableRows(n.Table), out)
		} else {
			lt, lcard, lcost := rec(n.Left)
			rt, rcard, rcost := rec(n.Right)
			tabs = append(append([]string{}, lt...), rt...)
			out = card(tabs)
			c = lcost + rcost + m.JoinCost(n.Join, lcard, rcard, out)
		}
		nodeCards, nodeCosts = append(nodeCards, out), append(nodeCosts, c)
		return tabs, out, c
	}
	_, _, total = rec(root)
	return total, nodeCards, nodeCosts
}

// ---------------------------------------------------------------------------
// Simulated execution time (the Table 2 / Table 3 oracle)
// ---------------------------------------------------------------------------

// SimulatedTimeOrder "executes" a left-deep join order against the
// engine and returns its C_out time: the sum of every intermediate
// join result size (the standard convention of Leis et al. — scan
// costs are identical under every order and are excluded so the
// metric isolates what the join order controls). Lower is better; the
// optimal join order minimizes it by construction.
func SimulatedTimeOrder(ex *sqldb.Executor, order []string) float64 {
	var t float64
	for i := 2; i <= len(order); i++ {
		t += float64(ex.CardOf(order[:i]))
	}
	return t
}
