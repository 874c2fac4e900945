// Package optimizer implements join-order optimization over a
// pluggable cardinality source:
//
//   - BestLeftDeep: exact dynamic-programming enumeration
//     minimizing the C_out objective. Driven by TrueCards it computes
//     the cost-optimal join order and thereby substitutes for the ECQO
//     program [Trummer 2019] the paper uses to label its JoinSel
//     training data (with the same exponential-cost caveat that
//     restricts labeled queries to ≤ 8 tables).
//   - Driven by EstimatedCards (the internal/stats histogram model) the
//     same DP reproduces the "PostgreSQL" baseline optimizer rows of
//     Tables 2 and 3: a textbook optimizer misled by estimation error.
//   - GreedyLeftDeep: the cheap heuristic used to produce the paper's
//     "initial plan P" fed into MTMLF-QO's featurization module.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"mtmlf/internal/cost"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
)

// CardSource supplies (estimated or exact) cardinalities of connected
// sub-plans of one query.
type CardSource interface {
	// Card returns the cardinality of the sub-query restricted to the
	// given tables.
	Card(tables []string) float64
}

// TrueCards is a CardSource backed by exact execution.
type TrueCards struct{ Ex *sqldb.Executor }

// Card implements CardSource.
func (t TrueCards) Card(tables []string) float64 { return float64(t.Ex.CardOf(tables)) }

// EstimatedCards is a CardSource backed by the PostgreSQL-style
// histogram estimator.
type EstimatedCards struct {
	S *stats.DBStats
	Q *sqldb.Query
}

// Card implements CardSource.
func (e EstimatedCards) Card(tables []string) float64 { return e.S.EstimateSubplanCard(tables, e.Q) }

// Result is an optimized plan.
type Result struct {
	// Order is the left-deep join order (first table joined first).
	// For bushy plans it is the left-to-right leaf order of Tree.
	Order []string
	// Tree is the logical plan tree.
	Tree *plan.Node
	// Cost is the C_out objective value under the card source used.
	Cost float64
}

// MaxDPTables bounds exact enumeration; beyond it the DP would blow up
// exactly as ECQO does in the paper (they restrict to 8 tables).
const MaxDPTables = 14

type dpContext struct {
	q        *sqldb.Query
	names    []string // q.Tables, fixed order
	cards    CardSource
	adj      []uint32 // adjacency bitmask per table index
	cardMemo map[uint32]float64
}

func newDPContext(q *sqldb.Query, cards CardSource) (*dpContext, error) {
	n := len(q.Tables)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: empty query")
	}
	if n > MaxDPTables {
		return nil, fmt.Errorf("optimizer: %d tables exceeds exact-DP limit %d", n, MaxDPTables)
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("optimizer: query join graph is disconnected")
	}
	ctx := &dpContext{
		q:        q,
		names:    append([]string{}, q.Tables...),
		cards:    cards,
		adj:      make([]uint32, n),
		cardMemo: map[uint32]float64{},
	}
	idx := map[string]int{}
	for i, t := range ctx.names {
		idx[t] = i
	}
	for _, e := range q.Joins {
		i, iok := idx[e.T1]
		j, jok := idx[e.T2]
		if !iok || !jok {
			return nil, fmt.Errorf("optimizer: join %v references table outside query", e)
		}
		ctx.adj[i] |= 1 << j
		ctx.adj[j] |= 1 << i
	}
	return ctx, nil
}

func (c *dpContext) tablesOf(mask uint32) []string {
	var out []string
	for i := 0; i < len(c.names); i++ {
		if mask&(1<<i) != 0 {
			out = append(out, c.names[i])
		}
	}
	return out
}

func (c *dpContext) card(mask uint32) float64 {
	if v, ok := c.cardMemo[mask]; ok {
		return v
	}
	v := c.cards.Card(c.tablesOf(mask))
	c.cardMemo[mask] = v
	return v
}

// neighbors returns the union of adjacency masks of the set.
func (c *dpContext) neighbors(mask uint32) uint32 {
	var nb uint32
	for i := 0; i < len(c.names); i++ {
		if mask&(1<<i) != 0 {
			nb |= c.adj[i]
		}
	}
	return nb &^ mask
}

// BestLeftDeep finds the C_out-optimal left-deep join order by DP over
// connected subsets.
func BestLeftDeep(q *sqldb.Query, cards CardSource) (*Result, error) {
	ctx, err := newDPContext(q, cards)
	if err != nil {
		return nil, err
	}
	n := len(ctx.names)
	full := uint32(1)<<n - 1
	bestCost := make([]float64, full+1)
	bestLast := make([]int, full+1)
	for m := range bestCost {
		bestCost[m] = math.Inf(1)
		bestLast[m] = -1
	}
	// Base cases: singletons cost nothing beyond their (shared) scans;
	// C_out counts only intermediate join results.
	for i := 0; i < n; i++ {
		bestCost[1<<i] = 0
	}
	for m := uint32(1); m <= full; m++ {
		if bits.OnesCount32(m) < 2 {
			continue
		}
		// Extend every strictly smaller prefix m\{i} with table i,
		// requiring i to be adjacent to the prefix (legality).
		for i := 0; i < n; i++ {
			bit := uint32(1) << i
			if m&bit == 0 {
				continue
			}
			prev := m &^ bit
			if prev == 0 || math.IsInf(bestCost[prev], 1) {
				continue
			}
			if ctx.neighbors(prev)&bit == 0 {
				continue // not joinable: would be a cross product
			}
			c := bestCost[prev] + ctx.card(m)
			if c < bestCost[m] {
				bestCost[m] = c
				bestLast[m] = i
			}
		}
	}
	if math.IsInf(bestCost[full], 1) {
		return nil, fmt.Errorf("optimizer: no legal left-deep order")
	}
	// Reconstruct the order.
	order := make([]string, 0, n)
	for m := full; bits.OnesCount32(m) > 1; {
		i := bestLast[m]
		order = append(order, ctx.names[i])
		m &^= 1 << i
		if bits.OnesCount32(m) == 1 {
			order = append(order, ctx.names[bits.TrailingZeros32(m)])
		}
	}
	// Reverse into join order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	if n == 1 {
		order = []string{ctx.names[0]}
	}
	return &Result{
		Order: order,
		Tree:  plan.LeftDeepFromOrder(order, plan.SeqScan, plan.HashJoin),
		Cost:  bestCost[full],
	}, nil
}

// GreedyLeftDeep builds a left-deep order by repeatedly joining the
// adjacent table that minimizes the next intermediate size. It is the
// initial-plan generator for MTMLF's input and a fast optimizer
// baseline for queries beyond the DP limit.
func GreedyLeftDeep(q *sqldb.Query, cards CardSource) (*Result, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("optimizer: empty query")
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("optimizer: query join graph is disconnected")
	}
	// Start from the smallest filtered table.
	start := q.Tables[0]
	for _, t := range q.Tables[1:] {
		if cards.Card([]string{t}) < cards.Card([]string{start}) {
			start = t
		}
	}
	order := []string{start}
	used := map[string]bool{start: true}
	var total float64
	for len(order) < len(q.Tables) {
		bestT := ""
		bestC := math.Inf(1)
		for _, t := range q.Tables {
			if used[t] {
				continue
			}
			joinable := false
			for _, e := range q.Joins {
				if e.Touches(t) && used[e.Other(t)] {
					joinable = true
					break
				}
			}
			if !joinable {
				continue
			}
			c := cards.Card(append(append([]string{}, order...), t))
			if c < bestC {
				bestC, bestT = c, t
			}
		}
		if bestT == "" {
			return nil, fmt.Errorf("optimizer: stuck extending greedy order")
		}
		order = append(order, bestT)
		used[bestT] = true
		total += bestC
	}
	return &Result{
		Order: order,
		Tree:  plan.LeftDeepFromOrder(order, plan.SeqScan, plan.HashJoin),
		Cost:  total,
	}, nil
}

// OrderCost evaluates the C_out objective of an arbitrary left-deep
// order under a card source (used to compare predicted orders without
// re-running the DP).
func OrderCost(order []string, cards CardSource) float64 {
	var total float64
	for i := 2; i <= len(order); i++ {
		total += cards.Card(order[:i])
	}
	return total
}

// PhysicalPlan annotates a logical tree with scan and join operators
// chosen by the cost model under the given card source — producing the
// fully physical "initial plan" of the paper's Figure 2 input.
func PhysicalPlan(q *sqldb.Query, db *sqldb.DB, tree *plan.Node, cards CardSource, m *cost.Model) *plan.Node {
	out := tree.Clone()
	var rec func(n *plan.Node) float64 // returns output card
	rec = func(n *plan.Node) float64 {
		if n.IsLeaf() {
			rows := float64(db.Table(n.Table).NumRows())
			outRows := cards.Card([]string{n.Table})
			if len(q.FiltersFor(n.Table)) == 0 {
				n.Scan = plan.SeqScan
			} else {
				n.Scan = m.ChooseScanOp(rows, outRows)
			}
			return outRows
		}
		l := rec(n.Left)
		r := rec(n.Right)
		outRows := cards.Card(n.Tables())
		n.Join = m.ChooseJoinOp(l, r, outRows)
		return outRows
	}
	rec(out)
	return out
}
