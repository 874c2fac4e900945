// Package stats implements a PostgreSQL-style statistics collector and
// cardinality estimator: per-column most-common values, equi-depth
// histograms, distinct counts, attribute-independence selectivity
// composition and the distinct-count join formula. It plays the role
// of the "PostgreSQL" baseline row in the paper's Table 1 and supplies
// the estimates that drive the baseline query optimizer in Tables 2–3.
//
// Its deliberate modeling assumptions (independence between columns,
// uniformity outside MCVs, a default selectivity for LIKE patterns)
// are exactly the assumptions whose failure on skewed, correlated data
// motivates learned estimators; keeping them faithful is what lets the
// reproduction show the paper's PostgreSQL-vs-learned gap.
package stats

import (
	"math"
	"sort"

	"mtmlf/internal/sqldb"
)

// DefaultMCVs is the number of most-common values tracked per column.
const DefaultMCVs = 16

// DefaultHistBuckets is the number of equi-depth histogram buckets.
const DefaultHistBuckets = 32

// defaultLikeSel is the fallback selectivity for the un-sampled
// remainder of a LIKE pattern (PostgreSQL's DEFAULT_MATCH_SEL spirit).
const defaultLikeSel = 0.005

// ColumnStats summarizes one column.
type ColumnStats struct {
	Kind     sqldb.Kind
	RowCount int64
	Distinct int64
	// MCVs and MCVFreqs hold the most common values and their
	// frequencies (fractions of the table).
	MCVs     []sqldb.Value
	MCVFreqs []float64
	// Bounds is an equi-depth histogram over the numeric values not
	// covered by the MCV list; empty for string columns.
	Bounds []float64
	// Min and Max cover all numeric values.
	Min, Max float64
}

// mcvMass returns the total frequency mass captured by the MCV list.
func (c *ColumnStats) mcvMass() float64 {
	var s float64
	for _, f := range c.MCVFreqs {
		s += f
	}
	return s
}

// TableStats summarizes one table.
type TableStats struct {
	RowCount int64
	Cols     map[string]*ColumnStats
}

// DBStats holds ANALYZE results for every table of a database. It is
// the (cheap, database-specific) product of the paper's "ANALYZE"-like
// local step in the user-side workflow (Section 2.3).
type DBStats struct {
	Tables map[string]*TableStats
}

// Analyze scans the database and builds statistics, like PostgreSQL's
// ANALYZE (but exact rather than sampled: our tables are small).
func Analyze(db *sqldb.DB) *DBStats {
	return AnalyzeWith(db, DefaultMCVs, DefaultHistBuckets)
}

// AnalyzeWith is Analyze with explicit MCV and bucket counts.
func AnalyzeWith(db *sqldb.DB, numMCV, buckets int) *DBStats {
	out := &DBStats{Tables: map[string]*TableStats{}}
	for _, t := range db.Tables {
		ts := &TableStats{RowCount: int64(t.NumRows()), Cols: map[string]*ColumnStats{}}
		for _, c := range t.Columns {
			ts.Cols[c.Name] = analyzeColumn(c, numMCV, buckets)
		}
		out.Tables[t.Name] = ts
	}
	return out
}

func analyzeColumn(c *sqldb.Column, numMCV, buckets int) *ColumnStats {
	n := c.Len()
	cs := &ColumnStats{Kind: c.Kind, RowCount: int64(n)}
	if n == 0 {
		return cs
	}
	// Count value frequencies.
	freq := make(map[sqldb.Value]int, 64)
	for i := 0; i < n; i++ {
		freq[c.Value(i)]++
	}
	cs.Distinct = int64(len(freq))

	type vf struct {
		v sqldb.Value
		f int
	}
	all := make([]vf, 0, len(freq))
	for v, f := range freq {
		all = append(all, vf{v, f})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].f != all[j].f {
			return all[i].f > all[j].f
		}
		return all[i].v.Less(all[j].v)
	})
	k := numMCV
	if k > len(all) {
		k = len(all)
	}
	mcvSet := make(map[sqldb.Value]bool, k)
	for i := 0; i < k; i++ {
		cs.MCVs = append(cs.MCVs, all[i].v)
		cs.MCVFreqs = append(cs.MCVFreqs, float64(all[i].f)/float64(n))
		mcvSet[all[i].v] = true
	}

	if c.Kind == sqldb.KindString {
		return cs
	}
	// Numeric histogram over non-MCV values.
	var nums []float64
	for i := 0; i < n; i++ {
		v := c.Value(i)
		x := numeric(v)
		if i == 0 || x < cs.Min {
			cs.Min = x
		}
		if i == 0 || x > cs.Max {
			cs.Max = x
		}
		if !mcvSet[v] {
			nums = append(nums, x)
		}
	}
	if len(nums) > 1 {
		sort.Float64s(nums)
		b := buckets
		if b > len(nums)-1 {
			b = len(nums) - 1
		}
		if b < 1 {
			b = 1
		}
		cs.Bounds = make([]float64, b+1)
		for i := 0; i <= b; i++ {
			idx := i * (len(nums) - 1) / b
			cs.Bounds[i] = nums[idx]
		}
	}
	return cs
}

func numeric(v sqldb.Value) float64 {
	if v.Kind == sqldb.KindInt {
		return float64(v.I)
	}
	return v.F
}

// ---------------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------------

// Selectivity estimates the fraction of a table's rows satisfying the
// filter, using MCVs for equality, histogram interpolation for ranges,
// and MCV sampling + a default for LIKE.
func (s *DBStats) Selectivity(f sqldb.Filter) float64 {
	ts, ok := s.Tables[f.Table]
	if !ok {
		return 1
	}
	cs, ok := ts.Cols[f.Col]
	if !ok || cs.RowCount == 0 {
		return 1
	}
	sel := cs.selectivity(f)
	return clamp01(sel)
}

func (c *ColumnStats) selectivity(f sqldb.Filter) float64 {
	switch f.Op {
	case sqldb.OpEq:
		return c.eqSel(f.Val)
	case sqldb.OpNeq:
		return 1 - c.eqSel(f.Val)
	case sqldb.OpLt, sqldb.OpLe, sqldb.OpGt, sqldb.OpGe:
		return c.rangeSel(f.Op, f.Val)
	case sqldb.OpLike:
		return c.likeSel(f.Val.S)
	default:
		return 1
	}
}

func (c *ColumnStats) eqSel(v sqldb.Value) float64 {
	for i, m := range c.MCVs {
		if m.Equal(v) {
			return c.MCVFreqs[i]
		}
	}
	rest := float64(c.Distinct) - float64(len(c.MCVs))
	if rest <= 0 {
		return 0
	}
	return (1 - c.mcvMass()) / rest
}

func (c *ColumnStats) rangeSel(op sqldb.Op, v sqldb.Value) float64 {
	if c.Kind == sqldb.KindString {
		// Strings: only MCV mass is usable.
		return c.mcvRangeFraction(op, v) // plus nothing for the rest
	}
	x := numeric(v)
	// Fraction below x among MCVs...
	var mcvBelow, mcvMass float64
	for i, m := range c.MCVs {
		mcvMass += c.MCVFreqs[i]
		if numeric(m) < x {
			mcvBelow += c.MCVFreqs[i]
		}
	}
	// ...and among histogram (non-MCV) values.
	histBelow := histFractionBelow(c.Bounds, x)
	// float64(a*b) rounds the product, so no port fuses it into an FMA.
	below := mcvBelow + float64(histBelow*(1-mcvMass))
	eq := c.eqSel(v)
	switch op {
	case sqldb.OpLt:
		return below
	case sqldb.OpLe:
		return below + eq
	case sqldb.OpGt:
		return 1 - below - eq
	case sqldb.OpGe:
		return 1 - below
	}
	return 1
}

func (c *ColumnStats) mcvRangeFraction(op sqldb.Op, v sqldb.Value) float64 {
	var s float64
	for i, m := range c.MCVs {
		match := false
		switch op {
		case sqldb.OpLt:
			match = m.Less(v)
		case sqldb.OpLe:
			match = m.Less(v) || m.Equal(v)
		case sqldb.OpGt:
			match = v.Less(m)
		case sqldb.OpGe:
			match = v.Less(m) || m.Equal(v)
		}
		if match {
			s += c.MCVFreqs[i]
		}
	}
	return s
}

func histFractionBelow(bounds []float64, x float64) float64 {
	if len(bounds) < 2 {
		return 0.5
	}
	if x <= bounds[0] {
		return 0
	}
	last := len(bounds) - 1
	if x >= bounds[last] {
		return 1
	}
	// Locate the bucket and interpolate linearly within it.
	i := sort.SearchFloat64s(bounds, x)
	lo, hi := bounds[i-1], bounds[i]
	frac := 0.5
	if hi > lo {
		frac = (x - lo) / (hi - lo)
	}
	return (float64(i-1) + frac) / float64(last)
}

// likeSel estimates a LIKE pattern: the MCV list is matched exactly
// (PostgreSQL samples its MCVs the same way), and the remaining mass
// gets the default pattern selectivity.
func (c *ColumnStats) likeSel(pattern string) float64 {
	var matched float64
	for i, m := range c.MCVs {
		if sqldb.MatchLike(m.S, pattern) {
			matched += c.MCVFreqs[i]
		}
	}
	return matched + float64((1-c.mcvMass())*defaultLikeSel)
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

// EstimateTableCard estimates the filtered cardinality of one table
// under attribute independence (selectivities multiply).
func (s *DBStats) EstimateTableCard(table string, filters []sqldb.Filter) float64 {
	ts, ok := s.Tables[table]
	if !ok {
		return 1
	}
	card := float64(ts.RowCount)
	for _, f := range filters {
		card *= s.Selectivity(f)
	}
	if card < 1 {
		card = 1
	}
	return card
}

// joinSel returns the classic distinct-count join selectivity
// 1 / max(ndv(left), ndv(right)) for one equality edge.
func (s *DBStats) joinSel(e sqldb.JoinEdge) float64 {
	nd := func(t, c string) float64 {
		if ts, ok := s.Tables[t]; ok {
			if cs, ok := ts.Cols[c]; ok && cs.Distinct > 0 {
				return float64(cs.Distinct)
			}
		}
		return 1
	}
	m := math.Max(nd(e.T1, e.C1), nd(e.T2, e.C2))
	return 1 / m
}

// EstimateSubplanCard estimates the cardinality of the sub-query of q
// restricted to the given tables: the product of filtered table cards
// times the join selectivity of every in-subset edge. This is the
// textbook System-R / PostgreSQL estimate used by the baseline
// optimizer.
func (s *DBStats) EstimateSubplanCard(tables []string, q *sqldb.Query) float64 {
	card := 1.0
	for _, t := range tables {
		card *= s.EstimateTableCard(t, q.FiltersFor(t))
	}
	for _, e := range q.JoinsAmong(tables) {
		card *= s.joinSel(e)
	}
	if card < 1 {
		card = 1
	}
	return card
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
