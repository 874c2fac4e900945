// Package workload generates JOB-like query workloads over a database
// and labels them with ground truth: the true cardinality and cost of
// every node of an initial plan (the paper's modified CardEst/CostEst
// targets), and the optimal join order for queries of up to 8 tables
// (the paper's ECQO-labeled JoinSel targets, with the same 8-table
// affordability limit).
//
// Generation is deterministic: a Generator is one rng stream, so the
// same (catalog, seed, config) produce the same labeled workload — the
// property the corpus format and the bitwise training contracts
// (DESIGN.md §5) build on. Labeled examples flow to trainers through
// the Source interface (in-memory slices or a streaming corpus reader
// interchangeably).
//
// The same Generator also feeds the serving side: mtmlf-serve's
// /example endpoint and the load generator's query pool
// (internal/loadgen) draw unlabeled queries from it, so served
// traffic has the training workload's shape.
package workload

import (
	"fmt"
	"math/rand"

	"mtmlf/internal/catalog"
	"mtmlf/internal/cost"
	"mtmlf/internal/optimizer"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
)

// MaxOptimalTables is the largest query size labeled with an optimal
// join order (the paper can only afford ECQO for ≤ 8-table queries).
const MaxOptimalTables = 8

// Config controls query generation.
type Config struct {
	// MinTables and MaxTables bound the number of joined tables.
	MinTables, MaxTables int
	// MaxFilteredTables bounds how many tables receive filters.
	MaxFilteredTables int
	// FilterProb is the probability each eligible table (up to
	// MaxFilteredTables) receives filters; at least one table always
	// does. JOB queries filter most of their tables, which is what
	// makes multi-way join estimates compound errors.
	FilterProb float64
	// MaxFiltersPerTable bounds filters on one table.
	MaxFiltersPerTable int
	// LikeProb is the probability a string column filter uses LIKE.
	LikeProb float64
	// WithOptimal requests optimal join-order labels (queries above
	// MaxOptimalTables are still generated but left unlabeled).
	WithOptimal bool
	// MinResultRows rejects generated queries whose true result has
	// fewer rows (empty results make every estimator trivially exact
	// and every join order equally cheap). Default 1.
	MinResultRows int
}

// DefaultConfig mirrors the paper's JOB-like generation: joins of a
// handful of tables with correlated filters and LIKE predicates.
func DefaultConfig() Config {
	return Config{
		MinTables:          2,
		MaxTables:          6,
		MaxFilteredTables:  4,
		MaxFiltersPerTable: 2,
		FilterProb:         0.8,
		LikeProb:           0.6,
		WithOptimal:        true,
		MinResultRows:      1,
	}
}

// LabeledQuery is one training/evaluation example.
type LabeledQuery struct {
	Q *sqldb.Query
	// Plan is the initial physical plan P fed to MTMLF's featurization
	// module (built by the estimate-driven greedy optimizer, playing
	// the paper's "existing DBMS provides the initial plan" role).
	Plan *plan.Node
	// NodeCards and NodeCosts hold the TRUE cardinality and cumulative
	// cost of the sub-plan rooted at each node of Plan, in post-order
	// (aligned with Plan.Nodes()); cards are clamped to >= 1 for
	// q-error.
	NodeCards []float64
	NodeCosts []float64
	// Card and Cost are the root labels.
	Card, Cost float64
	// RawCard is the unclamped true root cardinality (0 for empty
	// results, where Card is clamped to 1).
	RawCard float64
	// OptimalOrder is the C_out-optimal left-deep join order, or nil
	// when the query exceeds MaxOptimalTables.
	OptimalOrder []string
}

// Generator produces labeled queries for one database.
type Generator struct {
	DB    *sqldb.DB
	Stats *stats.DBStats
	Cost  *cost.Model
	rng   *rand.Rand
}

// NewGenerator analyzes the database and prepares a generator.
func NewGenerator(db *sqldb.DB, seed int64) *Generator {
	return NewGeneratorFrom(catalog.NewMemory(db), seed)
}

// NewGeneratorFrom prepares a generator over any catalog backend,
// reusing the catalog's (computed-once) statistics instead of running
// a fresh ANALYZE pass.
func NewGeneratorFrom(cat catalog.Catalog, seed int64) *Generator {
	return &Generator{
		DB:    cat.DB(),
		Stats: cat.Stats(),
		Cost:  cost.Default(),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// GenQuery builds one random connected join query with filters.
func (g *Generator) GenQuery(cfg Config) *sqldb.Query {
	for attempt := 0; attempt < 50; attempt++ {
		q := g.tryGenQuery(cfg)
		if q != nil {
			return q
		}
	}
	panic("workload: failed to generate a connected query; join graph too sparse")
}

func (g *Generator) tryGenQuery(cfg Config) *sqldb.Query {
	want := cfg.MinTables + g.rng.Intn(cfg.MaxTables-cfg.MinTables+1)
	// Random walk over the join graph collecting a spanning tree.
	start := g.DB.Tables[g.rng.Intn(len(g.DB.Tables))].Name
	chosen := []string{start}
	inSet := map[string]bool{start: true}
	var joins []sqldb.JoinEdge
	for len(chosen) < want {
		// Collect frontier edges.
		var frontier []sqldb.JoinEdge
		for _, e := range g.DB.Edges {
			if inSet[e.T1] != inSet[e.T2] {
				frontier = append(frontier, e)
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[g.rng.Intn(len(frontier))]
		next := e.T1
		if inSet[e.T1] {
			next = e.T2
		}
		chosen = append(chosen, next)
		inSet[next] = true
		joins = append(joins, e)
	}
	if len(chosen) < cfg.MinTables {
		return nil
	}
	q := &sqldb.Query{Tables: chosen, Joins: joins}
	g.addFilters(q, cfg)
	return q
}

// addFilters attaches random filters drawn from actual column values,
// so selectivities span a wide range (as in JOB).
func (g *Generator) addFilters(q *sqldb.Query, cfg Config) {
	prob := cfg.FilterProb
	if prob <= 0 {
		prob = 0.8
	}
	perm := g.rng.Perm(len(q.Tables))
	filtered := 0
	for i := 0; i < len(q.Tables) && filtered < cfg.MaxFilteredTables; i++ {
		// The first eligible table is always filtered; the rest with
		// probability prob, as JOB queries filter most tables.
		if filtered > 0 && g.rng.Float64() > prob {
			continue
		}
		table := q.Tables[perm[i]]
		tab := g.DB.Table(table)
		candidates := g.filterableColumns(q, tab)
		if len(candidates) == 0 {
			continue
		}
		// At most one filter per column: stacked predicates on the same
		// column are usually contradictory and empty the result.
		k := 1 + g.rng.Intn(cfg.MaxFiltersPerTable)
		if k > len(candidates) {
			k = len(candidates)
		}
		colPerm := g.rng.Perm(len(candidates))
		for j := 0; j < k; j++ {
			col := candidates[colPerm[j]]
			if f, ok := g.randomFilter(table, col, cfg); ok {
				q.Filters = append(q.Filters, f)
			}
		}
		filtered++
	}
}

// filterableColumns returns non-key columns of the table (keys get
// their semantics from joins, not filters).
func (g *Generator) filterableColumns(q *sqldb.Query, tab *sqldb.Table) []*sqldb.Column {
	keyCols := map[string]bool{"id": true}
	for _, e := range g.DB.Edges {
		if e.T1 == tab.Name {
			keyCols[e.C1] = true
		}
		if e.T2 == tab.Name {
			keyCols[e.C2] = true
		}
	}
	var out []*sqldb.Column
	for _, c := range tab.Columns {
		if !keyCols[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

func (g *Generator) randomFilter(table string, col *sqldb.Column, cfg Config) (sqldb.Filter, bool) {
	if col.Len() == 0 {
		return sqldb.Filter{}, false
	}
	sample := col.Value(g.rng.Intn(col.Len()))
	switch col.Kind {
	case sqldb.KindString:
		// Equality on a near-unique string column selects ~one row and
		// empties the join; prefer LIKE there (as JOB does).
		if g.rng.Float64() < cfg.LikeProb || g.Stats.Tables[table].Cols[col.Name].Distinct > 30 {
			return sqldb.Filter{Table: table, Col: col.Name, Op: sqldb.OpLike, Val: sqldb.StrVal(g.likePattern(sample.S))}, true
		}
		return sqldb.Filter{Table: table, Col: col.Name, Op: sqldb.OpEq, Val: sample}, true
	default:
		ops := []sqldb.Op{sqldb.OpEq, sqldb.OpLe, sqldb.OpGe, sqldb.OpLt, sqldb.OpGt}
		op := ops[g.rng.Intn(len(ops))]
		if op == sqldb.OpEq && g.Stats.Tables[table].Cols[col.Name].Distinct > 40 {
			// Equality on a wide numeric domain is near-empty; use a
			// range instead.
			op = sqldb.OpLe
		}
		return sqldb.Filter{Table: table, Col: col.Name, Op: op, Val: sample}, true
	}
}

// likePattern derives a LIKE pattern from a sampled value: a prefix,
// suffix, or infix pattern, as in JOB's "complex LIKE predicates".
func (g *Generator) likePattern(s string) string {
	if len(s) < 3 {
		return "%" + s + "%"
	}
	switch g.rng.Intn(3) {
	case 0: // prefix
		n := 2 + g.rng.Intn(len(s)-2)
		return s[:n] + "%"
	case 1: // suffix
		n := 2 + g.rng.Intn(len(s)-2)
		return "%" + s[len(s)-n:]
	default: // infix
		lo := g.rng.Intn(len(s) - 2)
		hi := lo + 2 + g.rng.Intn(len(s)-lo-2+1)
		if hi > len(s) {
			hi = len(s)
		}
		return "%" + s[lo:hi] + "%"
	}
}

// Label computes all ground-truth labels for a query.
func (g *Generator) Label(q *sqldb.Query, withOptimal bool) (*LabeledQuery, error) {
	ex := sqldb.NewExecutor(g.DB, q)
	est := optimizer.EstimatedCards{S: g.Stats, Q: q}

	// Initial plan from the estimate-driven greedy optimizer with
	// physical operators chosen by the cost model.
	greedy, err := optimizer.GreedyLeftDeep(q, est)
	if err != nil {
		return nil, fmt.Errorf("workload: initial plan: %w", err)
	}
	physical := optimizer.PhysicalPlan(q, g.DB, greedy.Tree, est, g.Cost)

	// True per-node labels.
	trueCard := func(tables []string) float64 {
		c := float64(ex.CardOf(tables))
		if c < 1 {
			c = 1
		}
		return c
	}
	rows := func(name string) float64 { return float64(g.DB.Table(name).NumRows()) }
	total, nodeCards, nodeCosts := g.Cost.PlanCost(physical, rows, trueCard)

	lq := &LabeledQuery{
		Q:         q,
		Plan:      physical,
		NodeCards: nodeCards,
		NodeCosts: nodeCosts,
		Card:      nodeCards[len(nodeCards)-1],
		Cost:      total,
		RawCard:   float64(ex.Cardinality()),
	}
	if withOptimal && len(q.Tables) <= MaxOptimalTables {
		opt, err := optimizer.BestLeftDeep(q, optimizer.TrueCards{Ex: ex})
		if err != nil {
			return nil, fmt.Errorf("workload: optimal order: %w", err)
		}
		lq.OptimalOrder = opt.Order
	}
	if err := ex.Err(); err != nil {
		return nil, fmt.Errorf("workload: true cardinality: %w", err)
	}
	return lq, nil
}

// Generate produces n labeled queries with non-degenerate results.
func (g *Generator) Generate(n int, cfg Config) []*LabeledQuery {
	minRows := cfg.MinResultRows
	if minRows <= 0 {
		minRows = 1
	}
	out := make([]*LabeledQuery, 0, n)
	misses := 0
	for len(out) < n {
		q := g.GenQuery(cfg)
		lq, err := g.Label(q, cfg.WithOptimal)
		if err != nil {
			continue // sparse corner (stuck greedy, uncountable); resample
		}
		if lq.RawCard < float64(minRows) {
			// Empty/near-empty result: resample, but relax after many
			// consecutive misses so pathological schemas still make
			// progress.
			misses++
			if misses < 200 {
				continue
			}
		}
		misses = 0
		out = append(out, lq)
	}
	return out
}

// Split partitions queries into train/validation/test by fractions
// (e.g. 0.9/0.05/0.05 or the paper's 85/10/5 JoinSel split).
func Split(qs []*LabeledQuery, trainFrac, valFrac float64) (train, val, test []*LabeledQuery) {
	nTrain := int(float64(len(qs)) * trainFrac)
	nVal := int(float64(len(qs)) * valFrac)
	train = qs[:nTrain]
	val = qs[nTrain : nTrain+nVal]
	test = qs[nTrain+nVal:]
	return train, val, test
}

// SingleTableQuery is a filter-only query on one table with its true
// selectivity — the training data for the paper's per-table encoders
// Enc_i (F.ii), which "learn the data distribution of T_i through
// predicting the cardinality of filter predicate f(T_i)".
type SingleTableQuery struct {
	Table   string
	Filters []sqldb.Filter
	// Card is the true filtered cardinality (clamped to >= 1).
	Card float64
	// Frac is Card divided by the table's row count.
	Frac float64
}

// TableWorkload pairs one table with its labeled single-table
// workload — the unit of the encoder pre-training data set, and the
// record a corpus's single-table section stores so training runs
// can skip regenerating it.
type TableWorkload struct {
	Table   string
	Queries []SingleTableQuery
}

// GenPretrainSet generates the per-table encoder pre-training
// workloads (a corpus's single-table section, which
// featurize.PretrainAllFrom trains from) for every table of the
// generator's database, in table order, as one GenSingleTable draw
// per table from the generator's rng stream.
func (g *Generator) GenPretrainSet(perTable int, cfg Config) []TableWorkload {
	out := make([]TableWorkload, 0, len(g.DB.Tables))
	for _, t := range g.DB.Tables {
		out = append(out, TableWorkload{Table: t.Name, Queries: g.GenSingleTable(t.Name, perTable, cfg)})
	}
	return out
}

// GenSingleTable produces n labeled single-table queries for table.
func (g *Generator) GenSingleTable(table string, n int, cfg Config) []SingleTableQuery {
	tab := g.DB.Table(table)
	if tab == nil {
		panic(fmt.Sprintf("workload: unknown table %q", table))
	}
	cols := g.filterableColumns(&sqldb.Query{Tables: []string{table}}, tab)
	out := make([]SingleTableQuery, 0, n)
	for len(out) < n {
		var filters []sqldb.Filter
		if len(cols) > 0 {
			k := 1 + g.rng.Intn(cfg.MaxFiltersPerTable)
			for j := 0; j < k; j++ {
				col := cols[g.rng.Intn(len(cols))]
				if f, ok := g.randomFilter(table, col, cfg); ok {
					filters = append(filters, f)
				}
			}
		}
		card := float64(sqldb.FilteredCard(tab, filters))
		if card < 1 {
			card = 1
		}
		out = append(out, SingleTableQuery{
			Table:   table,
			Filters: filters,
			Card:    card,
			Frac:    card / float64(tab.NumRows()),
		})
	}
	return out
}
