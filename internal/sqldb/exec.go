package sqldb

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// CountError is why an Executor could not count a set of tables: the
// join edges among them are not a forest (Cycle: a cycle, or two edges
// on one table pair), or else the count does not fit in an int64.
type CountError struct {
	Tables []string
	Cycle  bool
}

func (e *CountError) Error() string {
	why := "count overflows int64"
	if e.Cycle {
		why = "join edges are not a tree"
	}
	return fmt.Sprintf("sqldb: count of {%s}: %s", strings.Join(e.Tables, ", "), why)
}

// Executor counts (sub-)queries of one Query against a DB, caching
// filtered row sets and sub-plan cardinalities. The MTMLF training
// pipeline uses it to label every node of every plan with its true
// cardinality, and the exact DP optimizer uses it as its card oracle.
//
// It never materializes a join. A generated query is a spanning tree of
// the schema, so every sub-query is a tree or a forest, counted as a sum
// of products in time linear in the filtered rows (see weights). A count
// it cannot give, above math.MaxInt64 or over join edges that are not a
// forest, sets Err, which stays set; CardOf then returns 0 for it.
type Executor struct {
	DB *DB
	Q  *Query

	filtered map[string][]int32
	cardMemo map[string]int64
	err      error
}

// NewExecutor creates an executor for one query.
func NewExecutor(db *DB, q *Query) *Executor {
	return &Executor{
		DB:       db,
		Q:        q,
		filtered: map[string][]int32{},
		cardMemo: map[string]int64{},
	}
}

// Err returns the *CountError of the first count the executor could
// not give, or nil if every count so far is exact.
func (e *Executor) Err() error { return e.err }

func (e *Executor) fail(tables []string, cycle bool) {
	if e.err == nil {
		e.err = &CountError{Tables: append([]string(nil), tables...), Cycle: cycle}
	}
}

// Filtered returns (and caches) the row ids of table t that satisfy
// the query's filters on t.
func (e *Executor) Filtered(t string) []int32 {
	if rows, ok := e.filtered[t]; ok {
		return rows
	}
	tab := e.DB.Table(t)
	if tab == nil {
		panic(fmt.Sprintf("sqldb: unknown table %q", t))
	}
	rows := FilterRows(tab, e.Q.FiltersFor(t))
	e.filtered[t] = rows
	return rows
}

// Cardinality executes the whole query and returns its exact count.
func (e *Executor) Cardinality() int64 { return e.CardOf(e.Q.Tables) }

// CardOf returns the exact cardinality of the sub-query restricted to
// the given tables (their filters plus the join edges among them).
// Disconnected components contribute multiplicatively (cross product).
// Results are memoized per table set.
func (e *Executor) CardOf(tables []string) int64 {
	key := setKey(tables)
	if c, ok := e.cardMemo[key]; ok {
		return c
	}
	card := uint64(1)
	for _, t := range tables {
		if len(e.Filtered(t)) == 0 {
			card = 0
		}
	}
	// Count each component as a tree rooted at its first table.
	joins := e.Q.JoinsAmong(tables)
	seen := make(map[string]bool, len(tables))
	for _, t := range tables {
		if card == 0 || seen[t] {
			continue
		}
		seen[t] = true
		w, ok := e.weights(t, -1, joins, seen)
		if !ok {
			e.fail(tables, true)
			card = 0
			break
		}
		n := uint64(len(e.Filtered(t)))
		if w != nil {
			n = 0
			for _, x := range w {
				n = satAdd(n, x)
			}
		}
		card = satMul(card, n)
	}
	if card > math.MaxInt64 {
		e.fail(tables, false)
		card = 0
	}
	e.cardMemo[key] = int64(card)
	return int64(card)
}

// weights returns, per filtered row of t, the number of rows of the
// join of t's subtree (the tables reached from t over joins other than
// joins[up]) that the row takes part in: the product, over t's child
// subtrees, of the summed weights of the child rows that join it
// (Yannakakis's acyclic join in its counting form). nil stands for all
// ones (a leaf). It marks the subtree in seen, and reports false if it
// meets a table twice: the joins are not a tree.
func (e *Executor) weights(t string, up int, joins []JoinEdge, seen map[string]bool) ([]uint64, bool) {
	var w []uint64
	for i, j := range joins {
		if i == up || !j.Touches(t) {
			continue
		}
		c, tc, cc := j.T2, j.C1, j.C2
		if j.T2 == t {
			c, tc, cc = j.T1, j.C2, j.C1
		}
		if seen[c] {
			return nil, false
		}
		seen[c] = true
		cw, ok := e.weights(c, i, joins, seen)
		if !ok {
			return nil, false
		}
		tCol, cCol := e.DB.Table(t).Column(tc), e.DB.Table(c).Column(cc)
		if tCol.Kind == KindInt && cCol.Kind == KindInt {
			w = join(w, e.Filtered(t), tCol.Ints, e.Filtered(c), cw, cCol.Ints)
		} else {
			w = join(w, e.Filtered(t), values(tCol), e.Filtered(c), cw, values(cCol))
		}
	}
	return w, true
}

// join multiplies each weight w[i] of row rows[i] (nil: all ones) by
// the summed weights cw of the child rows crows whose key equals the
// row's: keys and ckeys are the two join columns. Keys are compared as
// map keys, so a Value key never equals one of another kind.
func join[K comparable](w []uint64, rows []int32, keys []K, crows []int32, cw []uint64, ckeys []K) []uint64 {
	sums := make(map[K]uint64, len(crows))
	for i, r := range crows {
		x := uint64(1)
		if cw != nil {
			x = cw[i]
		}
		sums[ckeys[r]] = satAdd(sums[ckeys[r]], x)
	}
	if w == nil {
		w = make([]uint64, len(rows))
		for i := range w {
			w[i] = 1
		}
	}
	for i, r := range rows {
		w[i] = satMul(w[i], sums[keys[r]])
	}
	return w
}

// values boxes every cell of c, the join keys of a non-integer column.
func values(c *Column) []Value {
	out := make([]Value, c.Len())
	for i := range out {
		out[i] = c.Value(i)
	}
	return out
}

// Counts are saturated: every count above math.MaxInt64 reads as
// 1<<63, which products with non-zero counts and sums keep. So a
// saturated partial count that a zero factor drops leaves the total
// exact, and the total saturates exactly when the true count overflows.
const saturated = 1 << 63

func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 || s > math.MaxInt64 {
		return saturated
	}
	return s
}

func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 || lo > math.MaxInt64 {
		return saturated
	}
	return lo
}

func setKey(tables []string) string {
	s := append([]string(nil), tables...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}
