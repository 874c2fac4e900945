package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableConstruction(t *testing.T) {
	tab, err := NewTable("t",
		IntColumn("a", []int64{1, 2, 3}),
		StringColumn("s", []string{"x", "y", "z"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Fatal("row count wrong")
	}
	if tab.Column("s").Value(1).S != "y" {
		t.Fatal("column access wrong")
	}
	if tab.Column("missing") != nil {
		t.Fatal("missing column must be nil")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable("t", IntColumn("a", []int64{1}), IntColumn("b", []int64{1, 2})); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := NewTable("t", IntColumn("a", nil), IntColumn("a", nil)); err == nil {
		t.Fatal("duplicate column must error")
	}
	if _, err := NewTable("t"); err == nil {
		t.Fatal("empty table must error")
	}
}

func TestDBTableAndEdgeRegistration(t *testing.T) {
	db := NewDB("d")
	db.MustAddTable(MustNewTable("a", IntColumn("id", []int64{1, 2})))
	db.MustAddTable(MustNewTable("b", IntColumn("a_id", []int64{1, 1})))
	if err := db.AddTable(MustNewTable("a", IntColumn("id", nil))); err == nil {
		t.Fatal("duplicate table must error")
	}
	if err := db.AddEdge(JoinEdge{T1: "a", C1: "id", T2: "b", C2: "a_id"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddEdge(JoinEdge{T1: "a", C1: "nope", T2: "b", C2: "a_id"}); err == nil {
		t.Fatal("unknown column must error")
	}
	if err := db.AddEdge(JoinEdge{T1: "a", C1: "id", T2: "zz", C2: "a_id"}); err == nil {
		t.Fatal("unknown table must error")
	}
	if db.TableIndex("b") != 1 || db.TableIndex("zz") != -1 {
		t.Fatal("TableIndex wrong")
	}
}

func TestEdgeKindMismatch(t *testing.T) {
	db := NewDB("d")
	db.MustAddTable(MustNewTable("a", IntColumn("id", []int64{1})))
	db.MustAddTable(MustNewTable("b", StringColumn("id", []string{"x"})))
	if err := db.AddEdge(JoinEdge{T1: "a", C1: "id", T2: "b", C2: "id"}); err == nil {
		t.Fatal("kind mismatch must error")
	}
}

func TestFilterMatches(t *testing.T) {
	cases := []struct {
		f    Filter
		v    Value
		want bool
	}{
		{Filter{Op: OpEq, Val: IntVal(3)}, IntVal(3), true},
		{Filter{Op: OpEq, Val: IntVal(3)}, IntVal(4), false},
		{Filter{Op: OpNeq, Val: IntVal(3)}, IntVal(4), true},
		{Filter{Op: OpLt, Val: IntVal(3)}, IntVal(2), true},
		{Filter{Op: OpLe, Val: IntVal(3)}, IntVal(3), true},
		{Filter{Op: OpGt, Val: FloatVal(1.5)}, FloatVal(2), true},
		{Filter{Op: OpGe, Val: FloatVal(2)}, FloatVal(2), true},
		{Filter{Op: OpLike, Val: StrVal("ab%")}, StrVal("abc"), true},
		{Filter{Op: OpLike, Val: StrVal("ab%")}, StrVal("xabc"), false},
	}
	for i, c := range cases {
		if got := c.f.Matches(c.v); got != c.want {
			t.Fatalf("case %d: Matches(%v, %v) = %v", i, c.f, c.v, got)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_go", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"abc", "%a%b%c%", true},
		{"abc", "a%c%b", false},
		{"aaa", "a%a", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ppx", false},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Fatalf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// Property: a pattern consisting of the string itself always matches;
// "%"+s+"%" matches any superstring.
func TestMatchLikeProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 || len(b) > 20 {
			return true
		}
		clean := func(s string) string {
			out := []byte{}
			for i := 0; i < len(s); i++ {
				if s[i] != '%' && s[i] != '_' {
					out = append(out, s[i])
				}
			}
			return string(out)
		}
		ca, cb := clean(a), clean(b)
		return MatchLike(ca, ca) && MatchLike(cb+ca+cb, "%"+ca+"%")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterRows(t *testing.T) {
	tab := MustNewTable("t",
		IntColumn("a", []int64{1, 2, 3, 4, 5}),
		StringColumn("s", []string{"ax", "bx", "ay", "by", "az"}),
	)
	rows := FilterRows(tab, []Filter{
		{Table: "t", Col: "a", Op: OpGt, Val: IntVal(1)},
		{Table: "t", Col: "s", Op: OpLike, Val: StrVal("a%")},
	})
	if len(rows) != 2 || rows[0] != 2 || rows[1] != 4 {
		t.Fatalf("FilterRows wrong: %v", rows)
	}
	if FilteredCard(tab, nil) != 5 {
		t.Fatal("nil filters must select all")
	}
}

// buildTestDB creates a 3-table star: fact F references A and B.
func buildTestDB(rng *rand.Rand, nA, nB, nF int) *DB {
	db := NewDB("test")
	aVals := make([]int64, nA)
	aAttr := make([]int64, nA)
	for i := range aVals {
		aVals[i] = int64(i)
		aAttr[i] = int64(rng.Intn(5))
	}
	bVals := make([]int64, nB)
	bAttr := make([]int64, nB)
	for i := range bVals {
		bVals[i] = int64(i)
		bAttr[i] = int64(rng.Intn(4))
	}
	fa := make([]int64, nF)
	fb := make([]int64, nF)
	fAttr := make([]int64, nF)
	for i := 0; i < nF; i++ {
		fa[i] = int64(rng.Intn(nA))
		fb[i] = int64(rng.Intn(nB))
		fAttr[i] = int64(rng.Intn(6))
	}
	db.MustAddTable(MustNewTable("a", IntColumn("id", aVals), IntColumn("x", aAttr)))
	db.MustAddTable(MustNewTable("b", IntColumn("id", bVals), IntColumn("y", bAttr)))
	db.MustAddTable(MustNewTable("f", IntColumn("a_id", fa), IntColumn("b_id", fb), IntColumn("z", fAttr)))
	db.MustAddEdge(JoinEdge{T1: "a", C1: "id", T2: "f", C2: "a_id"})
	db.MustAddEdge(JoinEdge{T1: "b", C1: "id", T2: "f", C2: "b_id"})
	return db
}

// bruteForceCard computes the 3-way join count by nested loops.
func bruteForceCard(db *DB, q *Query) int64 {
	a, b, f := db.Table("a"), db.Table("b"), db.Table("f")
	fa := q.FiltersFor("a")
	fb := q.FiltersFor("b")
	ff := q.FiltersFor("f")
	matches := func(tab *Table, filters []Filter, r int) bool {
		for _, fl := range filters {
			if !fl.Matches(tab.Column(fl.Col).Value(r)) {
				return false
			}
		}
		return true
	}
	var count int64
	for i := 0; i < f.NumRows(); i++ {
		if !matches(f, ff, i) {
			continue
		}
		ai := int(f.Column("a_id").Ints[i])
		bi := int(f.Column("b_id").Ints[i])
		if !matches(a, fa, ai) || !matches(b, fb, bi) {
			continue
		}
		count++
	}
	return count
}

func starQuery(filters ...Filter) *Query {
	return &Query{
		Tables: []string{"a", "b", "f"},
		Joins: []JoinEdge{
			{T1: "a", C1: "id", T2: "f", C2: "a_id"},
			{T1: "b", C1: "id", T2: "f", C2: "b_id"},
		},
		Filters: filters,
	}
}

func TestExecutorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 20; iter++ {
		db := buildTestDB(rng, 10+rng.Intn(20), 10+rng.Intn(20), 30+rng.Intn(50))
		q := starQuery(
			Filter{Table: "a", Col: "x", Op: OpLe, Val: IntVal(int64(rng.Intn(5)))},
			Filter{Table: "f", Col: "z", Op: OpGt, Val: IntVal(int64(rng.Intn(6)))},
		)
		e := NewExecutor(db, q)
		got := e.Cardinality()
		want := bruteForceCard(db, q)
		if got != want {
			t.Fatalf("iter %d: executor card %d, brute force %d", iter, got, want)
		}
	}
}

func TestExecutorSubplanAndPrefixCards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := buildTestDB(rng, 15, 12, 60)
	q := starQuery(Filter{Table: "f", Col: "z", Op: OpLt, Val: IntVal(4)})
	e := NewExecutor(db, q)
	// Single-table subplan = filtered card.
	if e.CardOf([]string{"a"}) != 15 {
		t.Fatal("single-table subplan card wrong")
	}
	// Prefix cards along order f, a, b: the first is f's filtered card,
	// the last the query's.
	order := []string{"f", "a", "b"}
	if e.CardOf(order[:1]) != e.filteredCard("f") {
		t.Fatal("prefix card 0 wrong")
	}
	if e.CardOf(order) != bruteForceCard(db, q) {
		t.Fatal("final prefix card must equal query card")
	}
	// a ⋈ f is a PK-FK join: every filtered f row matches exactly one
	// a row, so card(a⋈f) == filteredCard(f).
	if got := e.CardOf([]string{"a", "f"}); got != e.filteredCard("f") {
		t.Fatalf("PK-FK join card %d, want %d", got, e.filteredCard("f"))
	}
}

func TestExecutorDisconnectedCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := buildTestDB(rng, 10, 10, 20)
	q := starQuery()
	e := NewExecutor(db, q)
	// {a, b} has no join edge between them: cross product.
	if got := e.CardOf([]string{"a", "b"}); got != 100 {
		t.Fatalf("cross product card %d, want 100", got)
	}
}

func TestExecutorMemoization(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := buildTestDB(rng, 10, 10, 40)
	q := starQuery()
	e := NewExecutor(db, q)
	c1 := e.CardOf([]string{"f", "a"})
	c2 := e.CardOf([]string{"a", "f"}) // different order, same set
	if c1 != c2 {
		t.Fatal("memo key must be order-independent")
	}
	if len(e.cardMemo) != 1 {
		t.Fatalf("expected 1 memo entry, got %d", len(e.cardMemo))
	}
}

// TestJoinDistributionIdentity verifies the paper's Equation 2: the
// cardinality of a filtered PK-FK join equals the sum over join-key
// values of the per-table filtered counts' product.
func TestJoinDistributionIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for iter := 0; iter < 10; iter++ {
		db := buildTestDB(rng, 12, 10, 50)
		fA := Filter{Table: "a", Col: "x", Op: OpLe, Val: IntVal(int64(rng.Intn(5)))}
		fF := Filter{Table: "f", Col: "z", Op: OpGe, Val: IntVal(int64(rng.Intn(6)))}
		q := &Query{
			Tables:  []string{"a", "f"},
			Joins:   []JoinEdge{{T1: "a", C1: "id", T2: "f", C2: "a_id"}},
			Filters: []Filter{fA, fF},
		}
		e := NewExecutor(db, q)
		join := e.Cardinality()

		// RHS of Equation 2: sum over ids of count_A(f(A), id) * count_F(f(F), id).
		a, f := db.Table("a"), db.Table("f")
		countA := map[int64]int64{}
		for _, r := range FilterRows(a, []Filter{fA}) {
			countA[a.Column("id").Ints[r]]++
		}
		countF := map[int64]int64{}
		for _, r := range FilterRows(f, []Filter{fF}) {
			countF[f.Column("a_id").Ints[r]]++
		}
		var want int64
		for id, ca := range countA {
			want += ca * countF[id]
		}
		if join != want {
			t.Fatalf("Equation 2 identity violated: join card %d, reconstruction %d", join, want)
		}
	}
}

func TestQueryConnectivityAndHelpers(t *testing.T) {
	q := starQuery(Filter{Table: "a", Col: "x", Op: OpEq, Val: IntVal(1)})
	if !q.IsConnected() {
		t.Fatal("star query must be connected")
	}
	if len(q.FiltersFor("a")) != 1 || len(q.FiltersFor("b")) != 0 {
		t.Fatal("FiltersFor wrong")
	}
	if len(q.JoinsAmong([]string{"a", "f"})) != 1 {
		t.Fatal("JoinsAmong wrong")
	}
	if !q.HasTable("f") || q.HasTable("zzz") {
		t.Fatal("HasTable wrong")
	}
	q2 := &Query{Tables: []string{"a", "b"}} // no joins
	if q2.IsConnected() {
		t.Fatal("disconnected query must report false")
	}
}

func TestQueryString(t *testing.T) {
	q := starQuery(Filter{Table: "a", Col: "x", Op: OpEq, Val: IntVal(1)})
	s := q.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("query string implausible: %q", s)
	}
}

func TestValueOrdering(t *testing.T) {
	if !IntVal(1).Less(IntVal(2)) || IntVal(2).Less(IntVal(1)) {
		t.Fatal("int ordering wrong")
	}
	if !StrVal("a").Less(StrVal("b")) {
		t.Fatal("string ordering wrong")
	}
	if !FloatVal(1.5).Equal(FloatVal(1.5)) {
		t.Fatal("float equality wrong")
	}
}

// materializedCard is the executor this package had before it counted:
// it builds each connected component's join as tuples of row ids
// (greedy smallest-first hash joins) and takes their number. It is the
// test oracle the counting CardOf is checked against.
func materializedCard(e *Executor, tables []string) int64 {
	joins := e.Q.JoinsAmong(tables)
	seen := map[string]bool{}
	card := int64(1)
	for _, t := range tables {
		if seen[t] {
			continue
		}
		comp, stack := []string{}, []string{t}
		seen[t] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for _, j := range joins {
				for _, o := range []string{j.T1, j.T2} {
					if j.Touches(x) && !seen[o] {
						seen[o] = true
						stack = append(stack, o)
					}
				}
			}
		}
		card *= materializedComponent(e, comp, e.Q.JoinsAmong(comp))
	}
	return card
}

// relation is an intermediate join result: a tuple of row ids per
// result row, one id per joined table (tIdx gives the position).
type relation struct {
	tIdx map[string]int
	rows [][]int32
}

func materializedComponent(e *Executor, tables []string, joins []JoinEdge) int64 {
	start := tables[0]
	for _, t := range tables[1:] {
		if e.filteredCard(t) < e.filteredCard(start) {
			start = t
		}
	}
	rel := &relation{tIdx: map[string]int{start: 0}}
	for _, id := range e.Filtered(start) {
		rel.rows = append(rel.rows, []int32{id})
	}
	for len(rel.tIdx) < len(tables) {
		// Join the connected table with the smallest filtered card.
		next := ""
		for _, t := range tables {
			_, in := rel.tIdx[t]
			if in || (next != "" && e.filteredCard(t) >= e.filteredCard(next)) {
				continue
			}
			for _, j := range joins {
				if _, ok := rel.tIdx[j.Other(t)]; ok && j.Touches(t) {
					next = t
				}
			}
		}
		var edges []JoinEdge
		for _, j := range joins {
			if _, ok := rel.tIdx[j.Other(next)]; ok && j.Touches(next) {
				edges = append(edges, j)
			}
		}
		rel = hashJoin(e, rel, next, edges)
	}
	return int64(len(rel.rows))
}

// hashJoin extends rel with table next: a hash table on the first
// edge's key (Values as map keys), the other edges checked per match
// with Value.Equal.
func hashJoin(e *Executor, rel *relation, next string, edges []JoinEdge) *relation {
	col := func(j JoinEdge, t string) *Column {
		if j.T1 == t {
			return e.DB.Table(t).Column(j.C1)
		}
		return e.DB.Table(t).Column(j.C2)
	}
	build := map[Value][]int32{}
	for _, id := range e.Filtered(next) {
		v := col(edges[0], next).Value(int(id))
		build[v] = append(build[v], id)
	}
	out := &relation{tIdx: map[string]int{next: len(rel.tIdx)}}
	for t, i := range rel.tIdx {
		out.tIdx[t] = i
	}
	for _, row := range rel.rows {
		probe := edges[0].Other(next)
	cand:
		for _, id := range build[col(edges[0], probe).Value(int(row[rel.tIdx[probe]]))] {
			for _, j := range edges[1:] {
				o := j.Other(next)
				if !col(j, o).Value(int(row[rel.tIdx[o]])).Equal(col(j, next).Value(int(id))) {
					continue cand
				}
			}
			out.rows = append(out.rows, append(append([]int32{}, row...), id))
		}
	}
	return out
}

// randomTreeDB builds a database of 2–5 small tables (some empty) whose
// join edges form a random tree. Each edge joins a fresh key column on
// both sides, of a random kind, with values from a domain of four so
// keys repeat; every table also has an int column x in [0, 5) to
// filter on.
func randomTreeDB(rng *rand.Rand) (*DB, []JoinEdge) {
	n := 2 + rng.Intn(4)
	rows := make([]int, n)
	cols := make([][]*Column, n)
	for i := range rows {
		rows[i] = rng.Intn(9)
		x := make([]int64, rows[i])
		for r := range x {
			x[r] = int64(rng.Intn(5))
		}
		cols[i] = []*Column{IntColumn("x", x)}
	}
	keyCol := func(i int, name string, kind Kind) *Column {
		c := &Column{Name: name, Kind: kind}
		for r := 0; r < rows[i]; r++ {
			v := rng.Intn(4)
			switch kind {
			case KindInt:
				c.Ints = append(c.Ints, int64(v))
			case KindFloat:
				c.Flts = append(c.Flts, float64(v)/2)
			default:
				c.Strs = append(c.Strs, fmt.Sprintf("k%d", v))
			}
		}
		return c
	}
	var joins []JoinEdge
	for i := 1; i < n; i++ {
		p, kind, name := rng.Intn(i), Kind(rng.Intn(3)), fmt.Sprintf("k%d", i)
		cols[i] = append(cols[i], keyCol(i, name, kind))
		cols[p] = append(cols[p], keyCol(p, name, kind))
		j := JoinEdge{T1: fmt.Sprintf("t%d", p), C1: name, T2: fmt.Sprintf("t%d", i), C2: name}
		if rng.Intn(2) == 0 {
			j = JoinEdge{T1: j.T2, C1: j.C2, T2: j.T1, C2: j.C1}
		}
		joins = append(joins, j)
	}
	db := NewDB("random")
	for i := range cols {
		db.MustAddTable(MustNewTable(fmt.Sprintf("t%d", i), cols[i]...))
	}
	return db, joins
}

// TestCardOfMatchesMaterializedJoin: over random small databases with
// int, float and string keys, duplicate keys, empty tables and filters
// that empty a table, the counted CardOf of every subset of a random
// tree query — a subtree or a forest — equals the materialized join.
func TestCardOfMatchesMaterializedJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		db, joins := randomTreeDB(rng)
		q := &Query{Tables: db.TableNames(), Joins: joins}
		for _, tab := range q.Tables {
			if rng.Intn(2) == 0 {
				// x = 5 matches no row: it empties the table.
				q.Filters = append(q.Filters, Filter{Table: tab, Col: "x", Op: Op(rng.Intn(6)), Val: IntVal(int64(rng.Intn(6)))})
			}
		}
		e, oracle := NewExecutor(db, q), NewExecutor(db, q)
		for mask := 1; mask < 1<<len(q.Tables); mask++ {
			var sub []string
			for i, tab := range q.Tables {
				if mask&(1<<i) != 0 {
					sub = append(sub, tab)
				}
			}
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			if got, want := e.CardOf(sub), materializedCard(oracle, sub); got != want {
				t.Fatalf("iter %d, %v over %v: CardOf %d, materialized join %d", iter, sub, q, got, want)
			}
		}
		if e.Err() != nil {
			t.Fatalf("iter %d: %v", iter, e.Err())
		}
	}
}

// TestFilterRowsMatchesFilterMatches: the typed FilterRows keeps exactly
// the rows a per-row Filter.Matches loop accepts, for every Op and every
// pair of column and value kinds — LIKE on int and float columns, which
// matches against "", included.
func TestFilterRowsMatchesFilterMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 40
	ints, flts, strs := make([]int64, n), make([]float64, n), make([]string, n)
	for r := 0; r < n; r++ {
		ints[r], flts[r], strs[r] = int64(rng.Intn(6)), float64(rng.Intn(6))/2, fmt.Sprintf("s%dx", rng.Intn(6))
	}
	tab := MustNewTable("t", IntColumn("i", ints), FloatColumn("f", flts), StringColumn("s", strs))
	vals := []Value{IntVal(2), IntVal(0), FloatVal(1), FloatVal(0), StrVal("s3x"), StrVal("s%"), StrVal(""), StrVal("%"), StrVal("_3%")}
	randomFilter := func() Filter {
		return Filter{Table: "t", Col: []string{"i", "f", "s"}[rng.Intn(3)], Op: Op(rng.Intn(int(OpLike) + 1)), Val: vals[rng.Intn(len(vals))]}
	}
	for iter := 0; iter < 2000; iter++ {
		filters := make([]Filter, 1+rng.Intn(3))
		for i := range filters {
			filters[i] = randomFilter()
		}
		var want []int32
	rows:
		for r := 0; r < n; r++ {
			for _, f := range filters {
				if !f.Matches(tab.Column(f.Col).Value(r)) {
					continue rows
				}
			}
			want = append(want, int32(r))
		}
		if got := FilterRows(tab, filters); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: FilterRows %v, Matches %v", filters, got, want)
		}
	}
}

// TestCardOfOverflow: a 6-table star on one key value, 2,000 rows a
// table, counts 2000⁶ > 2⁶³ rows. CardOf refuses it with the typed
// overflow error instead of a wrapped count, as it does the same
// product as a cross product, and still counts a sub-star that fits.
func TestCardOfOverflow(t *testing.T) {
	db := NewDB("star")
	q := &Query{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("t%d", i)
		db.MustAddTable(MustNewTable(name, IntColumn("k", make([]int64, 2000))))
		q.Tables = append(q.Tables, name)
		if i > 0 {
			q.Joins = append(q.Joins, JoinEdge{T1: "t0", C1: "k", T2: name, C2: "k"})
		}
	}
	for _, q := range []*Query{q, {Tables: q.Tables}} {
		e := NewExecutor(db, q)
		if got := e.CardOf(q.Tables[:5]); got != 2000*2000*2000*2000*2000 || e.Err() != nil {
			t.Fatalf("5 tables: %d, %v", got, e.Err())
		}
		var ce *CountError
		if got := e.Cardinality(); got != 0 || !errors.As(e.Err(), &ce) || ce.Cycle {
			t.Fatalf("joins %v: Cardinality %d, Err %v; want 0 and an overflow CountError", q.Joins, got, e.Err())
		}
	}
}

// TestCardOfRefusesCycles: join edges that are not a forest — a
// triangle, or two edges on one table pair — set the typed cycle error
// instead of panicking or miscounting.
func TestCardOfRefusesCycles(t *testing.T) {
	db := NewDB("cycle")
	for _, name := range []string{"a", "b", "c"} {
		db.MustAddTable(MustNewTable(name, IntColumn("k", []int64{1, 2}), IntColumn("j", []int64{1, 1})))
	}
	ab, bc, ca := JoinEdge{T1: "a", C1: "k", T2: "b", C2: "k"}, JoinEdge{T1: "b", C1: "k", T2: "c", C2: "k"}, JoinEdge{T1: "c", C1: "k", T2: "a", C2: "k"}
	for _, q := range []*Query{
		{Tables: []string{"a", "b", "c"}, Joins: []JoinEdge{ab, bc, ca}},
		{Tables: []string{"a", "b"}, Joins: []JoinEdge{ab, {T1: "b", C1: "j", T2: "a", C2: "j"}}},
		{Tables: []string{"a"}, Joins: []JoinEdge{{T1: "a", C1: "k", T2: "a", C2: "j"}}},
	} {
		e := NewExecutor(db, q)
		var ce *CountError
		if got := e.Cardinality(); got != 0 || !errors.As(e.Err(), &ce) || !ce.Cycle {
			t.Fatalf("%v: Cardinality %d, Err %v; want 0 and a cycle CountError", q, got, e.Err())
		}
		if !strings.Contains(e.Err().Error(), "{a") {
			t.Fatalf("the error does not name the tables: %v", e.Err())
		}
	}
}

func (e *Executor) filteredCard(t string) int64 { return int64(len(e.Filtered(t))) }
