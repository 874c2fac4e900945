package sqldb

import (
	"math/rand"
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
	// Prefix cards along order f, a, b: last equals full card.
	pc := e.PrefixCards([]string{"f", "a", "b"})
	if pc[0] != e.FilteredCard("f") {
		t.Fatal("prefix card 0 wrong")
	}
	if pc[2] != e.Cardinality() {
		t.Fatal("final prefix card must equal query card")
	}
	// a ⋈ f is a PK-FK join: every filtered f row matches exactly one
	// a row, so card(a⋈f) == filteredCard(f).
	if got := e.CardOf([]string{"a", "f"}); got != e.FilteredCard("f") {
		t.Fatalf("PK-FK join card %d, want %d", got, e.FilteredCard("f"))
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

func TestDistinctCount(t *testing.T) {
	c := IntColumn("c", []int64{1, 1, 2, 3, 3, 3})
	if c.DistinctCount() != 3 {
		t.Fatal("distinct count wrong")
	}
	s := StringColumn("s", []string{"a", "a", "b"})
	if s.DistinctCount() != 2 {
		t.Fatal("string distinct wrong")
	}
}
