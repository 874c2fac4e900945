package sqldb

import (
	"fmt"
	"strings"
)

// JoinEdge is an equality join predicate between two table columns,
// typically a PK–FK relationship.
type JoinEdge struct {
	T1, C1 string // left table and column
	T2, C2 string // right table and column
}

// Touches reports whether the edge involves table t.
func (e JoinEdge) Touches(t string) bool { return e.T1 == t || e.T2 == t }

// Other returns the table on the other side of the edge from t
// (empty string if t is not part of the edge).
func (e JoinEdge) Other(t string) string {
	switch t {
	case e.T1:
		return e.T2
	case e.T2:
		return e.T1
	default:
		return ""
	}
}

// String implements fmt.Stringer.
func (e JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", e.T1, e.C1, e.T2, e.C2)
}

// DB is a database: a set of tables plus the join schema (the PK–FK
// graph). The paper's (I.i) input "data tables T = {T1..Tn}" plus the
// "join schema" of Section 2.1 map to this type.
type DB struct {
	Name   string
	Tables []*Table
	Edges  []JoinEdge
	// FactTables optionally records which tables the generator created
	// as fact tables (Section 6.2 S1); informational.
	FactTables []string

	byName map[string]int
}

// NewDB creates an empty database.
func NewDB(name string) *DB {
	return &DB{Name: name, byName: map[string]int{}}
}

// AddTable registers a table; the name must be unique.
func (db *DB) AddTable(t *Table) error {
	if _, dup := db.byName[t.Name]; dup {
		return fmt.Errorf("sqldb: duplicate table %q", t.Name)
	}
	db.byName[t.Name] = len(db.Tables)
	db.Tables = append(db.Tables, t)
	return nil
}

// MustAddTable is AddTable that panics on error.
func (db *DB) MustAddTable(t *Table) {
	if err := db.AddTable(t); err != nil {
		panic(err)
	}
}

// Table returns the named table or nil.
func (db *DB) Table(name string) *Table {
	i, ok := db.byName[name]
	if !ok {
		return nil
	}
	return db.Tables[i]
}

// TableIndex returns the position of the named table in db.Tables,
// or -1. Models use this as the stable one-hot id of a table.
func (db *DB) TableIndex(name string) int {
	i, ok := db.byName[name]
	if !ok {
		return -1
	}
	return i
}

// TableNames returns all table names in registration order.
func (db *DB) TableNames() []string {
	out := make([]string, len(db.Tables))
	for i, t := range db.Tables {
		out[i] = t.Name
	}
	return out
}

// AddEdge registers a join edge after validating both endpoints exist
// and have the same column kind.
func (db *DB) AddEdge(e JoinEdge) error {
	for _, side := range []struct{ t, c string }{{e.T1, e.C1}, {e.T2, e.C2}} {
		tab := db.Table(side.t)
		if tab == nil {
			return fmt.Errorf("sqldb: edge %v references unknown table %q", e, side.t)
		}
		if tab.Column(side.c) == nil {
			return fmt.Errorf("sqldb: edge %v references unknown column %s.%s", e, side.t, side.c)
		}
	}
	k1 := db.Table(e.T1).Column(e.C1).Kind
	k2 := db.Table(e.T2).Column(e.C2).Kind
	if k1 != k2 {
		return fmt.Errorf("sqldb: edge %v joins %v with %v", e, k1, k2)
	}
	db.Edges = append(db.Edges, e)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (db *DB) MustAddEdge(e JoinEdge) {
	if err := db.AddEdge(e); err != nil {
		panic(err)
	}
}

// Query is a conjunctive select-project-join query: a set of touched
// tables T_Q, equality join predicates j_Q, and per-table filter
// predicates f_Q — the paper's (I.ii) input Q = (T_Q, j_Q, f_Q).
type Query struct {
	Tables  []string
	Joins   []JoinEdge
	Filters []Filter
}

// FiltersFor returns the filters applying to one table.
func (q *Query) FiltersFor(table string) []Filter {
	var out []Filter
	for _, f := range q.Filters {
		if f.Table == table {
			out = append(out, f)
		}
	}
	return out
}

// JoinsAmong returns the join edges of q whose both endpoints are in
// the given table set.
func (q *Query) JoinsAmong(tables []string) []JoinEdge {
	in := map[string]bool{}
	for _, t := range tables {
		in[t] = true
	}
	var out []JoinEdge
	for _, e := range q.Joins {
		if in[e.T1] && in[e.T2] {
			out = append(out, e)
		}
	}
	return out
}

// HasTable reports whether t is among the query's tables.
func (q *Query) HasTable(t string) bool {
	for _, x := range q.Tables {
		if x == t {
			return true
		}
	}
	return false
}

// IsConnected reports whether the query's join graph connects all its
// tables (queries with cross products are never generated by the
// workload generator, mirroring JOB).
func (q *Query) IsConnected() bool {
	if len(q.Tables) <= 1 {
		return true
	}
	adj := map[string][]string{}
	for _, e := range q.Joins {
		adj[e.T1] = append(adj[e.T1], e.T2)
		adj[e.T2] = append(adj[e.T2], e.T1)
	}
	seen := map[string]bool{q.Tables[0]: true}
	stack := []string{q.Tables[0]}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, o := range adj[t] {
			if !seen[o] {
				seen[o] = true
				stack = append(stack, o)
			}
		}
	}
	for _, t := range q.Tables {
		if !seen[t] {
			return false
		}
	}
	return true
}

// String renders the query as pseudo-SQL for debugging and examples.
func (q *Query) String() string {
	s := "SELECT COUNT(*) FROM " + strings.Join(q.Tables, ", ") + " WHERE "
	var preds []string
	for _, j := range q.Joins {
		preds = append(preds, j.String())
	}
	for _, f := range q.Filters {
		preds = append(preds, f.String())
	}
	if len(preds) == 0 {
		return s + "true"
	}
	return s + strings.Join(preds, " AND ")
}
