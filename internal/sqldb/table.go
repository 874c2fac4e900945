// Package sqldb is an in-memory columnar relational engine. It is the
// substrate that substitutes for PostgreSQL in this reproduction: it
// stores the generated databases, evaluates filter predicates
// (including LIKE), executes multi-way PK–FK joins, and therefore
// produces the *exact* cardinalities used as training labels and
// ground truth, exactly the role query execution plays in the paper's
// Section 6 pipeline.
package sqldb

import (
	"fmt"
	"strings"
)

// Kind enumerates column value types.
type Kind int

// Supported column kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed cell value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// IntVal wraps an int64.
func IntVal(v int64) Value { return Value{Kind: KindInt, I: v} }

// FloatVal wraps a float64.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, F: v} }

// StrVal wraps a string.
func StrVal(v string) Value { return Value{Kind: KindString, S: v} }

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	default:
		return fmt.Sprintf("%q", v.S)
	}
}

// Less orders values of the same kind.
func (v Value) Less(o Value) bool {
	switch v.Kind {
	case KindInt:
		return v.I < o.I
	case KindFloat:
		return v.F < o.F
	default:
		return v.S < o.S
	}
}

// Equal compares values of the same kind.
func (v Value) Equal(o Value) bool {
	switch v.Kind {
	case KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	default:
		return v.S == o.S
	}
}

// Column is a typed column vector.
type Column struct {
	Name string
	Kind Kind
	Ints []int64
	Flts []float64
	Strs []string
}

// IntColumn builds an int64 column.
func IntColumn(name string, vals []int64) *Column {
	return &Column{Name: name, Kind: KindInt, Ints: vals}
}

// FloatColumn builds a float64 column.
func FloatColumn(name string, vals []float64) *Column {
	return &Column{Name: name, Kind: KindFloat, Flts: vals}
}

// StringColumn builds a string column.
func StringColumn(name string, vals []string) *Column {
	return &Column{Name: name, Kind: KindString, Strs: vals}
}

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.Kind {
	case KindInt:
		return len(c.Ints)
	case KindFloat:
		return len(c.Flts)
	default:
		return len(c.Strs)
	}
}

// Value returns the cell at row i.
func (c *Column) Value(i int) Value {
	switch c.Kind {
	case KindInt:
		return IntVal(c.Ints[i])
	case KindFloat:
		return FloatVal(c.Flts[i])
	default:
		return StrVal(c.Strs[i])
	}
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	Columns []*Column
	byName  map[string]int
}

// NewTable builds a table, validating that all columns have the same
// number of rows.
func NewTable(name string, cols ...*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %q has no columns", name)
	}
	n := cols[0].Len()
	byName := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Len() != n {
			return nil, fmt.Errorf("sqldb: table %q column %q has %d rows, want %d", name, c.Name, c.Len(), n)
		}
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("sqldb: table %q duplicate column %q", name, c.Name)
		}
		byName[c.Name] = i
	}
	return &Table{Name: name, Columns: cols, byName: byName}, nil
}

// MustNewTable is NewTable that panics on error, for tests and
// generators with static schemas.
func MustNewTable(name string, cols ...*Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the table's row count.
func (t *Table) NumRows() int { return t.Columns[0].Len() }

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.Columns[i]
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// String summarizes the table.
func (t *Table) String() string {
	return fmt.Sprintf("%s(%s)[%d rows]", t.Name, strings.Join(t.ColumnNames(), ", "), t.NumRows())
}
