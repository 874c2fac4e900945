package sqldb

import "fmt"

// Op enumerates filter comparison operators.
type Op int

// Supported operators. OpLike supports '%' (any run) and '_' (any one
// character) wildcards, the predicate class that makes JOB hard for
// traditional estimators (Section 6.1).
const (
	OpEq Op = iota
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpLike
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLike:
		return "LIKE"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Filter is a single-column predicate "table.col OP value".
type Filter struct {
	Table string
	Col   string
	Op    Op
	Val   Value
}

// String renders the filter as pseudo-SQL.
func (f Filter) String() string {
	return fmt.Sprintf("%s.%s %s %s", f.Table, f.Col, f.Op, f.Val)
}

// Matches evaluates the predicate against a cell value of the same kind.
func (f Filter) Matches(v Value) bool {
	switch f.Op {
	case OpEq:
		return v.Equal(f.Val)
	case OpNeq:
		return !v.Equal(f.Val)
	case OpLt:
		return v.Less(f.Val)
	case OpLe:
		return v.Less(f.Val) || v.Equal(f.Val)
	case OpGt:
		return f.Val.Less(v)
	case OpGe:
		return f.Val.Less(v) || v.Equal(f.Val)
	case OpLike:
		return MatchLike(v.S, f.Val.S)
	default:
		panic(fmt.Sprintf("sqldb: unknown op %v", f.Op))
	}
}

// MatchLike implements SQL LIKE matching with '%' and '_' wildcards
// using an iterative two-pointer algorithm (no backtracking blowup).
func MatchLike(s, pattern string) bool {
	si, pi := 0, 0
	starIdx, matchIdx := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starIdx = pi
			matchIdx = si
			pi++
		case starIdx != -1:
			pi = starIdx + 1
			matchIdx++
			si = matchIdx
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// FilterRows returns the row ids of t matching all filters (which must
// all target t). A nil filter list selects every row.
func FilterRows(t *Table, filters []Filter) []int32 {
	n := t.NumRows()
	out := make([]int32, 0, n)
	cols := make([]*Column, len(filters))
	for i, f := range filters {
		if f.Table != t.Name {
			panic(fmt.Sprintf("sqldb: filter %v applied to table %q", f, t.Name))
		}
		c := t.Column(f.Col)
		if c == nil {
			panic(fmt.Sprintf("sqldb: filter %v references missing column", f))
		}
		cols[i] = c
	}
rows:
	for r := 0; r < n; r++ {
		for i, f := range filters {
			if !f.Matches(cols[i].Value(r)) {
				continue rows
			}
		}
		out = append(out, int32(r))
	}
	return out
}

// FilteredCard returns the number of rows of t matching the filters.
func FilteredCard(t *Table, filters []Filter) int64 {
	if len(filters) == 0 {
		return int64(t.NumRows())
	}
	return int64(len(FilterRows(t, filters)))
}
