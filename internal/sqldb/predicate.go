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
	if o < OpEq || o > OpLike {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return [...]string{"=", "<>", "<", "<=", ">", ">=", "LIKE"}[o]
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
// all target t). A nil filter list selects every row. Each filter makes
// one pass over the rows the previous ones kept, reading the typed
// column; the rows kept are exactly those Filter.Matches accepts.
func FilterRows(t *Table, filters []Filter) []int32 {
	rows := make([]int32, t.NumRows())
	for r := range rows {
		rows[r] = int32(r)
	}
	for _, f := range filters {
		c := t.Column(f.Col)
		if f.Table != t.Name || c == nil {
			panic(fmt.Sprintf("sqldb: filter %v applied to table %q", f, t.Name))
		}
		switch {
		case f.Op == OpLike && c.Kind == KindString:
			rows = keepIf(rows, func(r int32) bool { return MatchLike(c.Strs[r], f.Val.S) })
		case f.Op < OpEq || f.Op > OpGe || f.Val.Kind != c.Kind:
			// LIKE on a number matches its empty S field, and a value of
			// another kind compares field by field; no generated query
			// has either, so they (and an unknown op) go through Matches.
			rows = keepIf(rows, func(r int32) bool { return f.Matches(c.Value(int(r))) })
		case c.Kind == KindInt:
			rows = keep(rows, c.Ints, f.Op, f.Val.I)
		case c.Kind == KindFloat:
			rows = keep(rows, c.Flts, f.Op, f.Val.F)
		default:
			rows = keep(rows, c.Strs, f.Op, f.Val.S)
		}
	}
	return rows
}

// keep filters rows in place to those whose cell in col compares to x
// under op, one of OpEq through OpGe.
func keep[T int64 | float64 | string](rows []int32, col []T, op Op, x T) []int32 {
	out := rows[:0]
	for _, r := range rows {
		if v := col[r]; op == OpEq && v == x || op == OpNeq && v != x || op == OpLt && v < x ||
			op == OpLe && v <= x || op == OpGt && v > x || op == OpGe && v >= x {
			out = append(out, r)
		}
	}
	return out
}

func keepIf(rows []int32, ok func(r int32) bool) []int32 {
	out := rows[:0]
	for _, r := range rows {
		if ok(r) {
			out = append(out, r)
		}
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
