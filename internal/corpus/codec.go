package corpus

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// The record codec. Every section of a file is one record built from
// four primitives:
//
//   - a uvarint for lengths and flags, a zigzag varint for every Go
//     int, int64 and enum;
//   - a float64 as its eight IEEE-754 bits, little-endian, so NaN
//     payloads, −0 and ±Inf round-trip bitwise;
//   - a string as its uvarint length and bytes;
//   - a bool as one byte, 0 or 1.
//
// Struct fields follow in declaration order, a slice is its uvarint
// length and then its elements, and a nil pointer is a cleared flag
// bit. A zero length decodes to nil, so for any decoded value x,
// decode(encode(x)) is reflect.DeepEqual to x.

// appendInt appends a signed integer as a zigzag varint.
func appendInt[T ~int | ~int64](b []byte, v T) []byte { return binary.AppendVarint(b, int64(v)) }

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendList[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = elem(b, x)
	}
	return b
}

func appendInts(b []byte, xs []int64) []byte { return appendList(b, xs, appendInt[int64]) }

func appendF64s(b []byte, xs []float64) []byte { return appendList(b, xs, appendF64) }

func appendStrs(b []byte, xs []string) []byte { return appendList(b, xs, appendStr) }

// Minimum encoded sizes, in bytes, of the elements a length prefix
// counts: a prefix claiming more elements than the bytes left can hold
// is corrupt before anything is allocated.
const (
	minEdge       = 4                         // four empty strings
	minFilter     = 1 + 1 + 1 + minVal        // table, column, op, value
	minVal        = 1 + 1 + 8 + 1             // kind, int, float bits, string
	minNode       = 1 + 1 + 1 + 1             // child mask, table, scan, join
	minTable      = 1 + 1                     // name, column count
	minColumn     = 1 + 1 + 1 + 1 + 1         // name, kind, three lengths
	minWorkload   = 1 + 1                     // table, query count
	minSingle     = 1 + 1 + 8 + 8             // table, filter count, card, frac
	minDBIndex    = 1 + 1 + 1 + 1 + 4 + 4 + 1 // name, three offsets, two CRC32Cs, example count
	minExampleRef = 1 + 4                     // offset delta, CRC32C
)

// maxDensity bounds what a record may allocate as it decodes, in bytes
// per record byte. Every element type costs at most this much per byte
// of its own encoding; the densest are tables and single-table
// workloads, 40-byte structs that encode in 2 bytes when empty. So a
// valid record never runs out, and no length prefix can buy more.
const maxDensity = 20

// dec reads one record. The first failure sticks: it empties the
// input, so every later read returns a zero value at once, and the
// record's decode function reports it.
type dec struct {
	b []byte
	// s, when set, is the whole record as a string: str returns
	// substrings of it instead of a copy each, so every string of the
	// record shares one allocation (and keeps all of it alive).
	s string
	// budget is what the record may still allocate.
	budget int
	err    error
}

func newDec(b []byte) dec { return dec{b: b, budget: maxDensity * len(b)} }

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// end reports the record's error, or trailing bytes it did not use.
func (d *dec) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d bytes after the record", len(d.b))
	}
	return d.err
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) int() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) u32() uint32 {
	if len(d.b) < 4 {
		d.fail("truncated checksum")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) f64() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("bad bool")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// count reads a length prefix of elements at least size bytes each and
// checks it against the bytes left.
func (d *dec) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("length %d does not fit in the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// charge takes n elements of size bytes from the budget, before they
// are allocated.
func (d *dec) charge(n, size int) bool {
	if n*size > d.budget {
		d.fail("%d elements of %d bytes exceed what the record may decode to", n, size)
		return false
	}
	d.budget -= n * size
	return true
}

func (d *dec) str() string {
	n := d.count(1)
	var s string
	if d.s != "" {
		at := len(d.s) - len(d.b)
		s = d.s[at : at+n]
	} else if d.charge(n, 1) {
		s = string(d.b[:n])
	} else {
		return ""
	}
	d.b = d.b[n:]
	return s
}

func list[T any](d *dec, size int, elem func(*dec) T) []T {
	var zero T
	n := d.count(size)
	if n == 0 || !d.charge(n, int(unsafe.Sizeof(zero))) {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = elem(d)
	}
	return out
}

func (d *dec) ints() []int64 {
	n := d.count(1)
	if n == 0 || !d.charge(n, 8) {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}

func (d *dec) f64s() []float64 {
	n := d.count(8)
	if n == 0 || !d.charge(n, 8) {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return out
}

func (d *dec) strs() []string { return list(d, 1, (*dec).str) }

// Header: the preamble, then Meta.

func appendHeader(b []byte, m *Meta) []byte {
	b = binary.BigEndian.AppendUint16(append(b, Magic...), Version)
	b = appendInt(b, m.Seed)
	b = appendInt(b, m.ShardSize)
	b = appendStr(b, m.Note)
	b = appendInt(b, m.SingleTablePerTable)
	c := &m.MLAWorkload
	b = appendInt(b, c.MinTables)
	b = appendInt(b, c.MaxTables)
	b = appendInt(b, c.MaxFilteredTables)
	b = appendF64(b, c.FilterProb)
	b = appendInt(b, c.MaxFiltersPerTable)
	b = appendF64(b, c.LikeProb)
	b = appendBool(b, c.WithOptimal)
	return appendInt(b, c.MinResultRows)
}

// decodeHeader checks the preamble and decodes Meta. A file of another
// version fails with a *VersionError.
func decodeHeader(b []byte) (Meta, error) {
	var m Meta
	if len(b) < preambleSize || string(b[:len(Magic)]) != Magic {
		return m, fmt.Errorf("no %q preamble", Magic)
	}
	if v := binary.BigEndian.Uint16(b[len(Magic):]); v != Version {
		return m, &VersionError{Version: int(v)}
	}
	d := newDec(b[preambleSize:])
	m.Seed = d.int()
	m.ShardSize = int(d.int())
	m.Note = d.str()
	m.SingleTablePerTable = int(d.int())
	c := &m.MLAWorkload
	c.MinTables = int(d.int())
	c.MaxTables = int(d.int())
	c.MaxFilteredTables = int(d.int())
	c.FilterProb = d.f64()
	c.MaxFiltersPerTable = int(d.int())
	c.LikeProb = d.f64()
	c.WithOptimal = d.bool()
	c.MinResultRows = int(d.int())
	return m, d.end()
}

// Schema: one database's name, columnar tables, join edges and fact
// tables.

func appendSchema(b []byte, rec *dbRecord) []byte {
	b = appendStr(b, rec.Name)
	b = appendList(b, rec.Tables, appendTable)
	b = appendList(b, rec.Edges, appendEdge)
	return appendStrs(b, rec.FactTables)
}

func appendTable(b []byte, t tableRecord) []byte {
	return appendList(appendStr(b, t.Name), t.Cols, appendColumn)
}

func appendColumn(b []byte, c columnRecord) []byte {
	b = appendInt(appendStr(b, c.Name), c.Kind)
	return appendStrs(appendF64s(appendInts(b, c.Ints), c.Flts), c.Strs)
}

func decodeSchema(b []byte, rec *dbRecord) error {
	d := newDec(b)
	rec.Name = d.str()
	rec.Tables = list(&d, minTable, (*dec).table)
	rec.Edges = list(&d, minEdge, (*dec).edge)
	rec.FactTables = d.strs()
	return d.end()
}

func (d *dec) table() tableRecord {
	return tableRecord{Name: d.str(), Cols: list(d, minColumn, (*dec).column)}
}

func (d *dec) column() columnRecord {
	return columnRecord{Name: d.str(), Kind: sqldb.Kind(d.int()), Ints: d.ints(), Flts: d.f64s(), Strs: d.strs()}
}

// Single-table section: the per-table encoder pre-training workloads.

func appendSingleTable(b []byte, ws []workload.TableWorkload) []byte {
	return appendList(b, ws, func(b []byte, w workload.TableWorkload) []byte {
		return appendList(appendStr(b, w.Table), w.Queries, appendSingleQuery)
	})
}

func appendSingleQuery(b []byte, q workload.SingleTableQuery) []byte {
	b = appendList(appendStr(b, q.Table), q.Filters, appendFilter)
	return appendF64(appendF64(b, q.Card), q.Frac)
}

func decodeSingleTable(b []byte) ([]workload.TableWorkload, error) {
	d := newDec(b)
	ws := list(&d, minWorkload, func(d *dec) workload.TableWorkload {
		return workload.TableWorkload{Table: d.str(), Queries: list(d, minSingle, (*dec).singleQuery)}
	})
	return ws, d.end()
}

func (d *dec) singleQuery() workload.SingleTableQuery {
	return workload.SingleTableQuery{Table: d.str(), Filters: list(d, minFilter, (*dec).filter), Card: d.f64(), Frac: d.f64()}
}

// Example: one workload.LabeledQuery.

// Example flag bits: which of the pointer fields follow.
const (
	hasQuery = 1 << iota
	hasPlan
)

func appendExample(b []byte, lq *workload.LabeledQuery) []byte {
	var flags uint64
	if lq.Q != nil {
		flags |= hasQuery
	}
	if lq.Plan != nil {
		flags |= hasPlan
	}
	b = binary.AppendUvarint(b, flags)
	if lq.Q != nil {
		b = appendStrs(b, lq.Q.Tables)
		b = appendList(b, lq.Q.Joins, appendEdge)
		b = appendList(b, lq.Q.Filters, appendFilter)
	}
	if lq.Plan != nil {
		b = appendNodes(binary.AppendUvarint(b, uint64(nodeCount(lq.Plan))), lq.Plan)
	}
	b = appendF64s(appendF64s(b, lq.NodeCards), lq.NodeCosts)
	b = appendF64(appendF64(appendF64(b, lq.Card), lq.Cost), lq.RawCard)
	return appendStrs(b, lq.OptimalOrder)
}

// decodeExample decodes an example; its strings share one copy of b.
func decodeExample(b []byte, lq *workload.LabeledQuery) error {
	d := newDec(b)
	d.s = string(b)
	flags := d.uvarint()
	if flags&^(hasQuery|hasPlan) != 0 {
		d.fail("unknown example flags %#x", flags)
	}
	if flags&hasQuery != 0 {
		lq.Q = &sqldb.Query{Tables: d.strs(), Joins: list(&d, minEdge, (*dec).edge), Filters: list(&d, minFilter, (*dec).filter)}
	}
	if flags&hasPlan != 0 {
		lq.Plan = d.plan()
	}
	lq.NodeCards = d.f64s()
	lq.NodeCosts = d.f64s()
	lq.Card = d.f64()
	lq.Cost = d.f64()
	lq.RawCard = d.f64()
	lq.OptimalOrder = d.strs()
	return d.end()
}

func appendEdge(b []byte, e sqldb.JoinEdge) []byte {
	return appendStr(appendStr(appendStr(appendStr(b, e.T1), e.C1), e.T2), e.C2)
}

func (d *dec) edge() sqldb.JoinEdge {
	return sqldb.JoinEdge{T1: d.str(), C1: d.str(), T2: d.str(), C2: d.str()}
}

func appendFilter(b []byte, f sqldb.Filter) []byte {
	b = appendInt(appendStr(appendStr(b, f.Table), f.Col), f.Op)
	b = appendF64(appendInt(appendInt(b, f.Val.Kind), f.Val.I), f.Val.F)
	return appendStr(b, f.Val.S)
}

func (d *dec) filter() sqldb.Filter {
	return sqldb.Filter{Table: d.str(), Col: d.str(), Op: sqldb.Op(d.int()),
		Val: sqldb.Value{Kind: sqldb.Kind(d.int()), I: d.int(), F: d.f64(), S: d.str()}}
}

// A plan tree is its node count, then its nodes in post-order, each a
// child mask (which of Left and Right precede it) and its own fields.

const (
	hasLeft = 1 << iota
	hasRight
)

func nodeCount(n *plan.Node) int {
	c := 1
	if n.Left != nil {
		c += nodeCount(n.Left)
	}
	if n.Right != nil {
		c += nodeCount(n.Right)
	}
	return c
}

func appendNodes(b []byte, n *plan.Node) []byte {
	var mask uint64
	if n.Left != nil {
		b, mask = appendNodes(b, n.Left), mask|hasLeft
	}
	if n.Right != nil {
		b, mask = appendNodes(b, n.Right), mask|hasRight
	}
	b = appendStr(binary.AppendUvarint(b, mask), n.Table)
	return appendInt(appendInt(b, n.Scan), n.Join)
}

// plan rebuilds a tree with an explicit stack of finished subtrees, so
// no input can recurse deeply. The nodes share one allocation.
func (d *dec) plan() *plan.Node {
	n := d.count(minNode)
	if n == 0 {
		d.fail("empty plan")
		return nil
	}
	if !d.charge(n, int(unsafe.Sizeof(plan.Node{}))) {
		return nil
	}
	nodes := make([]plan.Node, n)
	var room [8]*plan.Node // holds any left-deep plan's stack
	stack := room[:0]
	for i := 0; i < n && d.err == nil; i++ {
		mask := d.uvarint()
		if mask > hasLeft|hasRight || bits.OnesCount64(mask) > len(stack) {
			d.fail("plan node %d: child mask %#x over %d finished subtrees", i, mask, len(stack))
			return nil
		}
		nd := &nodes[i]
		*nd = plan.Node{Table: d.str(), Scan: plan.ScanOp(d.int()), Join: plan.JoinOp(d.int())}
		if mask&hasRight != 0 {
			nd.Right, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		if mask&hasLeft != 0 {
			nd.Left, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		stack = append(stack, nd)
	}
	if d.err != nil {
		return nil
	}
	if len(stack) != 1 {
		d.fail("plan leaves %d roots", len(stack))
		return nil
	}
	return stack[0]
}

// Footer: the index. Example offsets are stored as differences from the
// previous section's, which keeps most of them to two bytes.

func appendFooter(b []byte, f *footer) []byte {
	b = binary.LittleEndian.AppendUint32(appendInt(b, f.HeaderEnd), f.HeaderCRC)
	return appendList(b, f.DBs, func(b []byte, x dbIndex) []byte {
		b = appendInt(appendInt(appendInt(appendStr(b, x.Name), x.Off), x.End), x.SingleOff)
		b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, x.SchemaCRC), x.SingleCRC)
		b = binary.AppendUvarint(b, uint64(len(x.ExampleOffs)))
		prev := x.Off
		for i, off := range x.ExampleOffs {
			b = binary.LittleEndian.AppendUint32(appendInt(b, off-prev), x.ExampleCRCs[i])
			prev = off
		}
		return b
	})
}

func decodeFooter(b []byte, f *footer) error {
	d := newDec(b)
	f.HeaderEnd = d.int()
	f.HeaderCRC = d.u32()
	f.DBs = list(&d, minDBIndex, func(d *dec) dbIndex {
		x := dbIndex{Name: d.str(), Off: d.int(), End: d.int(), SingleOff: d.int(), SchemaCRC: d.u32(), SingleCRC: d.u32()}
		if n := d.count(minExampleRef); n > 0 && d.charge(n, 8+4) {
			x.ExampleOffs, x.ExampleCRCs = make([]int64, n), make([]uint32, n)
			prev := x.Off
			for i := range n {
				prev += d.int()
				x.ExampleOffs[i], x.ExampleCRCs[i] = prev, d.u32()
			}
		}
		return x
	})
	return d.end()
}
