package corpus

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// Every section of a file is one record in ckptio's record codec
// (internal/ckptio/record.go), which also bounds what decoding one may
// allocate.

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

// Header: the preamble, then Meta.

func appendHeader(b []byte, m *Meta) []byte {
	b = binary.BigEndian.AppendUint16(append(b, Magic...), Version)
	b = ckptio.AppendInt(b, m.Seed)
	b = ckptio.AppendStr(b, m.Note)
	b = ckptio.AppendInt(b, m.SingleTablePerTable)
	c := &m.MLAWorkload
	b = ckptio.AppendInt(b, c.MinTables)
	b = ckptio.AppendInt(b, c.MaxTables)
	b = ckptio.AppendInt(b, c.MaxFilteredTables)
	b = ckptio.AppendF64(b, c.FilterProb)
	b = ckptio.AppendInt(b, c.MaxFiltersPerTable)
	b = ckptio.AppendF64(b, c.LikeProb)
	b = ckptio.AppendBool(b, c.WithOptimal)
	return ckptio.AppendInt(b, c.MinResultRows)
}

// decodeHeader checks the preamble and decodes Meta, refusing a file of
// another version.
func decodeHeader(b []byte) (Meta, error) {
	var m Meta
	if len(b) < preambleSize || string(b[:len(Magic)]) != Magic {
		return m, fmt.Errorf("no %q preamble", Magic)
	}
	if v := binary.BigEndian.Uint16(b[len(Magic):]); v != Version {
		return m, fmt.Errorf("unsupported corpus version %d — regenerate with mtmlf-datagen", v)
	}
	d := ckptio.NewDec(b[preambleSize:])
	m.Seed = d.Int()
	m.Note = d.Str()
	m.SingleTablePerTable = int(d.Int())
	c := &m.MLAWorkload
	c.MinTables = int(d.Int())
	c.MaxTables = int(d.Int())
	c.MaxFilteredTables = int(d.Int())
	c.FilterProb = d.F64()
	c.MaxFiltersPerTable = int(d.Int())
	c.LikeProb = d.F64()
	c.WithOptimal = d.Bool()
	c.MinResultRows = int(d.Int())
	return m, d.End()
}

// Schema: one database's name, columnar tables, join edges and fact
// tables.

func appendSchema(b []byte, rec *dbRecord) []byte {
	b = ckptio.AppendStr(b, rec.Name)
	b = ckptio.AppendList(b, rec.Tables, appendTable)
	b = ckptio.AppendList(b, rec.Edges, appendEdge)
	return ckptio.AppendStrs(b, rec.FactTables)
}

func appendTable(b []byte, t tableRecord) []byte {
	return ckptio.AppendList(ckptio.AppendStr(b, t.Name), t.Cols, appendColumn)
}

func appendColumn(b []byte, c columnRecord) []byte {
	b = ckptio.AppendInt(ckptio.AppendStr(b, c.Name), c.Kind)
	return ckptio.AppendStrs(ckptio.AppendF64s(ckptio.AppendInts(b, c.Ints), c.Flts), c.Strs)
}

func decodeSchema(b []byte, rec *dbRecord) error {
	d := ckptio.NewDec(b)
	rec.Name = d.Str()
	rec.Tables = ckptio.List(&d, minTable, decTable)
	rec.Edges = ckptio.List(&d, minEdge, decEdge)
	rec.FactTables = d.Strs()
	return d.End()
}

func decTable(d *ckptio.Dec) tableRecord {
	return tableRecord{Name: d.Str(), Cols: ckptio.List(d, minColumn, decColumn)}
}

func decColumn(d *ckptio.Dec) columnRecord {
	return columnRecord{Name: d.Str(), Kind: sqldb.Kind(d.Int()), Ints: ckptio.Ints[int64](d), Flts: d.F64s(), Strs: d.Strs()}
}

// Single-table section: the per-table encoder pre-training workloads.

func appendSingleTable(b []byte, ws []workload.TableWorkload) []byte {
	return ckptio.AppendList(b, ws, func(b []byte, w workload.TableWorkload) []byte {
		return ckptio.AppendList(ckptio.AppendStr(b, w.Table), w.Queries, appendSingleQuery)
	})
}

func appendSingleQuery(b []byte, q workload.SingleTableQuery) []byte {
	b = ckptio.AppendList(ckptio.AppendStr(b, q.Table), q.Filters, appendFilter)
	return ckptio.AppendF64(ckptio.AppendF64(b, q.Card), q.Frac)
}

func decodeSingleTable(b []byte) ([]workload.TableWorkload, error) {
	d := ckptio.NewDec(b)
	ws := ckptio.List(&d, minWorkload, func(d *ckptio.Dec) workload.TableWorkload {
		return workload.TableWorkload{Table: d.Str(), Queries: ckptio.List(d, minSingle, decSingleQuery)}
	})
	return ws, d.End()
}

func decSingleQuery(d *ckptio.Dec) workload.SingleTableQuery {
	return workload.SingleTableQuery{Table: d.Str(), Filters: ckptio.List(d, minFilter, decFilter), Card: d.F64(), Frac: d.F64()}
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
		b = ckptio.AppendStrs(b, lq.Q.Tables)
		b = ckptio.AppendList(b, lq.Q.Joins, appendEdge)
		b = ckptio.AppendList(b, lq.Q.Filters, appendFilter)
	}
	if lq.Plan != nil {
		b = appendNodes(binary.AppendUvarint(b, uint64(nodeCount(lq.Plan))), lq.Plan)
	}
	b = ckptio.AppendF64s(ckptio.AppendF64s(b, lq.NodeCards), lq.NodeCosts)
	b = ckptio.AppendF64(ckptio.AppendF64(ckptio.AppendF64(b, lq.Card), lq.Cost), lq.RawCard)
	return ckptio.AppendStrs(b, lq.OptimalOrder)
}

// decodeExample decodes an example; its strings share one copy of b.
func decodeExample(b []byte, lq *workload.LabeledQuery) error {
	d := ckptio.NewDec(b)
	d.ShareStrings()
	flags := d.Uvarint()
	if flags&^(hasQuery|hasPlan) != 0 {
		d.Fail("unknown example flags %#x", flags)
	}
	if flags&hasQuery != 0 {
		lq.Q = &sqldb.Query{Tables: d.Strs(), Joins: ckptio.List(&d, minEdge, decEdge), Filters: ckptio.List(&d, minFilter, decFilter)}
	}
	if flags&hasPlan != 0 {
		lq.Plan = decPlan(&d)
	}
	lq.NodeCards = d.F64s()
	lq.NodeCosts = d.F64s()
	lq.Card = d.F64()
	lq.Cost = d.F64()
	lq.RawCard = d.F64()
	lq.OptimalOrder = d.Strs()
	return d.End()
}

func appendEdge(b []byte, e sqldb.JoinEdge) []byte {
	return ckptio.AppendStr(ckptio.AppendStr(ckptio.AppendStr(ckptio.AppendStr(b, e.T1), e.C1), e.T2), e.C2)
}

func decEdge(d *ckptio.Dec) sqldb.JoinEdge {
	return sqldb.JoinEdge{T1: d.Str(), C1: d.Str(), T2: d.Str(), C2: d.Str()}
}

func appendFilter(b []byte, f sqldb.Filter) []byte {
	b = ckptio.AppendInt(ckptio.AppendStr(ckptio.AppendStr(b, f.Table), f.Col), f.Op)
	b = ckptio.AppendF64(ckptio.AppendInt(ckptio.AppendInt(b, f.Val.Kind), f.Val.I), f.Val.F)
	return ckptio.AppendStr(b, f.Val.S)
}

func decFilter(d *ckptio.Dec) sqldb.Filter {
	return sqldb.Filter{Table: d.Str(), Col: d.Str(), Op: sqldb.Op(d.Int()),
		Val: sqldb.Value{Kind: sqldb.Kind(d.Int()), I: d.Int(), F: d.F64(), S: d.Str()}}
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
	b = ckptio.AppendStr(binary.AppendUvarint(b, mask), n.Table)
	return ckptio.AppendInt(ckptio.AppendInt(b, n.Scan), n.Join)
}

// decPlan rebuilds a tree with an explicit stack of finished subtrees, so
// no input can recurse deeply. The nodes share one allocation.
func decPlan(d *ckptio.Dec) *plan.Node {
	n := d.Count(minNode)
	if n == 0 {
		d.Fail("empty plan")
		return nil
	}
	if !d.Charge(n, int(unsafe.Sizeof(plan.Node{}))) {
		return nil
	}
	nodes := make([]plan.Node, n)
	var room [8]*plan.Node // holds any left-deep plan's stack
	stack := room[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		mask := d.Uvarint()
		if mask > hasLeft|hasRight || bits.OnesCount64(mask) > len(stack) {
			d.Fail("plan node %d: child mask %#x over %d finished subtrees", i, mask, len(stack))
			return nil
		}
		nd := &nodes[i]
		*nd = plan.Node{Table: d.Str(), Scan: plan.ScanOp(d.Int()), Join: plan.JoinOp(d.Int())}
		if mask&hasRight != 0 {
			nd.Right, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		if mask&hasLeft != 0 {
			nd.Left, stack = stack[len(stack)-1], stack[:len(stack)-1]
		}
		stack = append(stack, nd)
	}
	if d.Err() != nil {
		return nil
	}
	if len(stack) != 1 {
		d.Fail("plan leaves %d roots", len(stack))
		return nil
	}
	return stack[0]
}

// Footer: the index. Example offsets are stored as differences from the
// previous section's, which keeps most of them to two bytes.

func appendFooter(b []byte, f *footer) []byte {
	b = binary.LittleEndian.AppendUint32(ckptio.AppendInt(b, f.HeaderEnd), f.HeaderCRC)
	return ckptio.AppendList(b, f.DBs, func(b []byte, x dbIndex) []byte {
		b = ckptio.AppendInt(ckptio.AppendInt(ckptio.AppendInt(ckptio.AppendStr(b, x.Name), x.Off), x.End), x.SingleOff)
		b = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(b, x.SchemaCRC), x.SingleCRC)
		b = binary.AppendUvarint(b, uint64(len(x.ExampleOffs)))
		prev := x.Off
		for i, off := range x.ExampleOffs {
			b = binary.LittleEndian.AppendUint32(ckptio.AppendInt(b, off-prev), x.ExampleCRCs[i])
			prev = off
		}
		return b
	})
}

func decodeFooter(b []byte, f *footer) error {
	d := ckptio.NewDec(b)
	f.HeaderEnd = d.Int()
	f.HeaderCRC = d.U32()
	f.DBs = ckptio.List(&d, minDBIndex, func(d *ckptio.Dec) dbIndex {
		x := dbIndex{Name: d.Str(), Off: d.Int(), End: d.Int(), SingleOff: d.Int(), SchemaCRC: d.U32(), SingleCRC: d.U32()}
		if n := d.Count(minExampleRef); n > 0 && d.Charge(n, 8+4) {
			x.ExampleOffs, x.ExampleCRCs = make([]int64, n), make([]uint32, n)
			prev := x.Off
			for i := range n {
				prev += d.Int()
				x.ExampleOffs[i], x.ExampleCRCs[i] = prev, d.U32()
			}
		}
		return x
	})
	return d.End()
}
