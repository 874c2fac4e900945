// Package plan models physical query plan trees — the paper's (I)
// "initial plan P" input, with (sequential or index) scan leaves and
// (hash, merge, or nested-loop) join inner nodes — plus the paper's
// Section 4.1 tree-to-sequence and sequence-to-tree conversion built
// on complete-binary-tree decoding embeddings (Figures 3 and 4).
package plan

import (
	"fmt"
	"strings"
)

// ScanOp enumerates leaf (scan) operators.
type ScanOp int

// Scan operators.
const (
	SeqScan ScanOp = iota
	IndexScan
)

// String implements fmt.Stringer.
func (s ScanOp) String() string {
	if s == IndexScan {
		return "IndexScan"
	}
	return "SeqScan"
}

// JoinOp enumerates inner (join) operators.
type JoinOp int

// Join operators.
const (
	HashJoin JoinOp = iota
	MergeJoin
	NestLoopJoin
)

// String implements fmt.Stringer.
func (j JoinOp) String() string {
	switch j {
	case MergeJoin:
		return "MergeJoin"
	case NestLoopJoin:
		return "NestLoopJoin"
	default:
		return "HashJoin"
	}
}

// NumScanOps and NumJoinOps size the one-hot operator encodings used
// by the featurization module.
const (
	NumScanOps = 2
	NumJoinOps = 3
)

// Node is a plan tree node: a scan leaf (Table != "") or a join.
type Node struct {
	// Leaf fields.
	Table string
	Scan  ScanOp

	// Inner fields.
	Join        JoinOp
	Left, Right *Node
}

// Leaf creates a scan node.
func Leaf(table string, op ScanOp) *Node { return &Node{Table: table, Scan: op} }

// NewJoin creates a join node over two subtrees.
func NewJoin(op JoinOp, l, r *Node) *Node {
	if l == nil || r == nil {
		panic("plan: join with nil child")
	}
	return &Node{Join: op, Left: l, Right: r}
}

// IsLeaf reports whether n is a scan node.
func (n *Node) IsLeaf() bool { return n.Table != "" }

// Tables returns the leaf tables in left-to-right order.
func (n *Node) Tables() []string {
	var out []string
	n.walkLeaves(func(l *Node) { out = append(out, l.Table) })
	return out
}

func (n *Node) walkLeaves(f func(*Node)) {
	if n.IsLeaf() {
		f(n)
		return
	}
	n.Left.walkLeaves(f)
	n.Right.walkLeaves(f)
}

// Nodes returns every node in post-order (children before parents),
// the order the featurization module serializes plans in.
func (n *Node) Nodes() []*Node {
	var out []*Node
	var rec func(*Node)
	rec = func(x *Node) {
		if !x.IsLeaf() {
			rec(x.Left)
			rec(x.Right)
		}
		out = append(out, x)
	}
	rec(n)
	return out
}

// Depth returns the maximum leaf depth (root = 0).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// IsLeftDeep reports whether every right child is a leaf.
func (n *Node) IsLeftDeep() bool {
	if n.IsLeaf() {
		return true
	}
	if !n.Right.IsLeaf() {
		return false
	}
	return n.Left.IsLeftDeep()
}

// Clone deep-copies the tree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Left = n.Left.Clone()
	c.Right = n.Right.Clone()
	return &c
}

// Paths returns, for every node in post-order (matching Nodes), its
// root path (0 = left, 1 = right); the serializer feeds these to the
// tree positional encoder.
func (n *Node) Paths() [][]int {
	var out [][]int
	var rec func(x *Node, p []int)
	rec = func(x *Node, p []int) {
		if !x.IsLeaf() {
			rec(x.Left, append(append([]int{}, p...), 0))
			rec(x.Right, append(append([]int{}, p...), 1))
		}
		out = append(out, append([]int{}, p...))
	}
	rec(n, nil)
	return out
}

// String renders the tree, e.g. "HashJoin(SeqScan(a), IndexScan(b))".
func (n *Node) String() string {
	if n.IsLeaf() {
		return fmt.Sprintf("%s(%s)", n.Scan, n.Table)
	}
	return fmt.Sprintf("%s(%s, %s)", n.Join, n.Left, n.Right)
}

// Pretty renders an indented multi-line view (used by the examples to
// show Figure 3-style trees).
func (n *Node) Pretty() string {
	var b strings.Builder
	var rec func(x *Node, indent string)
	rec = func(x *Node, indent string) {
		if x.IsLeaf() {
			fmt.Fprintf(&b, "%s%s(%s)\n", indent, x.Scan, x.Table)
			return
		}
		fmt.Fprintf(&b, "%s%s\n", indent, x.Join)
		rec(x.Left, indent+"  ")
		rec(x.Right, indent+"  ")
	}
	rec(n, "")
	return b.String()
}

// LeftDeepFromOrder builds a left-deep logical tree joining the tables
// in the given order with the given default operators.
func LeftDeepFromOrder(order []string, scan ScanOp, join JoinOp) *Node {
	if len(order) == 0 {
		panic("plan: empty order")
	}
	t := Leaf(order[0], scan)
	for _, name := range order[1:] {
		t = NewJoin(join, t, Leaf(name, scan))
	}
	return t
}

// Shape returns a canonical string for the logical tree shape (tables
// and structure, ignoring operators); used to compare decoded trees.
func (n *Node) Shape() string {
	if n.IsLeaf() {
		return n.Table
	}
	return "(" + n.Left.Shape() + "," + n.Right.Shape() + ")"
}
