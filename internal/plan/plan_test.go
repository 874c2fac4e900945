package plan

import (
	"math/rand"
	"testing"
)

// paperLeftDeep builds the left-deep tree of Figure 3(a):
// ((T1 ⋈ T2) ⋈ T3) ⋈ T4.
func paperLeftDeep() *Node {
	return NewJoin(HashJoin,
		NewJoin(HashJoin,
			NewJoin(HashJoin, Leaf("T1", SeqScan), Leaf("T2", SeqScan)),
			Leaf("T3", SeqScan)),
		Leaf("T4", SeqScan))
}

// paperBushy builds the bushy tree of Figure 3(b):
// (T1 ⋈ T2) ⋈ (T3 ⋈ T4).
func paperBushy() *Node {
	return NewJoin(HashJoin,
		NewJoin(HashJoin, Leaf("T1", SeqScan), Leaf("T2", SeqScan)),
		NewJoin(HashJoin, Leaf("T3", SeqScan), Leaf("T4", SeqScan)))
}

func TestNodeBasics(t *testing.T) {
	n := paperLeftDeep()
	if n.IsLeaf() {
		t.Fatal("join is not a leaf")
	}
	if got := n.Tables(); len(got) != 4 || got[0] != "T1" || got[3] != "T4" {
		t.Fatalf("Tables wrong: %v", got)
	}
	if n.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", n.Depth())
	}
	if !n.IsLeftDeep() {
		t.Fatal("left-deep tree misclassified")
	}
	if paperBushy().IsLeftDeep() {
		t.Fatal("bushy tree misclassified as left-deep")
	}
	if len(n.Nodes()) != 7 {
		t.Fatalf("Nodes count = %d, want 7", len(n.Nodes()))
	}
}

func TestNodesPostOrder(t *testing.T) {
	n := paperLeftDeep()
	nodes := n.Nodes()
	// Post-order: children precede parents; root last.
	if nodes[len(nodes)-1] != n {
		t.Fatal("root must be last in post-order")
	}
	pos := map[*Node]int{}
	for i, x := range nodes {
		pos[x] = i
	}
	for _, x := range nodes {
		if !x.IsLeaf() {
			if pos[x.Left] > pos[x] || pos[x.Right] > pos[x] {
				t.Fatal("children must precede parents")
			}
		}
	}
}

func TestPathsAlignWithNodes(t *testing.T) {
	n := paperBushy()
	nodes := n.Nodes()
	paths := n.Paths()
	if len(nodes) != len(paths) {
		t.Fatal("Paths/Nodes length mismatch")
	}
	// Root path empty; T1's path is left-left.
	for i, x := range nodes {
		if x == n && len(paths[i]) != 0 {
			t.Fatal("root path must be empty")
		}
		if x.IsLeaf() && x.Table == "T1" {
			if len(paths[i]) != 2 || paths[i][0] != 0 || paths[i][1] != 0 {
				t.Fatalf("T1 path wrong: %v", paths[i])
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := paperLeftDeep()
	c := n.Clone()
	c.Left.Join = MergeJoin
	if n.Left.Join == MergeJoin {
		t.Fatal("Clone must deep-copy")
	}
	if n.Shape() != c.Shape() {
		t.Fatal("Clone changed shape")
	}
}

func TestLeftDeepFromOrder(t *testing.T) {
	n := LeftDeepFromOrder([]string{"a", "b", "c"}, SeqScan, HashJoin)
	if n.Shape() != "((a,b),c)" {
		t.Fatalf("shape %q", n.Shape())
	}
}

// TestPaperFigure4LeftDeepEmbeddings asserts the exact vectors printed
// in the paper for the left-deep example.
func TestPaperFigure4LeftDeepEmbeddings(t *testing.T) {
	emb, err := DecodingEmbeddings(paperLeftDeep(), 8)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"T1": {1, 0, 0, 0, 0, 0, 0, 0},
		"T2": {0, 1, 0, 0, 0, 0, 0, 0},
		"T3": {0, 0, 1, 1, 0, 0, 0, 0},
		"T4": {0, 0, 0, 0, 1, 1, 1, 1},
	}
	for tab, w := range want {
		got := emb[tab]
		if len(got) != len(w) {
			t.Fatalf("%s width %d", tab, len(got))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s embedding %v, want %v", tab, got, w)
			}
		}
	}
}

// TestPaperFigure4BushyEmbeddings asserts the paper's bushy vectors.
func TestPaperFigure4BushyEmbeddings(t *testing.T) {
	emb, err := DecodingEmbeddings(paperBushy(), 8)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"T1": {1, 0, 0, 0, 0, 0, 0, 0},
		"T2": {0, 1, 0, 0, 0, 0, 0, 0},
		"T3": {0, 0, 1, 0, 0, 0, 0, 0},
		"T4": {0, 0, 0, 1, 0, 0, 0, 0},
	}
	for tab, w := range want {
		got := emb[tab]
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s embedding %v, want %v", tab, got, w)
			}
		}
	}
}

func TestEmbeddingRoundtripPaperTrees(t *testing.T) {
	for _, tree := range []*Node{paperLeftDeep(), paperBushy()} {
		emb, err := DecodingEmbeddings(tree, 8)
		if err != nil {
			t.Fatal(err)
		}
		back, err := TreeFromEmbeddings(emb)
		if err != nil {
			t.Fatal(err)
		}
		if back.Shape() != tree.Shape() {
			t.Fatalf("roundtrip shape %q, want %q", back.Shape(), tree.Shape())
		}
	}
}

// randomTree builds a random binary tree over distinct tables.
func randomTree(rng *rand.Rand, tables []string) *Node {
	if len(tables) == 1 {
		return Leaf(tables[0], SeqScan)
	}
	split := 1 + rng.Intn(len(tables)-1)
	return NewJoin(HashJoin, randomTree(rng, tables[:split]), randomTree(rng, tables[split:]))
}

// Property: every random tree roundtrips through its decoding
// embeddings to the same logical shape (the paper's uniqueness claim).
func TestEmbeddingRoundtripRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"A", "B", "C", "D", "E", "F", "G"}
	for iter := 0; iter < 200; iter++ {
		m := 2 + rng.Intn(6)
		tree := randomTree(rng, names[:m])
		width := 1 << 7 // generously wide: a complete tree of 8 leaves
		emb, err := DecodingEmbeddings(tree, width)
		if err != nil {
			t.Fatalf("iter %d encode: %v", iter, err)
		}
		back, err := TreeFromEmbeddings(emb)
		if err != nil {
			t.Fatalf("iter %d decode: %v (tree %s)", iter, err, tree.Shape())
		}
		if back.Shape() != tree.Shape() {
			t.Fatalf("iter %d: roundtrip %q != %q", iter, back.Shape(), tree.Shape())
		}
	}
}

// Property: distinct trees produce distinct embedding sets.
func TestEmbeddingsInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	names := []string{"A", "B", "C", "D", "E"}
	seen := map[string]string{} // embedding fingerprint -> shape
	for iter := 0; iter < 300; iter++ {
		m := 2 + rng.Intn(4)
		tree := randomTree(rng, names[:m])
		emb, err := DecodingEmbeddings(tree, 16)
		if err != nil {
			t.Fatal(err)
		}
		fp := ""
		for _, nm := range names[:m] {
			fp += nm + ":"
			for _, v := range emb[nm] {
				if v != 0 {
					fp += "1"
				} else {
					fp += "0"
				}
			}
			fp += ";"
		}
		if prev, ok := seen[fp]; ok && prev != tree.Shape() {
			t.Fatalf("embedding collision: %q and %q", prev, tree.Shape())
		}
		seen[fp] = tree.Shape()
	}
}

func TestDecodingEmbeddingErrors(t *testing.T) {
	// Width too small for depth.
	if _, err := DecodingEmbeddings(paperLeftDeep(), 4); err == nil {
		t.Fatal("expected width error")
	}
	// Duplicate table.
	dup := NewJoin(HashJoin, Leaf("X", SeqScan), Leaf("X", SeqScan))
	if _, err := DecodingEmbeddings(dup, 8); err == nil {
		t.Fatal("expected duplicate-table error")
	}
}

func TestTreeFromEmbeddingsErrors(t *testing.T) {
	if _, err := TreeFromEmbeddings(nil); err == nil {
		t.Fatal("expected empty error")
	}
	// Empty embedding for a table.
	if _, err := TreeFromEmbeddings(map[string][]float64{"A": {0, 0}}); err == nil {
		t.Fatal("expected empty-embedding error")
	}
	// Overlapping slots.
	if _, err := TreeFromEmbeddings(map[string][]float64{
		"A": {1, 0},
		"B": {1, 0},
	}); err == nil {
		t.Fatal("expected overlap error")
	}
	// Width mismatch.
	if _, err := TreeFromEmbeddings(map[string][]float64{
		"A": {1, 0},
		"B": {0, 1, 0, 0},
	}); err == nil {
		t.Fatal("expected width error")
	}
}

func TestStringAndPretty(t *testing.T) {
	n := paperBushy()
	if n.String() == "" || n.Pretty() == "" {
		t.Fatal("render empty")
	}
	if got := Leaf("x", IndexScan).String(); got != "IndexScan(x)" {
		t.Fatalf("leaf string %q", got)
	}
}
