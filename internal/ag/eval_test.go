package ag

import (
	"math/rand"
	"testing"

	"mtmlf/internal/tensor"
)

// TestEvalOpsBitwiseMatchGradOps asserts every Eval op's output is
// bitwise identical (eps = 0) to the forward result of the
// corresponding grad-tracked op.
func TestEvalOpsBitwiseMatchGradOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := tensor.Rand(rng, 7, 12, 2)
	b := tensor.Rand(rng, 7, 12, 2)
	w := tensor.Rand(rng, 12, 9, 1)
	k := tensor.Rand(rng, 5, 12, 1)
	bias := tensor.Rand(rng, 1, 12, 1)
	gamma := tensor.Rand(rng, 1, 12, 1)
	beta := tensor.Rand(rng, 1, 12, 1)

	e := NewEval()
	defer e.Reset()

	check := func(name string, got *tensor.Tensor, want *Value) {
		t.Helper()
		if !tensor.Equal(want.T, got, 0) {
			t.Fatalf("%s: Eval output diverges from grad-tracked forward", name)
		}
	}

	av, bv := Const(a), Const(b)
	check("Add", e.Add(a, b), Add(av, bv))
	check("Scale", e.Scale(a, -0.37), Scale(av, -0.37))
	check("AddBias", e.AddBias(a, bias), AddBias(av, Const(bias)))
	check("MatMul", e.MatMul(a, w), MatMul(av, Const(w)))
	check("MatMulTransB", e.MatMulTransB(a, k), MatMulTransB(av, Const(k)))
	check("ReLU", e.ReLU(a), ReLU(av))
	check("GELU", e.GELU(a), GELU(av))
	check("Tanh", e.Tanh(a), Tanh(av))
	check("SoftmaxRows", e.SoftmaxRows(a), SoftmaxRows(av))
	check("LogSoftmaxRows", e.LogSoftmaxRows(a), LogSoftmaxRows(av))
	check("LayerNormRows", e.LayerNormRows(a, gamma, beta, 1e-5),
		LayerNormRows(av, Const(gamma), Const(beta), 1e-5))
	check("ConcatRows", e.ConcatRows(a, b), ConcatRows(av, bv))
	check("ConcatCols", e.ConcatCols(a, b), ConcatCols(av, bv))
	check("SliceCols", e.SliceCols(a, 3, 9), SliceCols(av, 3, 9))
	check("RowsView", e.RowsView(a, 2, 5), SliceRows(av, 2, 5))
	check("Gather", e.Gather(w, []int{3, 0, 3, 7}), Gather(Const(w), []int{3, 0, 3, 7}))

	batchA := []*tensor.Tensor{a, b}
	batchB := []*tensor.Tensor{w, w}
	gotB := e.MatMulBatch(batchA, batchB)
	wantB := MatMulBatch([]*Value{av, bv}, []*Value{Const(w), Const(w)})
	for i := range gotB {
		check("MatMulBatch", gotB[i], wantB[i])
	}
	gotTB := e.MatMulTransBBatch([]*tensor.Tensor{a, b}, []*tensor.Tensor{k, k})
	wantTB := MatMulTransBBatch([]*Value{av, bv}, []*Value{Const(k), Const(k)})
	for i := range gotTB {
		check("MatMulTransBBatch", gotTB[i], wantTB[i])
	}
}

// testSessionOpsMatchKernels asserts every Session op is bitwise
// identical (eps = 0) to calling the underlying kernel directly — the
// pooled session adds ownership, not arithmetic. At float32, where
// there is no grad-tracked twin, this is the op-level contract.
func testSessionOpsMatchKernels[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	of := func(rows, cols int, scale float64) *tensor.Dense[T] {
		return tensor.Convert[T](tensor.Rand(rng, rows, cols, scale))
	}
	a, b := of(7, 12, 2), of(7, 12, 2)
	w, k := of(12, 9, 1), of(5, 12, 1)
	bias, gamma, beta := of(1, 12, 1), of(1, 12, 1), of(1, 12, 1)

	e := NewSession[T]()
	defer e.Reset()

	check := func(name string, got, want *tensor.Dense[T]) {
		t.Helper()
		if !tensor.Equal(got, want, 0) {
			t.Fatalf("%s: Session output diverges from direct kernel call", name)
		}
	}
	into := func(rows, cols int, f func(out *tensor.Dense[T])) *tensor.Dense[T] {
		out := tensor.NewOf[T](rows, cols)
		f(out)
		return out
	}
	like := func(f func(out *tensor.Dense[T])) *tensor.Dense[T] { return into(7, 12, f) }
	mm := func(a, b *tensor.Dense[T]) *tensor.Dense[T] {
		return into(a.Rows(), b.Cols(), func(o *tensor.Dense[T]) { tensor.MatMulInto(a, b, o) })
	}
	mmTB := func(a, b *tensor.Dense[T]) *tensor.Dense[T] {
		return into(a.Rows(), b.Rows(), func(o *tensor.Dense[T]) { tensor.MatMulTransBInto(a, b, o) })
	}

	check("Add", e.Add(a, b), like(func(o *tensor.Dense[T]) { tensor.AddInto(a, b, o) }))
	check("Scale", e.Scale(a, -0.37), like(func(o *tensor.Dense[T]) { tensor.ScaleInto(a, T(-0.37), o) }))
	check("AddBias", e.AddBias(a, bias), like(func(o *tensor.Dense[T]) { tensor.AddBiasInto(a, bias, o) }))
	check("MatMul", e.MatMul(a, w), mm(a, w))
	check("MatMulTransB", e.MatMulTransB(a, k), mmTB(a, k))
	check("ReLU", e.ReLU(a), like(func(o *tensor.Dense[T]) { tensor.ReLUInto(a, o) }))
	check("GELU", e.GELU(a), like(func(o *tensor.Dense[T]) { tensor.GELUInto(a, o) }))
	check("Tanh", e.Tanh(a), like(func(o *tensor.Dense[T]) { tensor.TanhInto(a, o) }))
	check("SoftmaxRows", e.SoftmaxRows(a), like(func(o *tensor.Dense[T]) { tensor.SoftmaxRowsInto(a, o) }))
	check("LogSoftmaxRows", e.LogSoftmaxRows(a), like(func(o *tensor.Dense[T]) { tensor.LogSoftmaxRowsInto(a, o) }))
	check("LayerNormRows", e.LayerNormRows(a, gamma, beta, 1e-5),
		like(func(o *tensor.Dense[T]) { tensor.LayerNormRowsInto(a, gamma, beta, 1e-5, o) }))

	batchM := e.MatMulBatch([]*tensor.Dense[T]{a, b}, []*tensor.Dense[T]{w, w})
	check("MatMulBatch[0]", batchM[0], mm(a, w))
	check("MatMulBatch[1]", batchM[1], mm(b, w))
	batchT := e.MatMulTransBBatch([]*tensor.Dense[T]{a, b}, []*tensor.Dense[T]{k, k})
	check("MatMulTransBBatch[0]", batchT[0], mmTB(a, k))
	check("MatMulTransBBatch[1]", batchT[1], mmTB(b, k))

	// The session-owned int8 scratch path against a direct call, and
	// that the scratch is grown once and reused across Reset.
	w8 := tensor.QuantizeLinear(tensor.Xavier(rng, 12, 10))
	b8 := of(1, 10, 1)
	check("LinearInt8", e.LinearInt8(a, w8, b8), into(7, 10, func(o *tensor.Dense[T]) {
		tensor.MatMulInt8Into(a, w8, b8, o, make([]int8, 7*12))
	}))
	buf := &e.qscratch[0]
	e.Reset()
	_ = e.LinearInt8(a, w8, b8)
	if &e.qscratch[0] != buf {
		t.Fatal("LinearInt8 scratch not reused across Reset")
	}
}

// testSessionStructuralOps exercises the copy/view ops against
// hand-built expectations.
func testSessionStructuralOps[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := tensor.Convert[T](tensor.Rand(rng, 4, 6, 1))
	b := tensor.Convert[T](tensor.Rand(rng, 4, 6, 1))

	e := NewSession[T]()
	defer e.Reset()

	cr := e.ConcatRows(a, b)
	if cr.Rows() != 8 || cr.Cols() != 6 {
		t.Fatalf("ConcatRows shape %v", cr.Shape)
	}
	if cr.At(5, 2) != b.At(1, 2) {
		t.Fatal("ConcatRows content mismatch")
	}

	cc := e.ConcatCols(a, b)
	if cc.Rows() != 4 || cc.Cols() != 12 {
		t.Fatalf("ConcatCols shape %v", cc.Shape)
	}
	if cc.At(2, 9) != b.At(2, 3) {
		t.Fatal("ConcatCols content mismatch")
	}

	sc := e.SliceCols(a, 1, 4)
	if sc.Rows() != 4 || sc.Cols() != 3 {
		t.Fatalf("SliceCols shape %v", sc.Shape)
	}
	if sc.At(3, 0) != a.At(3, 1) {
		t.Fatal("SliceCols content mismatch")
	}

	rv := e.RowsView(a, 1, 3)
	if rv.Rows() != 2 || rv.Cols() != 6 {
		t.Fatalf("RowsView shape %v", rv.Shape)
	}
	if &rv.Data[0] != &a.Data[6] {
		t.Fatal("RowsView is not a zero-copy view")
	}

	g := e.Gather(a, []int{2, 0, 2})
	if g.Rows() != 3 || g.At(0, 4) != a.At(2, 4) || g.At(1, 4) != a.At(0, 4) {
		t.Fatal("Gather content mismatch")
	}
}

// TestSessionSteadyStateAllocationFree asserts a warm session runs a
// forward chain without allocating, in each of the three serving
// tiers: float weights at float64 and at float32, and int8 weights on
// the float32 session.
func TestSessionSteadyStateAllocationFree(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testSteadyStateAllocationFree[float64](t, false) })
	t.Run("f32", func(t *testing.T) { testSteadyStateAllocationFree[float32](t, false) })
	t.Run("int8", func(t *testing.T) { testSteadyStateAllocationFree[float32](t, true) })
}

func testSteadyStateAllocationFree[T tensor.Float](t *testing.T, int8Weights bool) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.Convert[T](tensor.Rand(rng, 4, 16, 1))
	w64 := tensor.Xavier(rng, 16, 16)
	w, w8 := tensor.Convert[T](w64), tensor.QuantizeLinear(w64)
	bias := tensor.Convert[T](tensor.Rand(rng, 1, 16, 1))
	e := NewSession[T]()
	chain := func() {
		var h *tensor.Dense[T]
		if int8Weights {
			h = e.LinearInt8(x, w8, bias)
		} else {
			h = e.AddBias(e.MatMul(x, w), bias)
		}
		h = e.GELU(h)
		h = e.SoftmaxRows(h)
		_ = e.RowsView(h, 0, 2)
		e.Reset()
	}
	chain() // warm the pool (and the int8 scratch)
	if allocs := testing.AllocsPerRun(50, chain); allocs > 0 {
		t.Fatalf("warm session chain allocates %.1f times per run", allocs)
	}
}

// testAcquireRelease checks the process-wide pool hands the session
// back warm, and at its own element type.
func testAcquireRelease[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	x := tensor.Convert[T](tensor.Rand(rng, 3, 8, 1))
	e := Acquire[T]()
	first := e.Scale(x, 2)
	Release(e)
	e2 := Acquire[T]()
	defer Release(e2)
	second := e2.Scale(x, 3)
	if e2 == e && &second.Data[0] != &first.Data[0] {
		t.Fatal("reacquired session did not reuse its pooled buffer")
	}
}

// TestSessionBothElementTypes runs the element-type-independent
// session contracts at float64 and float32.
func TestSessionBothElementTypes(t *testing.T) {
	t.Run("f64/ops", testSessionOpsMatchKernels[float64])
	t.Run("f32/ops", testSessionOpsMatchKernels[float32])
	t.Run("f64/structural", testSessionStructuralOps[float64])
	t.Run("f32/structural", testSessionStructuralOps[float32])
	t.Run("f64/acquire", testAcquireRelease[float64])
	t.Run("f32/acquire", testAcquireRelease[float32])
}

// TestNoGradReclaims checks the NoGrad wrapper hands the evaluator
// back warm: two successive sessions reuse the same buffers.
func TestNoGradReclaims(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := tensor.Rand(rng, 3, 8, 1)
	var first *tensor.Tensor
	NoGrad(func(e *Eval) { first = e.Scale(x, 2) })
	var second *tensor.Tensor
	var reused bool
	NoGrad(func(e *Eval) {
		second = e.Scale(x, 3)
		reused = &second.Data[0] == &first.Data[0]
	})
	if !reused {
		t.Skip("sync.Pool did not return the same evaluator (GC timing); nothing to assert")
	}
}
