package ag

import (
	"math"
	"math/rand"
	"testing"

	"mtmlf/internal/tensor"
)

// TestArenaMatchesHeap runs every op's forward and backward on an
// arena that an earlier graph left dirty — each buffer it handed out
// filled with NaN, as a race build's Reset does — and then reset, and
// requires the heap path's result, loss and gradients bit for bit:
// through Backward (the parameters' Grad fields) and through
// BackwardIntoArena (a sink on a second dirty arena). A rule that
// takes an unzeroed buffer where it accumulates reads NaN and fails.
//
// Each op's first operand x is an interior node on the arena (a
// parameter plus an arena constant); where the op takes a second
// operand it is a parameter itself, so both kinds of destination are
// covered: interior gradients from the graph's arena, leaf gradients
// from the slot arena (or, without a sink, the graph's).
func TestArenaMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	px := Param(tensor.Rand(rng, 4, 6, 1))
	cx := tensor.Rand(rng, 4, 6, 1)
	pSame := Param(tensor.Rand(rng, 4, 6, 1))
	pRow := Param(tensor.Rand(rng, 1, 6, 1))
	pBeta := Param(tensor.Rand(rng, 1, 6, 1))
	pW := Param(tensor.Rand(rng, 6, 3, 1))
	pK := Param(tensor.Rand(rng, 5, 6, 1))
	pL := Param(tensor.Rand(rng, 3, 4, 1))
	pEmb := Param(tensor.Rand(rng, 7, 6, 1))
	params := []*Value{px, pSame, pRow, pBeta, pW, pK, pL, pEmb}

	cases := []struct {
		name string
		op   func(x *Value) *Value
	}{
		{"Add", func(x *Value) *Value { return Add(x, pSame) }},
		{"Add(x,x)", func(x *Value) *Value { return Add(x, x) }},
		{"Sub", func(x *Value) *Value { return Sub(x, pSame) }},
		{"Sub(p,x)", func(x *Value) *Value { return Sub(pSame, x) }},
		{"Mul", func(x *Value) *Value { return Mul(x, pSame) }},
		{"Scale", func(x *Value) *Value { return Scale(x, -0.37) }},
		{"AddBias", func(x *Value) *Value { return AddBias(x, pRow) }},
		{"MatMul", func(x *Value) *Value { return MatMul(x, pW) }},
		{"MatMul(p,x)", func(x *Value) *Value { return MatMul(pL, x) }},
		{"MatMulTransB", func(x *Value) *Value { return MatMulTransB(x, pK) }},
		{"MatMulTransB(p,x)", func(x *Value) *Value { return MatMulTransB(pK, x) }},
		{"MatMulBatch", func(x *Value) *Value { return ConcatRows(MatMulBatch([]*Value{x, x}, []*Value{pW, pW})...) }},
		{"MatMulTransBBatch", func(x *Value) *Value {
			return ConcatRows(MatMulTransBBatch([]*Value{x, pSame}, []*Value{pSame, x})...)
		}},
		{"ReLU", ReLU},
		{"GELU", GELU},
		{"Tanh", Tanh},
		{"Sigmoid", Sigmoid},
		{"Exp", Exp},
		{"Log", func(x *Value) *Value { return Log(Abs(x)) }},
		{"Abs", Abs},
		{"SoftmaxRows", SoftmaxRows},
		{"LogSoftmaxRows", LogSoftmaxRows},
		{"LayerNormRows", func(x *Value) *Value { return LayerNormRows(x, pRow, pBeta, 1e-5) }},
		{"ConcatRows", func(x *Value) *Value { return ConcatRows(x, pSame, x) }},
		{"ConcatCols", func(x *Value) *Value { return ConcatCols(pSame, x) }},
		{"SliceRows", func(x *Value) *Value { return SliceRows(x, 1, 3) }},
		{"SliceCols", func(x *Value) *Value { return SliceCols(x, 2, 5) }},
		{"Gather", func(x *Value) *Value { return Gather(x, []int{3, 0, 3}) }},
		{"Gather(p)", func(x *Value) *Value { return Add(x, Gather(pEmb, []int{6, 1, 1, 4})) }},
		{"SumAll", SumAll},
		{"MeanAll", MeanAll},
		{"CrossEntropyRows", func(x *Value) *Value { return CrossEntropyRows(x, []int{5, 0, 2, 2}) }},
	}

	// run builds the case on ar (nil: the heap), backwards it — into a
	// sink on slot when sinked — and returns copies of the forward
	// result, the loss and every parameter's gradient.
	run := func(op func(*Value) *Value, ar, slot *Arena, sinked bool) []*tensor.Tensor {
		tape := Tape{Arena: ar}
		y := op(Add(px, tape.Const(cx)))
		w := tape.Input(y.Rows(), y.Cols())
		for i := range w.Data {
			w.Data[i] = math.Sin(float64(i + 1))
		}
		loss := SumAll(Mul(y, tape.Const(w)))
		sink := Grads{}
		if sinked {
			loss.BackwardIntoArena(sink, slot)
		} else {
			loss.Backward()
		}
		got := []*tensor.Tensor{y.T.Clone(), loss.T.Clone()}
		for _, p := range params {
			g := p.Grad
			if sinked {
				g = sink[p]
			}
			if g != nil {
				g = g.Clone()
			}
			got = append(got, g)
			p.Grad = nil
		}
		return got
	}
	dirty := func(ars ...*Arena) {
		for _, a := range ars {
			a.pool.Fill(math.NaN())
			a.Reset()
		}
	}

	for _, tc := range cases {
		for _, sinked := range []bool{false, true} {
			want := run(tc.op, nil, nil, sinked)
			scratch, slot := NewArena(), NewArena()
			run(tc.op, scratch, slot, sinked)
			dirty(scratch, slot)
			got := run(tc.op, scratch, slot, sinked)
			for i := range want {
				if !sameBits(want[i], got[i]) {
					t.Errorf("%s sinked=%v: result %d on a reset arena differs from the heap path", tc.name, sinked, i)
				}
			}
			dirty(scratch, slot)
		}
	}
}

// sameBits reports whether a and b are both nil or have the same shape
// and the same bits in every element, signed zeros and NaNs included.
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestArenaResetReclaims: a warm arena serves a second identical graph
// without allocating a tensor, and a Reset leaves no Value behind.
func TestArenaResetReclaims(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	w := Param(tensor.Rand(rng, 6, 3, 1))
	x := tensor.Rand(rng, 4, 6, 1)
	a := NewArena()
	build := func() {
		loss := MeanAll(Tanh(MatMul(Tape{Arena: a}.Const(x), w)))
		loss.BackwardIntoArena(Grads{}, a)
	}
	build()
	a.Reset()
	_, before := tensor.PoolCounters()
	build()
	if _, after := tensor.PoolCounters(); after != before {
		t.Fatalf("a warm arena allocated %d tensors for the same graph", after-before)
	}
	n := a.nvals
	a.Reset()
	for i := 0; i < n; i++ {
		if v := a.vals[i/valueSlab][i%valueSlab]; v.T != nil || v.parents != nil || v.backward != nil {
			t.Fatalf("value %d survived Reset", i)
		}
	}
}
