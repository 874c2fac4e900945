package ag

import "mtmlf/internal/tensor"

// Ops is the op set every layer's forward is written over, once: the
// nn layers, Enc_i and the model's representation take an Ops[V] and
// call nothing else. Two types implement it:
//
//   - Tape, over *Value: each op is the free function of the same name,
//     so a forward run on a Tape records the graph Backward walks — the
//     trained model.
//   - *Session[T], over *tensor.Dense[T]: the same kernels on pooled
//     tensors and nothing recorded — a serving replica.
//
// At float64 the two produce bitwise identical forward results, op for
// op (eval_test.go), so a layer written once over Ops serves at f64
// with exactly the numbers it trains with.
type Ops[V any] interface {
	Add(a, b V) V
	Scale(a V, s float64) V
	AddBias(a, bias V) V
	MatMul(a, b V) V
	MatMulBatch(as, bs []V) []V
	MatMulTransBBatch(as, bs []V) []V
	// LinearInt8 is x @ w + bias for int8-quantized weights; only a
	// float32 session holds such weights.
	LinearInt8(x V, w *tensor.Int8Matrix, bias V) V
	ReLU(a V) V
	GELU(a V) V
	Tanh(a V) V
	SoftmaxRows(a V) V
	LayerNormRows(a, gamma, beta V, eps float64) V
	ConcatRows(vs ...V) V
	ConcatCols(vs ...V) V
	// SliceRows returns rows [from, to) of a: a copy on the tape, a
	// read-only view in a session.
	SliceRows(a V, from, to int) V
	SliceCols(a V, from, to int) V
	Gather(w V, idx []int) V
	// Input returns a zeroed float64 [rows, cols] tensor for a constant
	// input — raw features, a mask — that the caller fills and hands
	// to Const.
	Input(rows, cols int) *tensor.Tensor
	// Const returns t as a constant operand: no gradient flows into
	// it, and a float32 session rounds it to float32 once.
	Const(t *tensor.Tensor) V
}

// Tape is the recording op set: every method is the free op of the
// same name. It has no state — the graph lives in the Values — so the
// zero Tape is the only one.
type Tape struct{}

var _ Ops[*Value] = Tape{}

func (Tape) Add(a, b *Value) *Value                     { return Add(a, b) }
func (Tape) Scale(a *Value, s float64) *Value           { return Scale(a, s) }
func (Tape) AddBias(a, bias *Value) *Value              { return AddBias(a, bias) }
func (Tape) MatMul(a, b *Value) *Value                  { return MatMul(a, b) }
func (Tape) MatMulBatch(as, bs []*Value) []*Value       { return MatMulBatch(as, bs) }
func (Tape) MatMulTransBBatch(as, bs []*Value) []*Value { return MatMulTransBBatch(as, bs) }
func (Tape) ReLU(a *Value) *Value                       { return ReLU(a) }
func (Tape) GELU(a *Value) *Value                       { return GELU(a) }
func (Tape) Tanh(a *Value) *Value                       { return Tanh(a) }
func (Tape) SoftmaxRows(a *Value) *Value                { return SoftmaxRows(a) }
func (Tape) ConcatRows(vs ...*Value) *Value             { return ConcatRows(vs...) }
func (Tape) ConcatCols(vs ...*Value) *Value             { return ConcatCols(vs...) }
func (Tape) SliceRows(a *Value, from, to int) *Value    { return SliceRows(a, from, to) }
func (Tape) SliceCols(a *Value, from, to int) *Value    { return SliceCols(a, from, to) }
func (Tape) Gather(w *Value, idx []int) *Value          { return Gather(w, idx) }
func (Tape) Input(rows, cols int) *tensor.Tensor        { return tensor.New(rows, cols) }
func (Tape) Const(t *tensor.Tensor) *Value              { return Const(t) }

func (Tape) LayerNormRows(a, gamma, beta *Value, eps float64) *Value {
	return LayerNormRows(a, gamma, beta, eps)
}

// LinearInt8 panics: quantized weights exist only in a lowered replica,
// never on a trained layer.
func (Tape) LinearInt8(*Value, *tensor.Int8Matrix, *Value) *Value {
	panic("ag: int8 weights on the tape")
}
