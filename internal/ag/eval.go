// Inference fast path: a forward-only evaluator.
//
// Training builds an autodiff graph — every op makes a *Value node
// with its parents, its result and its backward rule, and Backward
// topo-sorts the lot. None of that is needed to *serve* a model. Session is the op set (Ops) without the tape: it computes the
// same forward arithmetic directly on raw tensors drawn from a
// tensor.Pool, so a steady-state forward pass performs no node
// construction, no parent tracking, no topo-sort bookkeeping, and
// (once the pool is warm) no heap allocation.
//
// One session type serves every precision tier: Session[T] is written
// once over the element type, Eval is its float64 instantiation (the
// reference tier) and EvalF32 its float32 one (the f32 and int8 tiers,
// DESIGN.md §9).
//
// Equivalence contract: for every op, Eval produces output BITWISE
// identical to the grad-tracked op's forward result (asserted with
// eps = 0 in eval_test.go). This is what lets the serving path swap in
// underneath the experiments without perturbing a single number. At
// float32 there is no gradient twin to equal; the within-tier contract
// is serial == sharded bitwise (inherited from the kernels), and
// agreement with the float64 reference is calibrated by internal/calib.
//
// Lifetime rules: tensors returned by Session ops belong to the
// session's pool and die at the next Reset. A Session is single-
// goroutine; concurrent inference sessions each acquire their own
// (Acquire / Release, or the NoGrad convenience wrapper). The
// Acquire*/Release* naming pair is what mtmlf-vet's poolrelease
// analyzer keys on. DESIGN.md "Session ownership" spells out the full
// serving-layer contract (session = one Session, session lifetime =
// batch lifetime, copy results out before release); internal/serve is
// built on it.
package ag

import (
	"fmt"
	"sync"

	"mtmlf/internal/tensor"
)

// Session is a pooled forward-only evaluator over element type T — the
// substrate analogue of torch.no_grad() + inference tensor reuse. Not
// safe for concurrent use; see Acquire.
type Session[T tensor.Float] struct {
	pool *tensor.Pool[T]
	// views is a freelist of tensor headers for zero-copy row views,
	// recycled on Reset like the pooled buffers.
	views []*tensor.Dense[T]
	vnext int
	// qscratch is the int8 activation scratch LinearInt8 quantizes
	// into; grown on demand, retained across Resets so the steady
	// state allocates nothing.
	qscratch []int8
	// in is where a float32 session draws Input's float64 scratch; a
	// float64 session draws it from pool.
	in *tensor.Pool[float64]
}

var (
	_ Ops[*tensor.Tensor] = (*Eval)(nil)
	_ Ops[*tensor.F32]    = (*EvalF32)(nil)
)

// Eval is the float64 session: the reference serving tier, and the
// evaluator every training-side no-grad path uses.
type Eval = Session[float64]

// EvalF32 is the float32 session of the f32 and int8 serving tiers.
type EvalF32 = Session[float32]

// NewSession creates an evaluator with an empty pool.
func NewSession[T tensor.Float]() *Session[T] {
	return &Session[T]{pool: tensor.NewPool[T]()}
}

// NewEval creates a float64 evaluator with an empty pool.
func NewEval() *Eval { return NewSession[float64]() }

// Reset reclaims every tensor and view handed out by this evaluator.
func (e *Session[T]) Reset() {
	e.pool.Reset()
	if e.in != nil {
		e.in.Reset()
	}
	e.vnext = 0
}

// Get returns a zeroed pooled tensor — scratch for callers that
// write elements selectively (one-hot feature rows and the like).
// The op methods below use the pool's unzeroed variant internally
// when they overwrite every element anyway.
func (e *Session[T]) Get(shape ...int) *tensor.Dense[T] { return e.pool.Get(shape...) }

// Warm sessions are kept per element type: a session's buffers are
// only reusable at the type they were allocated for.
var evalPool, evalF32Pool sync.Pool

// Acquire checks a warm evaluator over T out of the process-wide pool.
// Pair with Release.
func Acquire[T tensor.Float]() *Session[T] {
	if e, ok := sessionPool[T]().Get().(*Session[T]); ok {
		return e
	}
	return NewSession[T]()
}

// Release resets e and returns it to the process-wide pool. Every
// tensor it handed out becomes invalid.
func Release[T tensor.Float](e *Session[T]) {
	e.Reset()
	sessionPool[T]().Put(e)
}

func sessionPool[T tensor.Float]() *sync.Pool {
	if _, f32 := any((*Session[T])(nil)).(*EvalF32); f32 {
		return &evalF32Pool
	}
	return &evalPool
}

// AcquireEval, ReleaseEval, AcquireEvalF32 and ReleaseEvalF32 are
// Acquire and Release at the two element types in use. Non-generic
// callers use the float64 pair; the float32 pair is kept because the
// frozen benchmark (bench/servetrace.go) names it.

// AcquireEval is Acquire at float64.
func AcquireEval() *Eval { return Acquire[float64]() }

// ReleaseEval is Release at float64.
func ReleaseEval(e *Eval) { Release(e) }

// AcquireEvalF32 is Acquire at float32.
func AcquireEvalF32() *EvalF32 { return Acquire[float32]() }

// ReleaseEvalF32 is Release at float32.
func ReleaseEvalF32(e *EvalF32) { Release(e) }

// NoGrad runs f with a pooled evaluator, then reclaims everything the
// evaluator handed out. Results that must survive f must be copied out
// (Clone) before it returns.
func NoGrad(f func(e *Eval)) {
	e := AcquireEval()
	defer ReleaseEval(e)
	f(e)
}

// RowsView returns a zero-copy view of rows [from, to) of t. The view
// shares t's backing array and dies at Reset; callers must treat it as
// read-only. Values are identical to ag.SliceRows's copy.
func (e *Session[T]) RowsView(t *tensor.Dense[T], from, to int) *tensor.Dense[T] {
	m, n := t.Rows(), t.Cols()
	if from < 0 || to > m || from > to {
		panic(fmt.Sprintf("ag: Session.RowsView [%d,%d) of %d rows", from, to, m))
	}
	return e.view(t.Data[from*n:to*n], to-from, n)
}

// RowSeg returns a zero-copy [1, to-from] view of columns [from, to)
// of row i of t (a single row segment is contiguous in row-major
// layout). Same lifetime and read-only rules as RowsView.
func (e *Session[T]) RowSeg(t *tensor.Dense[T], i, from, to int) *tensor.Dense[T] {
	n := t.Cols()
	if i < 0 || i >= t.Rows() || from < 0 || to > n || from > to {
		panic(fmt.Sprintf("ag: Session.RowSeg row %d cols [%d,%d) of %v", i, from, to, t.Shape))
	}
	return e.view(t.Data[i*n+from:i*n+to], 1, to-from)
}

// view hands out a recycled tensor header over data.
func (e *Session[T]) view(data []T, rows, cols int) *tensor.Dense[T] {
	if e.vnext < len(e.views) {
		v := e.views[e.vnext]
		e.vnext++
		v.Data = data
		v.Shape[0], v.Shape[1] = rows, cols
		return v
	}
	v := &tensor.Dense[T]{Data: data, Shape: []int{rows, cols}}
	e.views = append(e.views, v)
	e.vnext++
	return v
}

// ---------------------------------------------------------------------------
// Op set (forward halves of the ag ops, pooled outputs)
// ---------------------------------------------------------------------------

// Add returns a + b.
func (e *Session[T]) Add(a, b *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.AddInto(a, b, out)
	return out
}

// Scale returns s * a (s is rounded to T once, not per element).
func (e *Session[T]) Scale(a *tensor.Dense[T], s float64) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.ScaleInto(a, T(s), out)
	return out
}

// AddBias broadcasts a 1xN bias row across every row of a.
func (e *Session[T]) AddBias(a, bias *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.AddBiasInto(a, bias, out)
	return out
}

// MatMul returns a @ b.
func (e *Session[T]) MatMul(a, b *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.Get(a.Rows(), b.Cols())
	tensor.MatMulInto(a, b, out)
	return out
}

// MatMulTransB returns a @ b^T.
func (e *Session[T]) MatMulTransB(a, b *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Rows(), b.Rows())
	tensor.MatMulTransBInto(a, b, out)
	return out
}

// MatMulBatch returns as[i] @ bs[i] computed in one batch.
func (e *Session[T]) MatMulBatch(as, bs []*tensor.Dense[T]) []*tensor.Dense[T] {
	outs := make([]*tensor.Dense[T], len(as))
	for i := range as {
		outs[i] = e.pool.Get(as[i].Rows(), bs[i].Cols())
	}
	tensor.MatMulBatchInto(as, bs, outs)
	return outs
}

// MatMulTransBBatch returns as[i] @ bs[i]^T computed in one batch.
func (e *Session[T]) MatMulTransBBatch(as, bs []*tensor.Dense[T]) []*tensor.Dense[T] {
	outs := make([]*tensor.Dense[T], len(as))
	for i := range as {
		outs[i] = e.pool.GetUninit(as[i].Rows(), bs[i].Rows())
	}
	tensor.MatMulTransBBatchInto(as, bs, outs)
	return outs
}

// LinearInt8 returns x @ w_dequant + bias for int8-quantized weights:
// dynamic per-row activation quantization, int32 accumulation, and
// dequantization fused into the bias add (see tensor.MatMulInt8Into).
func (e *Session[T]) LinearInt8(x *tensor.Dense[T], w *tensor.Int8Matrix, bias *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(x.Rows(), w.Out)
	need := x.Rows() * x.Cols()
	if cap(e.qscratch) < need {
		e.qscratch = make([]int8, need)
	}
	tensor.MatMulInt8Into(x, w, bias, out, e.qscratch[:need])
	return out
}

// ReLU applies max(0, x) elementwise.
func (e *Session[T]) ReLU(a *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.ReLUInto(a, out)
	return out
}

// GELU applies the tanh-approximation GELU elementwise.
func (e *Session[T]) GELU(a *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.GELUInto(a, out)
	return out
}

// Tanh applies tanh elementwise.
func (e *Session[T]) Tanh(a *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.TanhInto(a, out)
	return out
}

// SoftmaxRows applies softmax to each row.
func (e *Session[T]) SoftmaxRows(a *tensor.Dense[T]) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.SoftmaxRowsInto(a, out)
	return out
}

// LayerNormRows normalizes each row and applies gain/bias.
func (e *Session[T]) LayerNormRows(a, gamma, beta *tensor.Dense[T], eps float64) *tensor.Dense[T] {
	out := e.pool.GetUninit(a.Shape...)
	tensor.LayerNormRowsInto(a, gamma, beta, eps, out)
	return out
}

// ConcatRows stacks matrices with equal column counts vertically.
func (e *Session[T]) ConcatRows(vs ...*tensor.Dense[T]) *tensor.Dense[T] {
	if len(vs) == 0 {
		panic("ag: Session.ConcatRows of nothing")
	}
	n := vs[0].Cols()
	total := 0
	for _, v := range vs {
		if v.Cols() != n {
			panic("ag: Session.ConcatRows column mismatch")
		}
		total += v.Rows()
	}
	out := e.pool.GetUninit(total, n)
	r := 0
	for _, v := range vs {
		copy(out.Data[r*n:], v.Data)
		r += v.Rows()
	}
	return out
}

// ConcatCols stacks matrices with equal row counts horizontally.
func (e *Session[T]) ConcatCols(vs ...*tensor.Dense[T]) *tensor.Dense[T] {
	if len(vs) == 0 {
		panic("ag: Session.ConcatCols of nothing")
	}
	m := vs[0].Rows()
	total := 0
	for _, v := range vs {
		if v.Rows() != m {
			panic("ag: Session.ConcatCols row mismatch")
		}
		total += v.Cols()
	}
	out := e.pool.GetUninit(m, total)
	off := 0
	for _, v := range vs {
		c := v.Cols()
		for i := 0; i < m; i++ {
			copy(out.Row(i)[off:off+c], v.Row(i))
		}
		off += c
	}
	return out
}

// SliceRows is RowsView: ops never write their operands, so a row
// slice need not be copied.
func (e *Session[T]) SliceRows(a *tensor.Dense[T], from, to int) *tensor.Dense[T] {
	return e.RowsView(a, from, to)
}

// SliceCols returns a copy of columns [from, to) of a (copied because
// column slices are not contiguous).
func (e *Session[T]) SliceCols(a *tensor.Dense[T], from, to int) *tensor.Dense[T] {
	m, n := a.Rows(), a.Cols()
	if from < 0 || to > n || from > to {
		panic(fmt.Sprintf("ag: Session.SliceCols [%d,%d) of %d cols", from, to, n))
	}
	out := e.pool.GetUninit(m, to-from)
	for i := 0; i < m; i++ {
		copy(out.Row(i), a.Row(i)[from:to])
	}
	return out
}

// Gather returns the rows of w selected by idx, in order.
func (e *Session[T]) Gather(w *tensor.Dense[T], idx []int) *tensor.Dense[T] {
	n := w.Cols()
	out := e.pool.GetUninit(len(idx), n)
	for i, ix := range idx {
		copy(out.Row(i), w.Row(ix))
	}
	return out
}

// Input returns a zeroed pooled float64 tensor; it dies at Reset.
func (e *Session[T]) Input(rows, cols int) *tensor.Tensor {
	if p, ok := any(e.pool).(*tensor.Pool[float64]); ok {
		return p.Get(rows, cols)
	}
	if e.in == nil {
		e.in = tensor.NewPool[float64]()
	}
	return e.in.Get(rows, cols)
}

// Const returns t itself at float64 and a pooled copy rounded to T
// otherwise.
func (e *Session[T]) Const(t *tensor.Tensor) *tensor.Dense[T] {
	if d, ok := any(t).(*tensor.Dense[T]); ok {
		return d
	}
	out := e.pool.GetUninit(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = T(v)
	}
	return out
}
