// Package ag implements a small reverse-mode automatic-differentiation
// engine over internal/tensor matrices. It is the substrate the MTMLF
// models are built on (the PyTorch substitute; see DESIGN.md).
//
// A computation is built eagerly: each op returns a *Value holding the
// forward result plus a closure that propagates gradients to its
// parents. Calling Backward on a scalar root runs the closures in
// reverse topological order.
//
// Gradient ownership: a backward rule that computes a fresh tensor
// (MatMul's products, Mul, Scale, the nonlinearities, softmaxes,
// LayerNormRows, the concat/slice/gather copies, the reductions) hands
// it over, and the first contribution a node or a sink buffer receives
// becomes that buffer; later contributions are added into it. The
// three rules that pass their own out.Grad straight through — Add
// (both operands), Sub's left operand and AddBias's input — copy it
// first, so no two buffers ever share storage. Adopting g instead of
// adding it to zeros differs only when an element is −0, and a
// gradient is only multiplied and added on its way to a parameter, so
// a signed zero cannot change a nonzero result; DESIGN.md §10 says why
// it cannot change a parameter either.
//
// All matrices are rank-2; vectors are 1xN.
package ag

import (
	"fmt"
	"math"

	"mtmlf/internal/tensor"
)

// Value is a node in the autodiff graph.
type Value struct {
	// T holds the forward result.
	T *tensor.Tensor
	// Grad accumulates dLoss/dT; nil until Backward reaches this node.
	Grad *tensor.Tensor

	op       string
	parents  []*Value
	backward func(*backCtx)
	needGrad bool
}

// Param wraps a tensor as a trainable parameter (gradients flow into it).
func Param(t *tensor.Tensor) *Value {
	return &Value{T: t, op: "param", needGrad: true}
}

// Const wraps a tensor as a constant input (no gradient is stored).
func Const(t *tensor.Tensor) *Value {
	return &Value{T: t, op: "const"}
}

// Rows and Cols expose the underlying matrix shape.
func (v *Value) Rows() int { return v.T.Rows() }
func (v *Value) Cols() int { return v.T.Cols() }

func newNode(op string, t *tensor.Tensor, parents ...*Value) *Value {
	n := &Value{T: t, op: op, parents: parents}
	for _, p := range parents {
		if p.needGrad {
			n.needGrad = true
			break
		}
	}
	return n
}

// backCtx threads the gradient destination through one backward pass.
// With a nil sink every gradient lands on the node's own Grad field
// (the classic behavior). With a sink, gradients for LEAF parameters
// are accumulated into the sink instead, leaving the shared Param
// nodes untouched — the plumbing that lets data-parallel workers run
// backward passes over shared parameters concurrently, each into a
// private buffer. Interior nodes always use their own Grad field:
// they belong to exactly one graph, so they are private to the worker
// that built them.
//
// Nodes that do not require gradients are skipped, which prunes
// constant subgraphs from the backward pass.
type backCtx struct {
	sink Grads
}

// accum routes gradient g for node n according to the context. g must
// be a fresh tensor the caller gives up: if it is n's first gradient,
// it becomes n's buffer (adopted, not copied).
func (c *backCtx) accum(n *Value, g *tensor.Tensor) { c.route(n, g, true) }

// pass is accum for a gradient the caller keeps — its own out.Grad,
// passed straight through: a first contribution is copied.
func (c *backCtx) pass(n *Value, g *tensor.Tensor) { c.route(n, g, false) }

func (c *backCtx) route(n *Value, g *tensor.Tensor, owned bool) {
	if !n.needGrad {
		return
	}
	if c.sink != nil && n.backward == nil {
		c.sink[n] = addGrad(c.sink[n], g, owned)
		return
	}
	n.Grad = addGrad(n.Grad, g, owned)
}

// addGrad returns buf with g added, or — for a first contribution —
// g itself when owned and a copy of g otherwise.
func addGrad(buf, g *tensor.Tensor, owned bool) *tensor.Tensor {
	switch {
	case buf != nil:
		buf.AddInPlace(g)
		return buf
	case owned:
		return g
	default:
		return g.Clone()
	}
}

// Grads is a per-worker gradient buffer: parameter node → accumulated
// gradient. Buffers from concurrent backward passes are combined with
// ReduceGrads.
type Grads map[*Value]*tensor.Tensor

// Backward computes gradients of v (which must be a 1x1 scalar) with
// respect to every upstream Param, accumulating them on the Params'
// Grad fields.
func (v *Value) Backward() {
	v.backwardCtx(&backCtx{})
}

// BackwardInto runs the backward pass with every leaf-parameter
// gradient accumulated into sink instead of the parameters' shared
// Grad fields. Concurrent BackwardInto calls over graphs that share
// parameters are race-free as long as each call gets its own sink;
// combine the sinks afterwards with ReduceGrads.
func (v *Value) BackwardInto(sink Grads) {
	if sink == nil {
		panic("ag: BackwardInto needs a non-nil sink")
	}
	v.backwardCtx(&backCtx{sink: sink})
}

func (v *Value) backwardCtx(ctx *backCtx) {
	if v.T.Size() != 1 {
		panic(fmt.Sprintf("ag: Backward on non-scalar shape %v", v.T.Shape))
	}
	order := topoSort(v)
	v.Grad = tensor.Full(1, v.T.Shape...)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil && n.Grad != nil {
			n.backward(ctx)
		}
	}
}

// ReduceGrads combines per-worker (or per-example) gradient buffers
// into the parameters' Grad fields: for each parameter, the buffers
// are summed in slot order and scaled by scale. The reduction order
// depends only on the slot order — never on which goroutine produced
// which slot — so a minibatch gradient is bitwise reproducible for any
// worker count. Parameters no slot touched keep a nil Grad.
func ReduceGrads(params []*Value, slots []Grads, scale float64) {
	for _, p := range params {
		var acc *tensor.Tensor
		for _, s := range slots {
			g := s[p]
			if g == nil {
				continue
			}
			if acc == nil {
				acc = tensor.New(p.T.Shape...)
			}
			acc.AddInPlace(g)
		}
		if acc == nil {
			continue
		}
		if scale != 1 {
			acc.ScaleInPlace(scale)
		}
		if p.Grad == nil {
			p.Grad = acc
		} else {
			p.Grad.AddInPlace(acc)
		}
	}
}

func topoSort(root *Value) []*Value {
	var order []*Value
	seen := map[*Value]bool{}
	var visit func(*Value)
	visit = func(n *Value) {
		if seen[n] || !n.needGrad {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(root)
	return order
}

// ---------------------------------------------------------------------------
// Elementwise and linear-algebra ops
// ---------------------------------------------------------------------------

// Add returns a + b (same shape).
func Add(a, b *Value) *Value {
	out := newNode("add", tensor.Add(a.T, b.T), a, b)
	out.backward = func(ctx *backCtx) {
		ctx.pass(a, out.Grad)
		ctx.pass(b, out.Grad)
	}
	return out
}

// Sub returns a - b (same shape).
func Sub(a, b *Value) *Value {
	out := newNode("sub", tensor.Sub(a.T, b.T), a, b)
	out.backward = func(ctx *backCtx) {
		ctx.pass(a, out.Grad)
		if b.needGrad {
			ctx.accum(b, tensor.Scale(out.Grad, -1))
		}
	}
	return out
}

// Mul returns the elementwise product a ⊙ b.
func Mul(a, b *Value) *Value {
	out := newNode("mul", tensor.Mul(a.T, b.T), a, b)
	out.backward = func(ctx *backCtx) {
		if a.needGrad {
			ctx.accum(a, tensor.Mul(out.Grad, b.T))
		}
		if b.needGrad {
			ctx.accum(b, tensor.Mul(out.Grad, a.T))
		}
	}
	return out
}

// Scale returns s * a for scalar constant s.
func Scale(a *Value, s float64) *Value {
	out := newNode("scale", tensor.Scale(a.T, s), a)
	out.backward = func(ctx *backCtx) {
		ctx.accum(a, tensor.Scale(out.Grad, s))
	}
	return out
}

// AddBias broadcasts a 1xN bias row across every row of a [M,N] matrix.
func AddBias(a, bias *Value) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	if bias.T.Rows() != 1 || bias.T.Cols() != n {
		panic(fmt.Sprintf("ag: AddBias shape %v + %v", a.T.Shape, bias.T.Shape))
	}
	t := tensor.New(m, n)
	for i := 0; i < m; i++ {
		row := a.T.Row(i)
		orow := t.Row(i)
		for j := range row {
			orow[j] = row[j] + bias.T.Data[j]
		}
	}
	out := newNode("addbias", t, a, bias)
	out.backward = func(ctx *backCtx) {
		ctx.pass(a, out.Grad)
		if bias.needGrad {
			ctx.accum(bias, tensor.SumRows(out.Grad))
		}
	}
	return out
}

// MatMul returns a @ b.
func MatMul(a, b *Value) *Value {
	out := newNode("matmul", tensor.MatMul(a.T, b.T), a, b)
	out.backward = func(ctx *backCtx) {
		if a.needGrad {
			ctx.accum(a, tensor.MatMulTransB(out.Grad, b.T))
		}
		if b.needGrad {
			ctx.accum(b, tensor.MatMulTransA(a.T, out.Grad))
		}
	}
	return out
}

// MatMulTransB returns a @ b^T without materializing the transpose.
func MatMulTransB(a, b *Value) *Value {
	out := newNode("matmulTB", tensor.MatMulTransB(a.T, b.T), a, b)
	out.backward = func(ctx *backCtx) {
		if a.needGrad {
			ctx.accum(a, tensor.MatMul(out.Grad, b.T))
		}
		if b.needGrad {
			ctx.accum(b, tensor.MatMulTransA(out.Grad, a.T))
		}
	}
	return out
}

// Transpose returns a^T.
func Transpose(a *Value) *Value {
	out := newNode("transpose", tensor.Transpose(a.T), a)
	out.backward = func(ctx *backCtx) {
		ctx.accum(a, tensor.Transpose(out.Grad))
	}
	return out
}

// ---------------------------------------------------------------------------
// Nonlinearities
// ---------------------------------------------------------------------------

func unary(op string, a *Value, f func(float64) float64, df func(x, y float64) float64) *Value {
	t := tensor.New(a.T.Shape...)
	for i, x := range a.T.Data {
		t.Data[i] = f(x)
	}
	out := newNode(op, t, a)
	out.backward = func(ctx *backCtx) {
		if !a.needGrad {
			return
		}
		g := tensor.New(a.T.Shape...)
		for i := range g.Data {
			g.Data[i] = out.Grad.Data[i] * df(a.T.Data[i], t.Data[i])
		}
		ctx.accum(a, g)
	}
	return out
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Value) *Value {
	return unary("relu", a,
		func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// GELU applies the tanh-approximation Gaussian error linear unit.
func GELU(a *Value) *Value {
	const c = 0.7978845608028654 // sqrt(2/pi)
	f := func(x float64) float64 {
		return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
	}
	df := func(x, _ float64) float64 {
		inner := c * (x + 0.044715*x*x*x)
		th := math.Tanh(inner)
		sech2 := 1 - th*th
		return 0.5*(1+th) + 0.5*x*sech2*c*(1+3*0.044715*x*x)
	}
	return unary("gelu", a, f, df)
}

// Tanh applies tanh elementwise.
func Tanh(a *Value) *Value {
	return unary("tanh", a, math.Tanh, func(_, y float64) float64 { return 1 - y*y })
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Value) *Value {
	return unary("sigmoid", a,
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(_, y float64) float64 { return y * (1 - y) })
}

// Exp applies e^x elementwise.
func Exp(a *Value) *Value {
	return unary("exp", a, math.Exp, func(_, y float64) float64 { return y })
}

// Log applies the natural logarithm elementwise (inputs must be > 0).
func Log(a *Value) *Value {
	return unary("log", a, math.Log, func(x, _ float64) float64 { return 1 / x })
}

// Abs applies |x| elementwise (subgradient 0 at x=0).
func Abs(a *Value) *Value {
	return unary("abs", a, math.Abs, func(x, _ float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		default:
			return 0
		}
	})
}

// ---------------------------------------------------------------------------
// Softmax / normalization
// ---------------------------------------------------------------------------

// SoftmaxRows applies softmax to each row.
func SoftmaxRows(a *Value) *Value {
	y := tensor.SoftmaxRows(a.T)
	out := newNode("softmax", y, a)
	out.backward = func(ctx *backCtx) {
		if !a.needGrad {
			return
		}
		m, n := y.Rows(), y.Cols()
		g := tensor.New(m, n)
		for i := 0; i < m; i++ {
			yr := y.Row(i)
			gr := out.Grad.Row(i)
			var dot float64
			for j := 0; j < n; j++ {
				dot += yr[j] * gr[j]
			}
			orow := g.Row(i)
			for j := 0; j < n; j++ {
				orow[j] = yr[j] * (gr[j] - dot)
			}
		}
		ctx.accum(a, g)
	}
	return out
}

// LogSoftmaxRows applies log-softmax to each row (numerically stable).
func LogSoftmaxRows(a *Value) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	y := tensor.New(m, n)
	for i := 0; i < m; i++ {
		row := a.T.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var z float64
		for _, v := range row {
			z += math.Exp(v - mx)
		}
		lz := math.Log(z) + mx
		orow := y.Row(i)
		for j, v := range row {
			orow[j] = v - lz
		}
	}
	out := newNode("logsoftmax", y, a)
	out.backward = func(ctx *backCtx) {
		if !a.needGrad {
			return
		}
		g := tensor.New(m, n)
		for i := 0; i < m; i++ {
			gr := out.Grad.Row(i)
			yr := y.Row(i)
			var sum float64
			for _, v := range gr {
				sum += v
			}
			orow := g.Row(i)
			for j := 0; j < n; j++ {
				orow[j] = gr[j] - math.Exp(yr[j])*sum
			}
		}
		ctx.accum(a, g)
	}
	return out
}

// LayerNormRows normalizes each row to zero mean / unit variance and
// applies a learned 1xN gain and bias.
func LayerNormRows(a, gamma, beta *Value, eps float64) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	if gamma.T.Cols() != n || beta.T.Cols() != n {
		panic("ag: LayerNormRows gain/bias width mismatch")
	}
	y := tensor.New(m, n)
	xhat := tensor.New(m, n)
	invstd := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.T.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(n)
		var va float64
		for _, v := range row {
			d := v - mean
			va += d * d
		}
		va /= float64(n)
		is := 1 / math.Sqrt(va+eps)
		invstd[i] = is
		xr := xhat.Row(i)
		yr := y.Row(i)
		for j, v := range row {
			xr[j] = (v - mean) * is
			yr[j] = xr[j]*gamma.T.Data[j] + beta.T.Data[j]
		}
	}
	out := newNode("layernorm", y, a, gamma, beta)
	out.backward = func(ctx *backCtx) {
		if gamma.needGrad {
			gg := tensor.New(1, n)
			for i := 0; i < m; i++ {
				gr := out.Grad.Row(i)
				xr := xhat.Row(i)
				for j := 0; j < n; j++ {
					gg.Data[j] += gr[j] * xr[j]
				}
			}
			ctx.accum(gamma, gg)
		}
		if beta.needGrad {
			ctx.accum(beta, tensor.SumRows(out.Grad))
		}
		if a.needGrad {
			g := tensor.New(m, n)
			for i := 0; i < m; i++ {
				gr := out.Grad.Row(i)
				xr := xhat.Row(i)
				// dxhat_j = grad_j * gamma_j, held in the gradient row
				// until the row's sums are known, then overwritten by dx_j.
				var sumDx, sumDxX float64
				dx := g.Row(i)
				for j := range dx {
					dx[j] = gr[j] * gamma.T.Data[j]
					sumDx += dx[j]
					sumDxX += dx[j] * xr[j]
				}
				fn := float64(n)
				for j := range dx {
					dx[j] = invstd[i] / fn * (fn*dx[j] - sumDx - xr[j]*sumDxX)
				}
			}
			ctx.accum(a, g)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

// ConcatRows stacks matrices with equal column counts vertically.
func ConcatRows(vs ...*Value) *Value {
	if len(vs) == 0 {
		panic("ag: ConcatRows of nothing")
	}
	n := vs[0].T.Cols()
	total := 0
	for _, v := range vs {
		if v.T.Cols() != n {
			panic("ag: ConcatRows column mismatch")
		}
		total += v.T.Rows()
	}
	t := tensor.New(total, n)
	r := 0
	for _, v := range vs {
		copy(t.Data[r*n:], v.T.Data)
		r += v.T.Rows()
	}
	out := newNode("concatrows", t, vs...)
	out.backward = func(ctx *backCtx) {
		r := 0
		for _, v := range vs {
			h := v.T.Rows()
			if v.needGrad {
				g := tensor.New(h, n)
				copy(g.Data, out.Grad.Data[r*n:(r+h)*n])
				ctx.accum(v, g)
			}
			r += h
		}
	}
	return out
}

// ConcatCols stacks matrices with equal row counts horizontally.
func ConcatCols(vs ...*Value) *Value {
	if len(vs) == 0 {
		panic("ag: ConcatCols of nothing")
	}
	m := vs[0].T.Rows()
	total := 0
	for _, v := range vs {
		if v.T.Rows() != m {
			panic("ag: ConcatCols row mismatch")
		}
		total += v.T.Cols()
	}
	t := tensor.New(m, total)
	off := 0
	for _, v := range vs {
		c := v.T.Cols()
		for i := 0; i < m; i++ {
			copy(t.Row(i)[off:off+c], v.T.Row(i))
		}
		off += c
	}
	out := newNode("concatcols", t, vs...)
	out.backward = func(ctx *backCtx) {
		off := 0
		for _, v := range vs {
			c := v.T.Cols()
			if v.needGrad {
				g := tensor.New(m, c)
				for i := 0; i < m; i++ {
					copy(g.Row(i), out.Grad.Row(i)[off:off+c])
				}
				ctx.accum(v, g)
			}
			off += c
		}
	}
	return out
}

// SliceRows returns rows [from, to) of a.
func SliceRows(a *Value, from, to int) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	if from < 0 || to > m || from > to {
		panic(fmt.Sprintf("ag: SliceRows [%d,%d) of %d rows", from, to, m))
	}
	t := tensor.New(to-from, n)
	copy(t.Data, a.T.Data[from*n:to*n])
	out := newNode("slicerows", t, a)
	out.backward = func(ctx *backCtx) {
		if !a.needGrad {
			return
		}
		g := tensor.New(m, n)
		copy(g.Data[from*n:to*n], out.Grad.Data)
		ctx.accum(a, g)
	}
	return out
}

// SliceCols returns columns [from, to) of a.
func SliceCols(a *Value, from, to int) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	if from < 0 || to > n || from > to {
		panic(fmt.Sprintf("ag: SliceCols [%d,%d) of %d cols", from, to, n))
	}
	w := to - from
	t := tensor.New(m, w)
	for i := 0; i < m; i++ {
		copy(t.Row(i), a.T.Row(i)[from:to])
	}
	out := newNode("slicecols", t, a)
	out.backward = func(ctx *backCtx) {
		if !a.needGrad {
			return
		}
		g := tensor.New(m, n)
		for i := 0; i < m; i++ {
			copy(g.Row(i)[from:to], out.Grad.Row(i))
		}
		ctx.accum(a, g)
	}
	return out
}

// Gather returns the rows of the weight matrix w selected by idx, in
// order. It is the embedding-lookup primitive: backward scatter-adds.
func Gather(w *Value, idx []int) *Value {
	n := w.T.Cols()
	t := tensor.New(len(idx), n)
	for i, ix := range idx {
		copy(t.Row(i), w.T.Row(ix))
	}
	ids := append([]int(nil), idx...)
	out := newNode("gather", t, w)
	out.backward = func(ctx *backCtx) {
		if !w.needGrad {
			return
		}
		g := tensor.New(w.T.Rows(), n)
		for i, ix := range ids {
			grow := g.Row(ix)
			orow := out.Grad.Row(i)
			for j := range grow {
				grow[j] += orow[j]
			}
		}
		ctx.accum(w, g)
	}
	return out
}

// MeanRows returns the 1xN mean of the rows of a.
func MeanRows(a *Value) *Value {
	m := a.T.Rows()
	s := tensor.SumRows(a.T)
	s.ScaleInPlace(1 / float64(m))
	out := newNode("meanrows", s, a)
	out.backward = func(ctx *backCtx) {
		if !a.needGrad {
			return
		}
		g := tensor.New(a.T.Shape...)
		inv := 1 / float64(m)
		n := a.T.Cols()
		for i := 0; i < m; i++ {
			row := g.Row(i)
			for j := 0; j < n; j++ {
				row[j] = out.Grad.Data[j] * inv
			}
		}
		ctx.accum(a, g)
	}
	return out
}

// ---------------------------------------------------------------------------
// Reductions and losses
// ---------------------------------------------------------------------------

// SumAll reduces a to a 1x1 scalar.
func SumAll(a *Value) *Value {
	t := tensor.FromSlice([]float64{tensor.SumAll(a.T)}, 1, 1)
	out := newNode("sumall", t, a)
	out.backward = func(ctx *backCtx) {
		if !a.needGrad {
			return
		}
		ctx.accum(a, tensor.Full(out.Grad.Data[0], a.T.Shape...))
	}
	return out
}

// MeanAll reduces a to its scalar mean.
func MeanAll(a *Value) *Value {
	return Scale(SumAll(a), 1/float64(a.T.Size()))
}

// Scalar wraps a float as a 1x1 constant.
func Scalar(v float64) *Value {
	return Const(tensor.FromSlice([]float64{v}, 1, 1))
}

// Item returns the single element of a 1x1 node.
func (v *Value) Item() float64 {
	if v.T.Size() != 1 {
		panic(fmt.Sprintf("ag: Item on shape %v", v.T.Shape))
	}
	return v.T.Data[0]
}

// CrossEntropyRows computes the mean negative log-likelihood of target
// class indices under row-wise softmax of logits.
func CrossEntropyRows(logits *Value, targets []int) *Value {
	m := logits.T.Rows()
	if len(targets) != m {
		panic("ag: CrossEntropyRows target count mismatch")
	}
	ls := LogSoftmaxRows(logits)
	// Pick out -logp[target] per row via a constant selection matrix.
	n := logits.T.Cols()
	sel := tensor.New(m, n)
	for i, t := range targets {
		if t < 0 || t >= n {
			panic(fmt.Sprintf("ag: CrossEntropyRows target %d out of %d classes", t, n))
		}
		sel.Set(i, t, -1/float64(m))
	}
	return SumAll(Mul(ls, Const(sel)))
}

// MSE computes mean squared error between a and b (same shape).
func MSE(a, b *Value) *Value {
	d := Sub(a, b)
	return MeanAll(Mul(d, d))
}

// ---------------------------------------------------------------------------
// Numerical gradient checking (used by tests)
// ---------------------------------------------------------------------------

// GradCheck numerically verifies the gradient of loss() with respect to
// each listed parameter, returning the maximum relative error observed.
// loss must rebuild the graph from the parameter tensors on every call.
func GradCheck(params []*Value, loss func() *Value, eps float64) float64 {
	// Analytic pass.
	l := loss()
	l.Backward()
	grads := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		if p.Grad == nil {
			grads[i] = tensor.New(p.T.Shape...)
		} else {
			grads[i] = p.Grad.Clone()
		}
		p.Grad = nil
	}
	var maxRel float64
	for i, p := range params {
		for j := range p.T.Data {
			orig := p.T.Data[j]
			p.T.Data[j] = orig + eps
			lp := loss().Item()
			p.T.Data[j] = orig - eps
			lm := loss().Item()
			p.T.Data[j] = orig
			num := (lp - lm) / (2 * eps)
			ana := grads[i].Data[j]
			denom := math.Max(1, math.Abs(num)+math.Abs(ana))
			rel := math.Abs(num-ana) / denom
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel
}
