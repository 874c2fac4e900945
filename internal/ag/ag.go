// Package ag implements a small reverse-mode automatic-differentiation
// engine over internal/tensor matrices. It is the substrate the MTMLF
// models are built on (the PyTorch substitute; see DESIGN.md).
//
// A computation is built eagerly: each op returns a *Value holding the
// forward result, its parents and the rule that propagates gradients
// to them. Calling Backward on a scalar root runs the rules in reverse
// topological order.
//
// Memory: a node takes its Value, its result and the gradients its
// rule computes from the Arena of its first parent that has one (a
// Tape's Input and Const start a graph on the tape's arena), and from
// the heap when none has. The forward results are the Into kernels'
// (the same calls a serving Session makes), so where the memory comes
// from never changes a bit. DESIGN.md §3 "Tape ownership (training)"
// gives the lifetimes.
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
// Every product a sum adds is rounded explicitly, float64(a*b): the
// conversion keeps a port from fusing it into one FMA, so the
// gradients are the same bits on every CPU.
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

	// op names the operation, for whoever inspects a graph.
	op       string
	parents  []*Value
	backward func(c *backCtx, out *Value)
	needGrad bool
	// seen marks an interior node topoSort has ordered.
	seen bool
	// ar is the arena the node's memory came from; nil is the heap.
	ar *Arena

	// What the backward rule reads besides the parents and the result.
	ps     [3]*Value                  // backing array of parents, up to three
	aux    [2]*tensor.Tensor          // LayerNormRows's x̂ and 1/σ
	s      float64                    // Scale's factor
	lo, hi int                        // SliceRows' and SliceCols' bounds
	idx    []int                      // Gather's rows
	df     func(x, y float64) float64 // a unary op's derivative
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

// Bytes returns the bytes of the forward result.
func (v *Value) Bytes() int { return v.T.Bytes() }

// newNode returns an op node over at most three parents.
func newNode(op string, ps ...*Value) *Value {
	n := arenaOf(ps).value()
	n.op = op
	n.parents = n.ps[:copy(n.ps[:], ps)]
	n.setNeedGrad()
	return n
}

// newNodeN is newNode over any number of parents; vs becomes the
// node's parent list.
func newNodeN(op string, vs []*Value) *Value {
	n := arenaOf(vs).value()
	n.op = op
	n.parents = vs
	n.setNeedGrad()
	return n
}

// arenaOf returns the arena of the first of vs that has one.
func arenaOf(vs []*Value) *Arena {
	for _, v := range vs {
		if v.ar != nil {
			return v.ar
		}
	}
	return nil
}

func (n *Value) setNeedGrad() {
	for _, p := range n.parents {
		if p.needGrad {
			n.needGrad = true
			return
		}
	}
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
// A sink outlives the graph, so the first gradient a sink entry
// receives comes from slot, the arena the caller resets only after it
// has read the sink. Every other gradient comes from the arena of the
// node whose rule computes it.
//
// Nodes that do not require gradients are skipped, which prunes
// constant subgraphs from the backward pass.
type backCtx struct {
	sink Grads
	slot *Arena
}

// arena returns where out's rule takes a gradient for its parent n.
func (c *backCtx) arena(out, n *Value) *Arena {
	if c.sink != nil && n.backward == nil && c.sink[n] == nil {
		return c.slot
	}
	return out.ar
}

// accum routes gradient g for node n according to the context. g must
// be a fresh tensor from c.arena the caller gives up: if it is n's
// first gradient, it becomes n's buffer (adopted, not copied).
func (c *backCtx) accum(n *Value, g *tensor.Tensor) {
	if !n.needGrad {
		return
	}
	if c.sink != nil && n.backward == nil {
		if buf := c.sink[n]; buf != nil {
			buf.AddInPlace(g)
		} else {
			c.sink[n] = g
		}
		return
	}
	if n.Grad != nil {
		n.Grad.AddInPlace(g)
	} else {
		n.Grad = g
	}
}

// pass is accum for out's own gradient, passed straight through to
// its parent n: a first contribution is copied.
func (c *backCtx) pass(out, n *Value) {
	if !n.needGrad {
		return
	}
	g := out.Grad
	if c.sink != nil && n.backward == nil {
		if buf := c.sink[n]; buf != nil {
			buf.AddInPlace(g)
		} else {
			c.sink[n] = c.slot.clone(g)
		}
		return
	}
	if n.Grad != nil {
		n.Grad.AddInPlace(g)
	} else {
		n.Grad = out.ar.clone(g)
	}
}

// Grads is a per-worker gradient buffer: parameter node → accumulated
// gradient. Buffers from concurrent backward passes are combined with
// ReduceGrads.
type Grads map[*Value]*tensor.Tensor

// Backward computes gradients of v (which must be a 1x1 scalar) with
// respect to every upstream Param, accumulating them on the Params'
// Grad fields. On an arena graph those gradients are the arena's: they
// are valid until its next Reset.
func (v *Value) Backward() {
	v.backwardCtx(&backCtx{})
}

// BackwardInto runs the backward pass with every leaf-parameter
// gradient accumulated into sink instead of the parameters' shared
// Grad fields. Concurrent BackwardInto calls over graphs that share
// parameters are race-free as long as each call gets its own sink;
// combine the sinks afterwards with ReduceGrads. The sink's buffers
// are heap tensors.
func (v *Value) BackwardInto(sink Grads) {
	v.BackwardIntoArena(sink, nil)
}

// BackwardIntoArena is BackwardInto with the sink's buffers taken from
// slot (the heap when nil): they stay valid until slot's next Reset,
// however soon the graph's own arena is reset.
func (v *Value) BackwardIntoArena(sink Grads, slot *Arena) {
	if sink == nil {
		panic("ag: BackwardInto needs a non-nil sink")
	}
	v.backwardCtx(&backCtx{sink: sink, slot: slot})
}

func (v *Value) backwardCtx(c *backCtx) {
	if v.T.Size() != 1 {
		panic(fmt.Sprintf("ag: Backward on non-scalar shape %v", v.T.Shape))
	}
	order := topoSort(v.ar.orderBuf(), v)
	v.Grad = v.ar.uninit(v.T.Shape...)
	v.Grad.Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.Grad != nil {
			n.backward(c, n)
		}
		n.seen = false
	}
	v.ar.keepOrder(order)
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

// topoSort appends the interior nodes root depends on that need a
// gradient to order, parents first, marking each seen. Leaves are left
// out: they have no rule to run.
func topoSort(order []*Value, n *Value) []*Value {
	if n.seen || !n.needGrad || n.backward == nil {
		return order
	}
	n.seen = true
	for _, p := range n.parents {
		order = topoSort(order, p)
	}
	return append(order, n)
}

// ---------------------------------------------------------------------------
// Elementwise and linear-algebra ops
// ---------------------------------------------------------------------------

// Add returns a + b (same shape).
func Add(a, b *Value) *Value {
	out := newNode("add", a, b)
	out.T = out.ar.uninit(a.T.Shape...)
	tensor.AddInto(a.T, b.T, out.T)
	out.backward = addBack
	return out
}

func addBack(c *backCtx, out *Value) {
	c.pass(out, out.ps[0])
	c.pass(out, out.ps[1])
}

// Sub returns a - b (same shape).
func Sub(a, b *Value) *Value {
	out := newNode("sub", a, b)
	out.T = out.ar.uninit(a.T.Shape...)
	tensor.SubInto(a.T, b.T, out.T)
	out.backward = subBack
	return out
}

func subBack(c *backCtx, out *Value) {
	a, b := out.ps[0], out.ps[1]
	c.pass(out, a)
	if b.needGrad {
		g := c.arena(out, b).uninit(b.T.Shape...)
		tensor.ScaleInto(out.Grad, -1, g)
		c.accum(b, g)
	}
}

// Mul returns the elementwise product a ⊙ b.
func Mul(a, b *Value) *Value {
	out := newNode("mul", a, b)
	out.T = out.ar.uninit(a.T.Shape...)
	tensor.MulInto(a.T, b.T, out.T)
	out.backward = mulBack
	return out
}

func mulBack(c *backCtx, out *Value) {
	a, b := out.ps[0], out.ps[1]
	if a.needGrad {
		g := c.arena(out, a).uninit(a.T.Shape...)
		tensor.MulInto(out.Grad, b.T, g)
		c.accum(a, g)
	}
	if b.needGrad {
		g := c.arena(out, b).uninit(b.T.Shape...)
		tensor.MulInto(out.Grad, a.T, g)
		c.accum(b, g)
	}
}

// Scale returns s * a for scalar constant s.
func Scale(a *Value, s float64) *Value {
	out := newNode("scale", a)
	out.T = out.ar.uninit(a.T.Shape...)
	tensor.ScaleInto(a.T, s, out.T)
	out.s = s
	out.backward = scaleBack
	return out
}

func scaleBack(c *backCtx, out *Value) {
	a := out.ps[0]
	g := c.arena(out, a).uninit(a.T.Shape...)
	tensor.ScaleInto(out.Grad, out.s, g)
	c.accum(a, g)
}

// AddBias broadcasts a 1xN bias row across every row of a [M,N] matrix.
func AddBias(a, bias *Value) *Value {
	if bias.T.Rows() != 1 || bias.T.Cols() != a.T.Cols() {
		panic(fmt.Sprintf("ag: AddBias shape %v + %v", a.T.Shape, bias.T.Shape))
	}
	out := newNode("addbias", a, bias)
	out.T = out.ar.uninit(a.T.Shape...)
	tensor.AddBiasInto(a.T, bias.T, out.T)
	out.backward = addBiasBack
	return out
}

func addBiasBack(c *backCtx, out *Value) {
	a, bias := out.ps[0], out.ps[1]
	c.pass(out, a)
	if bias.needGrad {
		g := c.arena(out, bias).zeros(bias.T.Shape...)
		tensor.SumRowsInto(out.Grad, g)
		c.accum(bias, g)
	}
}

// MatMul returns a @ b.
func MatMul(a, b *Value) *Value {
	out := newNode("matmul", a, b)
	out.T = out.ar.zeros(a.T.Rows(), b.T.Cols())
	tensor.MatMulInto(a.T, b.T, out.T)
	out.backward = matMulBack
	return out
}

func matMulBack(c *backCtx, out *Value) {
	a, b := out.ps[0], out.ps[1]
	if a.needGrad {
		g := c.arena(out, a).uninit(a.T.Shape...)
		tensor.MatMulTransBInto(out.Grad, b.T, g)
		c.accum(a, g)
	}
	if b.needGrad {
		g := c.arena(out, b).zeros(b.T.Shape...)
		tensor.MatMulTransAInto(a.T, out.Grad, g)
		c.accum(b, g)
	}
}

// MatMulTransB returns a @ b^T without materializing the transpose.
func MatMulTransB(a, b *Value) *Value {
	out := newNode("matmulTB", a, b)
	out.T = out.ar.uninit(a.T.Rows(), b.T.Rows())
	tensor.MatMulTransBInto(a.T, b.T, out.T)
	out.backward = matMulTransBBack
	return out
}

func matMulTransBBack(c *backCtx, out *Value) {
	a, b := out.ps[0], out.ps[1]
	if a.needGrad {
		g := c.arena(out, a).zeros(a.T.Shape...)
		tensor.MatMulInto(out.Grad, b.T, g)
		c.accum(a, g)
	}
	if b.needGrad {
		g := c.arena(out, b).zeros(b.T.Shape...)
		tensor.MatMulTransAInto(out.Grad, a.T, g)
		c.accum(b, g)
	}
}

// ---------------------------------------------------------------------------
// Nonlinearities
// ---------------------------------------------------------------------------

// unary applies the elementwise kernel f; df(x, y) is its derivative
// at input x and output y.
func unary(op string, a *Value, f func(a, out *tensor.Tensor), df func(x, y float64) float64) *Value {
	out := newNode(op, a)
	out.T = out.ar.uninit(a.T.Shape...)
	f(a.T, out.T)
	out.df = df
	out.backward = unaryBack
	return out
}

func unaryBack(c *backCtx, out *Value) {
	a := out.ps[0]
	g := c.arena(out, a).uninit(a.T.Shape...)
	for i := range g.Data {
		g.Data[i] = out.Grad.Data[i] * out.df(a.T.Data[i], out.T.Data[i])
	}
	c.accum(a, g)
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Value) *Value { return unary("relu", a, tensor.ReLUInto[float64], reluDeriv) }

// GELU applies the tanh-approximation Gaussian error linear unit.
func GELU(a *Value) *Value { return unary("gelu", a, tensor.GELUInto[float64], geluDeriv) }

// Tanh applies tanh elementwise.
func Tanh(a *Value) *Value { return unary("tanh", a, tensor.TanhInto[float64], tanhDeriv) }

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Value) *Value { return unary("sigmoid", a, tensor.SigmoidInto[float64], sigmoidDeriv) }

// Exp applies e^x elementwise.
func Exp(a *Value) *Value { return unary("exp", a, scalar(math.Exp).into, expDeriv) }

// Log applies the natural logarithm elementwise (inputs must be > 0).
func Log(a *Value) *Value { return unary("log", a, scalar(math.Log).into, logDeriv) }

// Abs applies |x| elementwise (subgradient 0 at x=0).
func Abs(a *Value) *Value { return unary("abs", a, scalar(math.Abs).into, absDeriv) }

// The derivatives, at input x and output y. Named functions, not
// literals at the call: an op that inlines into its Tape method would
// otherwise compile its derivative twice.

func reluDeriv(x, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

func geluDeriv(x, _ float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	inner := c * (x + float64(0.044715*x*x*x))
	th := math.Tanh(inner)
	sech2 := 1 - float64(th*th)
	return float64(0.5*(1+th)) + float64(0.5*x*sech2*c*(1+float64(3*0.044715*x*x)))
}

func tanhDeriv(_, y float64) float64    { return 1 - float64(y*y) }
func sigmoidDeriv(_, y float64) float64 { return y * (1 - y) }
func expDeriv(_, y float64) float64     { return y }
func logDeriv(x, _ float64) float64     { return 1 / x }

func absDeriv(x, _ float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// scalar is an elementwise function without an Into kernel of its own;
// its into method is one.
type scalar func(float64) float64

func (f scalar) into(a, out *tensor.Tensor) {
	for i, x := range a.Data {
		out.Data[i] = f(x)
	}
}

// ---------------------------------------------------------------------------
// Softmax / normalization
// ---------------------------------------------------------------------------

// SoftmaxRows applies softmax to each row.
func SoftmaxRows(a *Value) *Value {
	out := newNode("softmax", a)
	out.T = out.ar.uninit(a.T.Shape...)
	tensor.SoftmaxRowsInto(a.T, out.T)
	out.backward = softmaxBack
	return out
}

func softmaxBack(c *backCtx, out *Value) {
	a, y := out.ps[0], out.T
	m, n := y.Rows(), y.Cols()
	g := c.arena(out, a).uninit(m, n)
	for i := 0; i < m; i++ {
		yr := y.Row(i)
		gr := out.Grad.Row(i)
		var dot float64
		for j := 0; j < n; j++ {
			dot += float64(yr[j] * gr[j])
		}
		orow := g.Row(i)
		for j := 0; j < n; j++ {
			orow[j] = yr[j] * (gr[j] - dot)
		}
	}
	c.accum(a, g)
}

// LogSoftmaxRows applies log-softmax to each row (numerically stable).
func LogSoftmaxRows(a *Value) *Value {
	out := newNode("logsoftmax", a)
	out.T = out.ar.uninit(a.T.Shape...)
	tensor.LogSoftmaxRowsInto(a.T, out.T)
	out.backward = logSoftmaxBack
	return out
}

func logSoftmaxBack(c *backCtx, out *Value) {
	a, y := out.ps[0], out.T
	m, n := y.Rows(), y.Cols()
	g := c.arena(out, a).uninit(m, n)
	for i := 0; i < m; i++ {
		gr := out.Grad.Row(i)
		yr := y.Row(i)
		var sum float64
		for _, v := range gr {
			sum += v
		}
		orow := g.Row(i)
		for j := 0; j < n; j++ {
			orow[j] = gr[j] - float64(math.Exp(yr[j])*sum)
		}
	}
	c.accum(a, g)
}

// LayerNormRows normalizes each row to zero mean / unit variance and
// applies a learned 1xN gain and bias.
func LayerNormRows(a, gamma, beta *Value, eps float64) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	if gamma.T.Cols() != n || beta.T.Cols() != n {
		panic("ag: LayerNormRows gain/bias width mismatch")
	}
	out := newNode("layernorm", a, gamma, beta)
	y := out.ar.uninit(m, n)
	xhat := out.ar.uninit(m, n)
	invstd := out.ar.uninit(1, m)
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
			va += float64(d * d)
		}
		va /= float64(n)
		is := 1 / math.Sqrt(va+eps)
		invstd.Data[i] = is
		xr := xhat.Row(i)
		yr := y.Row(i)
		for j, v := range row {
			xr[j] = (v - mean) * is
			yr[j] = float64(xr[j]*gamma.T.Data[j]) + beta.T.Data[j]
		}
	}
	out.T = y
	out.aux = [2]*tensor.Tensor{xhat, invstd}
	out.backward = layerNormBack
	return out
}

func layerNormBack(c *backCtx, out *Value) {
	a, gamma, beta := out.ps[0], out.ps[1], out.ps[2]
	xhat, invstd := out.aux[0], out.aux[1]
	m, n := xhat.Rows(), xhat.Cols()
	if gamma.needGrad {
		gg := c.arena(out, gamma).zeros(1, n)
		for i := 0; i < m; i++ {
			gr := out.Grad.Row(i)
			xr := xhat.Row(i)
			for j := 0; j < n; j++ {
				gg.Data[j] += float64(gr[j] * xr[j])
			}
		}
		c.accum(gamma, gg)
	}
	if beta.needGrad {
		gb := c.arena(out, beta).zeros(1, n)
		tensor.SumRowsInto(out.Grad, gb)
		c.accum(beta, gb)
	}
	if a.needGrad {
		g := c.arena(out, a).uninit(m, n)
		for i := 0; i < m; i++ {
			gr := out.Grad.Row(i)
			xr := xhat.Row(i)
			// dxhat_j = grad_j * gamma_j, held in the gradient row
			// until the row's sums are known, then overwritten by dx_j.
			var sumDx, sumDxX float64
			dx := g.Row(i)
			for j := range dx {
				dx[j] = float64(gr[j] * gamma.T.Data[j])
				sumDx += dx[j]
				sumDxX += float64(dx[j] * xr[j])
			}
			fn := float64(n)
			for j := range dx {
				dx[j] = invstd.Data[i] / fn * (float64(fn*dx[j]) - sumDx - float64(xr[j]*sumDxX))
			}
		}
		c.accum(a, g)
	}
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
	out := newNodeN("concatrows", vs)
	out.T = out.ar.uninit(total, n)
	r := 0
	for _, v := range vs {
		copy(out.T.Data[r*n:], v.T.Data)
		r += v.T.Rows()
	}
	out.backward = concatRowsBack
	return out
}

func concatRowsBack(c *backCtx, out *Value) {
	n := out.T.Cols()
	r := 0
	for _, v := range out.parents {
		h := v.T.Rows()
		if v.needGrad {
			g := c.arena(out, v).uninit(h, n)
			copy(g.Data, out.Grad.Data[r*n:(r+h)*n])
			c.accum(v, g)
		}
		r += h
	}
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
	out := newNodeN("concatcols", vs)
	out.T = out.ar.uninit(m, total)
	off := 0
	for _, v := range vs {
		w := v.T.Cols()
		for i := 0; i < m; i++ {
			copy(out.T.Row(i)[off:off+w], v.T.Row(i))
		}
		off += w
	}
	out.backward = concatColsBack
	return out
}

func concatColsBack(c *backCtx, out *Value) {
	m := out.T.Rows()
	off := 0
	for _, v := range out.parents {
		w := v.T.Cols()
		if v.needGrad {
			g := c.arena(out, v).uninit(m, w)
			for i := 0; i < m; i++ {
				copy(g.Row(i), out.Grad.Row(i)[off:off+w])
			}
			c.accum(v, g)
		}
		off += w
	}
}

// SliceRows returns rows [from, to) of a.
func SliceRows(a *Value, from, to int) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	if from < 0 || to > m || from > to {
		panic(fmt.Sprintf("ag: SliceRows [%d,%d) of %d rows", from, to, m))
	}
	out := newNode("slicerows", a)
	out.T = out.ar.uninit(to-from, n)
	copy(out.T.Data, a.T.Data[from*n:to*n])
	out.lo, out.hi = from, to
	out.backward = sliceRowsBack
	return out
}

func sliceRowsBack(c *backCtx, out *Value) {
	a := out.ps[0]
	n := a.T.Cols()
	g := c.arena(out, a).zeros(a.T.Shape...)
	copy(g.Data[out.lo*n:out.hi*n], out.Grad.Data)
	c.accum(a, g)
}

// SliceCols returns columns [from, to) of a.
func SliceCols(a *Value, from, to int) *Value {
	m, n := a.T.Rows(), a.T.Cols()
	if from < 0 || to > n || from > to {
		panic(fmt.Sprintf("ag: SliceCols [%d,%d) of %d cols", from, to, n))
	}
	out := newNode("slicecols", a)
	out.T = out.ar.uninit(m, to-from)
	for i := 0; i < m; i++ {
		copy(out.T.Row(i), a.T.Row(i)[from:to])
	}
	out.lo, out.hi = from, to
	out.backward = sliceColsBack
	return out
}

func sliceColsBack(c *backCtx, out *Value) {
	a := out.ps[0]
	g := c.arena(out, a).zeros(a.T.Shape...)
	for i := range a.T.Rows() {
		copy(g.Row(i)[out.lo:out.hi], out.Grad.Row(i))
	}
	c.accum(a, g)
}

// Gather returns the rows of the weight matrix w selected by idx, in
// order. It is the embedding-lookup primitive: backward scatter-adds.
func Gather(w *Value, idx []int) *Value {
	out := newNode("gather", w)
	n := w.T.Cols()
	out.T = out.ar.uninit(len(idx), n)
	for i, ix := range idx {
		copy(out.T.Row(i), w.T.Row(ix))
	}
	out.idx = out.ar.ints(idx)
	out.backward = gatherBack
	return out
}

func gatherBack(c *backCtx, out *Value) {
	w := out.ps[0]
	g := c.arena(out, w).zeros(w.T.Shape...)
	for i, ix := range out.idx {
		grow := g.Row(ix)
		orow := out.Grad.Row(i)
		for j := range grow {
			grow[j] += orow[j]
		}
	}
	c.accum(w, g)
}

// ---------------------------------------------------------------------------
// Reductions and losses
// ---------------------------------------------------------------------------

// SumAll reduces a to a 1x1 scalar.
func SumAll(a *Value) *Value {
	out := newNode("sumall", a)
	out.T = out.ar.uninit(1, 1)
	out.T.Data[0] = tensor.SumAll(a.T)
	out.backward = sumAllBack
	return out
}

func sumAllBack(c *backCtx, out *Value) {
	a := out.ps[0]
	g := c.arena(out, a).uninit(a.T.Shape...)
	g.Fill(out.Grad.Data[0])
	c.accum(a, g)
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
	sel := ls.ar.zeros(m, n)
	for i, t := range targets {
		if t < 0 || t >= n {
			panic(fmt.Sprintf("ag: CrossEntropyRows target %d out of %d classes", t, n))
		}
		sel.Set(i, t, -1/float64(m))
	}
	return SumAll(Mul(ls, ls.ar.constant(sel)))
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
