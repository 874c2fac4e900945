// Destination-taking ("Into") variants of the hot forward kernels.
//
// These are the package's kernels: paired with a Pool they let a
// serving forward pass, and a training graph on an ag.Arena, allocate
// nothing at steady state. The tape's ops and the serving session call
// the same kernels, so their outputs are bitwise identical — the
// invariant the no-grad equivalence tests assert with eps = 0.
//
// Every kernel here is written once over the element type. gc has no
// float32 transcendentals, so exp/log/tanh/sqrt run through the
// float64 math package and are rounded to T on the way out — a no-op
// at float64, one rounding at float32. Reductions (softmax partition,
// layer-norm moments) accumulate in T: the f32 tier is honest about
// its precision, and the cross-tier error is what internal/calib
// budgets for. All kernels are elementwise or row-independent, so
// serial and sharded execution agree bitwise in both tiers.
//
// Unless noted otherwise, out must have the correct shape already
// (Pool.Get hands it out that way) and must not alias an input.
package tensor

import (
	"fmt"
	"math"
	"unsafe"

	"mtmlf/internal/parallel"
)

// AddInto computes out = a + b elementwise. out may alias a or b.
func AddInto[T Float](a, b, out *Dense[T]) {
	if !a.SameShape(b) || !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: AddInto shape mismatch %v + %v -> %v", a.Shape, b.Shape, out.Shape))
	}
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
}

// SubInto computes out = a - b elementwise. out may alias a or b.
func SubInto[T Float](a, b, out *Dense[T]) {
	if !a.SameShape(b) || !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: SubInto shape mismatch %v - %v -> %v", a.Shape, b.Shape, out.Shape))
	}
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
}

// MulInto computes the Hadamard product out = a ⊙ b. out may alias a
// or b.
func MulInto[T Float](a, b, out *Dense[T]) {
	if !a.SameShape(b) || !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: MulInto shape mismatch %v * %v -> %v", a.Shape, b.Shape, out.Shape))
	}
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
}

// ScaleInto computes out = s * a. out may alias a.
func ScaleInto[T Float](a *Dense[T], s T, out *Dense[T]) {
	if !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: ScaleInto shape mismatch %v -> %v", a.Shape, out.Shape))
	}
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
}

// AddBiasInto broadcasts the 1xN bias row across every row of a [M,N]
// matrix: out = a + 1·bias. out may alias a.
func AddBiasInto[T Float](a, bias, out *Dense[T]) {
	m, n := a.Rows(), a.Cols()
	if bias.Rows() != 1 || bias.Cols() != n || !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: AddBiasInto shape %v + %v -> %v", a.Shape, bias.Shape, out.Shape))
	}
	for i := 0; i < m; i++ {
		row := a.Row(i)
		orow := out.Row(i)
		for j := range row {
			orow[j] = row[j] + bias.Data[j]
		}
	}
}

// SumRowsInto accumulates the column sums of a into the 1xN row out,
// one row of a after another. out must be zeroed (Pool.Get).
func SumRowsInto[T Float](a, out *Dense[T]) {
	m, n := a.Rows(), a.Cols()
	if out.Rows() != 1 || out.Cols() != n {
		panic(fmt.Sprintf("tensor: SumRowsInto shape %v -> %v", a.Shape, out.Shape))
	}
	for i := 0; i < m; i++ {
		for j, v := range a.Data[i*n : (i+1)*n] {
			out.Data[j] += v
		}
	}
}

// SoftmaxRowsInto applies a numerically stable softmax independently
// to each row of a, into out. out may alias a.
func SoftmaxRowsInto[T Float](a, out *Dense[T]) {
	a.mustMatrix()
	if !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: SoftmaxRowsInto shape mismatch %v -> %v", a.Shape, out.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		orow := out.Data[i*n : (i+1)*n]
		mx := T(math.Inf(-1))
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var z T
		for j, v := range row {
			e := T(math.Exp(float64(v - mx)))
			orow[j] = e
			z += e
		}
		if z == 0 {
			z = 1
		}
		for j := range orow {
			orow[j] /= z
		}
	}
}

// LogSoftmaxRowsInto applies the numerically stable row-wise
// log-softmax. out may alias a.
func LogSoftmaxRowsInto[T Float](a, out *Dense[T]) {
	a.mustMatrix()
	if !a.SameShape(out) {
		panic(fmt.Sprintf("tensor: LogSoftmaxRowsInto shape mismatch %v -> %v", a.Shape, out.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		mx := T(math.Inf(-1))
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var z T
		for _, v := range row {
			z += T(math.Exp(float64(v - mx)))
		}
		lz := T(math.Log(float64(z))) + mx
		orow := out.Data[i*n : (i+1)*n]
		for j, v := range row {
			orow[j] = v - lz
		}
	}
}

// LayerNormRowsInto normalizes each row of a to zero mean / unit
// variance and applies the 1xN gain gamma and bias beta, with the
// exact expressions of ag.LayerNormRows's forward. out may alias a.
func LayerNormRowsInto[T Float](a, gamma, beta *Dense[T], eps float64, out *Dense[T]) {
	m, n := a.Rows(), a.Cols()
	if gamma.Cols() != n || beta.Cols() != n || !a.SameShape(out) {
		panic("tensor: LayerNormRowsInto shape mismatch")
	}
	for i := 0; i < m; i++ {
		row := a.Row(i)
		var mean T
		for _, v := range row {
			mean += v
		}
		mean /= T(n)
		var va T
		for _, v := range row {
			d := v - mean
			va += T(d * d)
		}
		va /= T(n)
		is := T(1 / math.Sqrt(float64(va)+eps))
		orow := out.Row(i)
		for j, v := range row {
			xh := (v - mean) * is
			orow[j] = T(xh*gamma.Data[j]) + beta.Data[j]
		}
	}
}

// ReLUInto computes out = max(0, a) elementwise. out may alias a.
func ReLUInto[T Float](a, out *Dense[T]) {
	if !a.SameShape(out) {
		panic("tensor: ReLUInto shape mismatch")
	}
	for i, x := range a.Data {
		if x > 0 {
			out.Data[i] = x
		} else {
			out.Data[i] = 0
		}
	}
}

// GELUInto computes the tanh-approximation GELU elementwise. out may
// alias a. With AVX2 the assembly computes every element (same bits);
// the loops here are the fallback and its oracle.
func GELUInto[T Float](a, out *Dense[T]) {
	if !a.SameShape(out) {
		panic("tensor: GELUInto shape mismatch")
	}
	if geluTanhLanes(a.Data, out.Data, true) {
		return
	}
	if narrowerThanFloat64[T]() {
		viaFloat64(a.Data, out.Data, func(x []float64) {
			for i, v := range x {
				x[i] = gelu(v)
			}
		})
		return
	}
	for i, v := range a.Data {
		out.Data[i] = T(gelu(float64(v)))
	}
}

func gelu(v float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return 0.5 * v * (1 + math.Tanh(c*(v+float64(0.044715*v*v*v))))
}

// TanhInto computes out = tanh(a) elementwise. out may alias a. With
// AVX2 the assembly computes it, as for GELUInto.
func TanhInto[T Float](a, out *Dense[T]) {
	if !a.SameShape(out) {
		panic("tensor: TanhInto shape mismatch")
	}
	if geluTanhLanes(a.Data, out.Data, false) {
		return
	}
	if narrowerThanFloat64[T]() {
		viaFloat64(a.Data, out.Data, func(x []float64) {
			for i, v := range x {
				x[i] = math.Tanh(v)
			}
		})
		return
	}
	for i, x := range a.Data {
		out.Data[i] = T(math.Tanh(float64(x)))
	}
}

func narrowerThanFloat64[T Float]() bool { return unsafe.Sizeof(T(0)) < 8 }

// viaFloat64 applies f to src in float64, a stack-sized chunk at a
// time — widen the chunk, run f over it in place, round it back into
// dst — which is bit for bit what converting inside f's loop gives.
// It exists for float32 rows through math.Tanh: there the per-element
// float64(v) compiles to CVTSS2SD, whose merge into its destination
// register chains every iteration behind the previous Tanh (2.3x the
// float64 time on the same values). Converting in a loop of its own
// breaks the chain. float64 rows gain nothing and would pay the copy;
// kernels through math.Exp (sigmoid, softmax) measured no such stall.
func viaFloat64[T Float](src, dst []T, f func(x []float64)) {
	var buf [64]float64
	for len(src) > 0 {
		x := buf[:min(len(buf), len(src))]
		for i := range x {
			x[i] = float64(src[i])
		}
		f(x)
		for i, v := range x {
			dst[i] = T(v)
		}
		src, dst = src[len(x):], dst[len(x):]
	}
}

// SigmoidInto computes the logistic function elementwise. out may
// alias a.
func SigmoidInto[T Float](a, out *Dense[T]) {
	if !a.SameShape(out) {
		panic("tensor: SigmoidInto shape mismatch")
	}
	for i, x := range a.Data {
		out.Data[i] = T(1 / (1 + math.Exp(-float64(x))))
	}
}

// MatMulInto computes out = a @ b. out must be [m,n] and zeroed (the
// kernel accumulates); Pool.Get satisfies both. out must not alias a
// or b.
func MatMulInto[T Float](a, b, out *Dense[T]) {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto %v @ %v -> %v", a.Shape, b.Shape, out.Shape))
	}
	matMulInto(a.Data, b.Data, out.Data, m, k, n)
}

// MatMulTransBInto computes out = a @ b^T for a [m,k], b [n,k]. out
// must be [m,n] and must not alias the inputs (zeroing is not needed:
// this kernel overwrites).
func MatMulTransBInto[T Float](a, b, out *Dense[T]) {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto %v @ %v^T -> %v", a.Shape, b.Shape, out.Shape))
	}
	matMulTransBInto(a.Data, b.Data, out.Data, m, k, n)
}

// MatMulTransAInto computes out = a^T @ b for a [k,m], b [k,n]: the
// weight gradient of a @ w. out must be [m,n] and zeroed (the kernel
// accumulates) and must not alias the inputs.
func MatMulTransAInto(a, b, out *Tensor) {
	a.mustMatrix()
	b.mustMatrix()
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto %v^T @ %v: inner or output dims mismatch", a.Shape, b.Shape))
	}
	if m*k*n < serialFlops {
		matMulTransARowsF64(a.Data, b.Data, out.Data, k, m, n, 0, m)
		return
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulTransARowsF64(a.Data, b.Data, out.Data, k, m, n, i0, i1)
	})
}

// MatMulBatchInto computes outs[i] = as[i] @ bs[i] for every triple, one
// after another on the calling goroutine: per-head attention products
// are a few thousand multiply-adds each, too small for a pool dispatch
// to pay (a product of serialFlops or more still shards inside
// MatMulInto). Each outs[i] must be zeroed (the kernel accumulates).
func MatMulBatchInto[T Float](as, bs, outs []*Dense[T]) {
	if len(as) != len(bs) || len(as) != len(outs) {
		panic(fmt.Sprintf("tensor: MatMulBatchInto length mismatch %d/%d/%d", len(as), len(bs), len(outs)))
	}
	for i := range as {
		MatMulInto(as[i], bs[i], outs[i])
	}
}

// MatMulTransBBatchInto computes outs[i] = as[i] @ bs[i]^T for every
// triple; see MatMulBatchInto.
func MatMulTransBBatchInto[T Float](as, bs, outs []*Dense[T]) {
	if len(as) != len(bs) || len(as) != len(outs) {
		panic(fmt.Sprintf("tensor: MatMulTransBBatchInto length mismatch %d/%d/%d", len(as), len(bs), len(outs)))
	}
	for i := range as {
		MatMulTransBInto(as[i], bs[i], outs[i])
	}
}
