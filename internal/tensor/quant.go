// Per-tensor symmetric int8 quantization for the weight-stationary
// matmuls of the inference tier.
//
// A Linear's float64 weight [in, out] is quantized once at lowering
// time (QuantizeLinear) with one symmetric scale per OUTPUT row —
// scale_j = maxabs(w[:,j]) / 127 — and stored transposed [out, in] so
// each output channel's weights are one contiguous int8 row the dot
// kernel streams. At serve time activations are quantized dynamically
// per row (same maxabs/127 rule), products accumulate in int32, and
// the dequantization (acc * aScale * wScale[j]) is fused into the
// bias add — one write per output element, no intermediate int32
// matrix.
//
// The int32 accumulator cannot overflow: |q| <= 127, so k products
// sum to at most 127*127*k = 16129*k, which stays under 2^31 for any
// k < 133000 — far beyond any model dimension here.
//
// Like every kernel in this package, output rows are computed
// independently with a fixed per-element order, so serial and sharded
// results are bitwise identical.
package tensor

import (
	"fmt"
	"math"

	"mtmlf/internal/parallel"
)

// Int8Matrix is a per-row symmetrically quantized weight matrix,
// stored transposed relative to the float64 Linear weight it was
// lowered from: row j holds output channel j's In weights.
type Int8Matrix struct {
	// Data holds the quantized weights, row-major [Out, In].
	Data []int8
	// Scales[j] reconstructs row j: w[j][l] ≈ float32(Data[j*In+l]) * Scales[j].
	Scales []float32
	// Out, In are the output and input channel counts.
	Out, In int
}

// QuantizeLinear quantizes a float64 weight matrix w [in, out] to
// int8 with one symmetric scale per output row, stored transposed
// [out, in]. An all-zero output row gets scale 1 (nothing to encode).
func QuantizeLinear(w *Tensor) *Int8Matrix {
	in, out := w.Rows(), w.Cols()
	q := &Int8Matrix{
		Data:   make([]int8, out*in),
		Scales: make([]float32, out),
		Out:    out,
		In:     in,
	}
	for j := 0; j < out; j++ {
		var maxAbs float64
		for l := 0; l < in; l++ {
			a := math.Abs(w.Data[l*out+j])
			if a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			q.Scales[j] = 1
			continue
		}
		scale := maxAbs / 127
		q.Scales[j] = float32(scale)
		row := q.Data[j*in : (j+1)*in]
		for l := 0; l < in; l++ {
			row[l] = int8(math.Round(w.Data[l*out+j] / scale))
		}
	}
	return q
}

// Dequantize reconstructs the float64 weight matrix [in, out] —
// lowering-pass round-trip tests compare it against the original.
func (q *Int8Matrix) Dequantize() *Tensor {
	w := New(q.In, q.Out)
	for j := 0; j < q.Out; j++ {
		s := float64(q.Scales[j])
		row := q.Data[j*q.In : (j+1)*q.In]
		for l, v := range row {
			w.Data[l*q.Out+j] = float64(v) * s
		}
	}
	return w
}

// Bytes returns the resident size of the quantized weights: one byte
// per element plus the f32 scale vector.
func (q *Int8Matrix) Bytes() int { return len(q.Data) + 4*len(q.Scales) }

// QuantizeRowInt8 quantizes one activation row symmetrically into
// q (len(q) >= len(row)) and returns the scale: q[l] = round(row[l] /
// scale) with scale = maxabs/127, so |row[l] - float32(q[l])*scale|
// <= scale/2 for every element (the property the lowering tests
// assert). An all-zero row quantizes to zeros with scale 1.
func QuantizeRowInt8[T Float](row []T, q []int8) T {
	var maxAbs T
	for _, v := range row {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range row {
			q[i] = 0
		}
		return 1
	}
	// Round in float64: |x| <= 127 so int8(x ± 0.5) never overflows,
	// and the half-away rounding keeps the dequantization error of
	// every element within scale/2.
	inv := 127 / float64(maxAbs)
	for i, v := range row {
		x := float64(v) * inv
		if x >= 0 {
			q[i] = int8(x + 0.5)
		} else {
			q[i] = int8(x - 0.5)
		}
	}
	return T(float64(maxAbs) / 127)
}

// MatMulInt8Into computes out = a @ w^T_dequant + bias for an
// activation a [m,k] (f32 in the int8 serving tier) against int8
// weights w (Out=n output channels of
// In=k weights each): each activation row is quantized dynamically,
// products accumulate in int32, and dequantization is fused into the
// bias add. qbuf is caller-provided scratch of at least m*k bytes
// (ag.Session owns one per session, keeping the steady state
// allocation-free); shards write disjoint row ranges of it.
func MatMulInt8Into[T Float](a *Dense[T], w *Int8Matrix, bias, out *Dense[T], qbuf []int8) {
	m, k := a.Rows(), a.Cols()
	n := w.Out
	if w.In != k {
		panic(fmt.Sprintf("tensor: MatMulInt8Into inner dim mismatch [%d,%d] @ int8[%d,%d]", m, k, w.Out, w.In))
	}
	if bias.Rows() != 1 || bias.Cols() != n || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInt8Into %v + bias%v -> %v (want [%d,%d])", a.Shape, bias.Shape, out.Shape, m, n))
	}
	if len(qbuf) < m*k {
		panic(fmt.Sprintf("tensor: MatMulInt8Into scratch %d < %d", len(qbuf), m*k))
	}
	if m*k*n < serialFlops {
		matMulInt8RowsOf(a.Data, w, bias.Data, out.Data, qbuf, k, n, 0, m)
		return
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulInt8RowsOf(a.Data, w, bias.Data, out.Data, qbuf, k, n, i0, i1)
	})
}

// matMulInt8Rows serves output rows [i0, i1): quantize each activation
// row in place in its qbuf segment, then dot it against every weight
// row with a 4x-unrolled int32 accumulation.
func matMulInt8Rows[T Float](a []T, w *Int8Matrix, bias, out []T, qbuf []int8, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : i*k+k : i*k+k]
		q := qbuf[i*k : i*k+k : i*k+k]
		as := QuantizeRowInt8(arow, q)
		orow := out[i*n : i*n+n : i*n+n]
		for j := 0; j < n; j++ {
			wrow := w.Data[j*k : j*k+k : j*k+k]
			var s0, s1, s2, s3 int32
			l := 0
			for ; l+4 <= k; l += 4 {
				qw := q[l : l+4 : l+4]
				ww := wrow[l : l+4 : l+4]
				s0 += int32(qw[0]) * int32(ww[0])
				s1 += int32(qw[1]) * int32(ww[1])
				s2 += int32(qw[2]) * int32(ww[2])
				s3 += int32(qw[3]) * int32(ww[3])
			}
			acc := (s0 + s1) + (s2 + s3)
			for ; l < k; l++ {
				acc += int32(q[l]) * int32(wrow[l])
			}
			orow[j] = T(acc)*as*T(w.Scales[j]) + bias[j]
		}
	}
}
