//go:build amd64 && !purego

package tensor

import (
	"math"
	"unsafe"
)

// The amd64 row loops: the same kcBlock blocking, row order and zero
// skip as the pure-Go kernels they stand in for (matMulRows,
// matMulF32Rows, matMulTransARows, matMulInt8Rows), with the innermost
// j loop handed to the AVX2 primitives of simd_amd64.s; a @ bᵀ
// (matMulTransBRows) hands over four output columns at a time. The
// elementwise kernels (addInPlace, adamUpdate, GELU and tanh) and the
// int8 product's dequantize-and-bias go whole rows to assembly. Go
// keeps the blocking, the row sharding and the dispatch; see DESIGN.md
// §9 for why the lanes are output columns or elements, why nothing
// fuses but math.Exp's own FMA path inside tanh.

// useAVX2 is decided once, at init: the CPU has AVX2 and the OS saves
// the YMM state. No flag, environment variable or build tag selects it
// (the purego tag only exists so CI can run the fallback on amd64).
var useAVX2 = detectAVX2()

// useFMA is math.Exp's own choice of its FMA path (AVX and FMA, unless
// GODEBUG=cpu.fma=off), read once at init from an argument the two
// paths round apart: geluTanh's exp lanes take the path math.Exp takes.
var useFMA = math.Exp(expProbe) == expProbeFMA

const expProbe, expProbeFMA = 3.163846725179284, 23.661440148271208

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	const xmmYmm = 0b110 // XCR0: SSE and AVX state enabled by the OS
	if lo, _ := xgetbv(); lo&xmmYmm != xmmYmm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

//go:noescape
func axpy4F64(o, b *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpyF64(o, b *float64, n int, a float64)

//go:noescape
func axpy4F32(o, b *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpyF32(o, b *float32, n int, a float32)

//go:noescape
func dotT4F64(a, b, out *float64, k, n, m int)

//go:noescape
func addToF64(dst, src *float64, n int)

//go:noescape
func adamF64(p, grad, m, v *float64, n int, s, b1, c1, b2, c2, lr, b1c, b2c, eps float64)

//go:noescape
func dotInt8(q, w *int8, k, nch int, as float32, scales, bias, out *float32)

//go:noescape
func maxAbsF32(row *float32, n8 int) float32

//go:noescape
func quantizeF32(row *float32, q *int8, n8 int, inv float64)

//go:noescape
func geluTanh(x, out unsafe.Pointer, n8, op int)

// geluTanh's op bits.
const (
	opF32  = 1 << iota // float32 elements
	opGELU             // gelu(x) rather than tanh(x)
	opFMA              // math.Exp's FMA path
)

func matMulRowsF64(a, b, out []float64, k, n, i0, i1 int) {
	if useAVX2 {
		matMulRowsAVX2(a, b, out, k, n, i0, i1)
		return
	}
	matMulRows(a, b, out, k, n, i0, i1)
}

func matMulRowsF32(a, b, out []float32, k, n, i0, i1 int) {
	if useAVX2 {
		matMulF32RowsAVX2(a, b, out, k, n, i0, i1)
		return
	}
	matMulF32Rows(a, b, out, k, n, i0, i1)
}

func matMulTransARowsF64(a, b, out []float64, k, m, n, i0, i1 int) {
	if useAVX2 {
		matMulTransARowsAVX2(a, b, out, k, m, n, i0, i1)
		return
	}
	matMulTransARows(a, b, out, k, m, n, i0, i1)
}

func matMulInt8RowsOf[T Float](a []T, w *Int8Matrix, bias, out []T, qbuf []int8, k, n, i0, i1 int) {
	if a, ok := any(a).([]float32); ok && useAVX2 {
		matMulInt8RowsAVX2(a, w, any(bias).([]float32), any(out).([]float32), qbuf, k, n, i0, i1)
		return
	}
	matMulInt8Rows(a, w, bias, out, qbuf, k, n, i0, i1)
}

// geluTanhLanes computes GELUInto's (gelu) or TanhInto's elements in
// assembly and reports whether it did.
func geluTanhLanes[T Float](x, out []T, gelu bool) bool {
	if !useAVX2 {
		return false
	}
	op := 0
	if gelu {
		op |= opGELU
	}
	if useFMA {
		op |= opFMA
	}
	geluTanhRows(x, out, op)
	return true
}

// geluTanhRows runs geluTanh over x into out, the last len(x)%8
// elements through a zero-padded copy; T sets op's opF32 bit.
func geluTanhRows[T Float](x, out []T, op int) {
	if narrowerThanFloat64[T]() {
		op |= opF32
	}
	out = out[:len(x)]
	n8 := len(x) &^ 7
	if n8 > 0 {
		geluTanh(unsafe.Pointer(&x[0]), unsafe.Pointer(&out[0]), n8, op)
	}
	if n8 < len(x) {
		var buf [8]T
		copy(buf[:], x[n8:])
		geluTanh(unsafe.Pointer(&buf[0]), unsafe.Pointer(&buf[0]), 8, op)
		copy(out[n8:], buf[:])
	}
}

func addInPlaceF64(dst, src []float64) {
	if useAVX2 && len(src) > 0 {
		addToF64(&dst[:len(src)][0], &src[0], len(src))
		return
	}
	addInPlace(dst, src)
}

func adamUpdateF64(p, g, m, v []float64, c AdamCoeffs) {
	if useAVX2 && len(p) > 0 {
		n := len(p)
		g, m, v = g[:n], m[:n], v[:n] // the assembly trusts n
		adamF64(&p[0], &g[0], &m[0], &v[0], n, c.Scale, c.Beta1, 1-c.Beta1, c.Beta2, 1-c.Beta2, c.LR, c.B1C, c.B2C, c.Eps)
		return
	}
	adamUpdate(p, g, m, v, c)
}

// axpy4SkipF64 adds the terms of four consecutive l's to one output
// row; b holds their four B rows. The fused call is taken only when all
// four A entries are non-zero; otherwise the l's go one at a time and
// the zero ones are skipped, exactly as the pure-Go float64 kernels skip
// them (skipping a term is not the same as adding 0·Inf).
func axpy4SkipF64(o *float64, b []float64, n int, a0, a1, a2, a3 float64) {
	if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
		axpy4F64(o, &b[0], n, a0, a1, a2, a3)
		return
	}
	for t, av := range [4]float64{a0, a1, a2, a3} {
		if av != 0 {
			axpyF64(o, &b[t*n], n, av)
		}
	}
}

// matMulRowsAVX2 is matMulRows with the j loop in assembly.
func matMulRowsAVX2(a, b, out []float64, k, n, i0, i1 int) {
	if n == 0 || i0 >= i1 {
		return
	}
	// The assembly trusts n; an operand too short for it panics here.
	a, b, out = a[:i1*k], b[:k*n], out[:i1*n]
	for l0 := 0; l0 < k; l0 += kcBlock {
		l1 := min(l0+kcBlock, k)
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			o := &out[i*n]
			l := l0
			for ; l+4 <= l1; l += 4 {
				axpy4SkipF64(o, b[l*n:(l+4)*n], n, arow[l], arow[l+1], arow[l+2], arow[l+3])
			}
			for ; l < l1; l++ {
				if av := arow[l]; av != 0 {
					axpyF64(o, &b[l*n], n, av)
				}
			}
		}
	}
}

// matMulF32RowsAVX2 is matMulF32Rows with the j loop in assembly: the
// same 4-deep l grouping, and no zero skip in this tier.
func matMulF32RowsAVX2(a, b, out []float32, k, n, i0, i1 int) {
	if n == 0 || i0 >= i1 {
		return
	}
	a, b, out = a[:i1*k], b[:k*n], out[:i1*n]
	for l0 := 0; l0 < k; l0 += kcBlock {
		l1 := min(l0+kcBlock, k)
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			o := &out[i*n]
			l := l0
			for ; l+4 <= l1; l += 4 {
				axpy4F32(o, &b[l*n], n, arow[l], arow[l+1], arow[l+2], arow[l+3])
			}
			for ; l < l1; l++ {
				axpyF32(o, &b[l*n], n, arow[l])
			}
		}
	}
}

// matMulTransARowsAVX2 is matMulTransARows with the j loop in
// assembly. l stays outermost, four at a time, so an output row is
// loaded and stored once per four l's; each element still receives its
// terms in ascending l, and the zero skip is per term as above.
func matMulTransARowsAVX2(a, b, out []float64, k, m, n, i0, i1 int) {
	if n == 0 || i0 >= i1 {
		return
	}
	a, b, out = a[:k*m], b[:k*n], out[:i1*n]
	l := 0
	for ; l+4 <= k; l += 4 {
		r0, r1, r2, r3 := a[l*m:(l+1)*m], a[(l+1)*m:(l+2)*m], a[(l+2)*m:(l+3)*m], a[(l+3)*m:(l+4)*m]
		for i := i0; i < i1; i++ {
			axpy4SkipF64(&out[i*n], b[l*n:(l+4)*n], n, r0[i], r1[i], r2[i], r3[i])
		}
	}
	for ; l < k; l++ {
		arow := a[l*m : (l+1)*m]
		for i := i0; i < i1; i++ {
			if av := arow[i]; av != 0 {
				axpyF64(&out[i*n], &b[l*n], n, av)
			}
		}
	}
}

// matMulTransBRowsF64 is matMulTransBRows with four output columns at
// a time in assembly (dotT4F64, every row of the range per call). When
// n%4 != 0 the last group of four overlaps the one before it and writes
// its shared columns again, with the same bits. Each element is one
// chain from +0 in ascending l with nothing skipped.
func matMulTransBRowsF64(a, b, out []float64, k, n, i0, i1 int) {
	if !useAVX2 || k == 0 || n < 4 || i0 >= i1 {
		matMulTransBRows(a, b, out, k, n, i0, i1)
		return
	}
	a, b, out = a[i0*k:i1*k], b[:n*k], out[i0*n:i1*n]
	for j := 0; j < n; j += 4 {
		j = min(j, n-4)
		dotT4F64(&a[0], &b[j*k], &out[j], k, n, i1-i0)
	}
}

// matMulInt8RowsAVX2 is matMulInt8Rows at float32 with the quantizer
// and every output element in assembly: dotInt8 sums a row's products
// against each channel in int32, exact in any order, and applies the
// dequantize-and-bias expression with Go's roundings. Rows shorter than
// one 16-byte step take the Go kernel.
func matMulInt8RowsAVX2(a []float32, w *Int8Matrix, bias, out []float32, qbuf []int8, k, n, i0, i1 int) {
	if k < 16 || n == 0 || i0 >= i1 {
		matMulInt8Rows(a, w, bias, out, qbuf, k, n, i0, i1)
		return
	}
	wd, scales, bias := w.Data[:n*k], w.Scales[:n], bias[:n]
	for i := i0; i < i1; i++ {
		q := qbuf[i*k : i*k+k : i*k+k]
		as := quantizeRowAVX2(a[i*k:i*k+k:i*k+k], q)
		dotInt8(&q[0], &wd[0], k, n, as, &scales[0], &bias[0], &out[i*n : i*n+n][0])
	}
}

// quantizeRowAVX2 is QuantizeRowInt8 with both passes in assembly when
// the row is a whole number of vectors, which every model dimension is;
// any other row takes the Go quantizer. Same scale, same codes: see
// quantizeF32.
func quantizeRowAVX2(r []float32, q []int8) float32 {
	if len(r) == 0 || len(r)%8 != 0 {
		return QuantizeRowInt8(r, q)
	}
	q = q[:len(r)]
	maxAbs := maxAbsF32(&r[0], len(r))
	if maxAbs == 0 {
		clear(q)
		return 1
	}
	quantizeF32(&r[0], &q[0], len(r), 127/float64(maxAbs))
	return float32(float64(maxAbs) / 127)
}
