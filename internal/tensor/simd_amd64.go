//go:build amd64 && !purego

package tensor

// The amd64 row loops: the same kcBlock blocking, row order and zero
// skip as the pure-Go kernels they stand in for (matMulRows,
// matMulF32Rows, matMulTransARows, matMulInt8Rows), with the innermost
// j loop handed to the AVX2 primitives of simd_amd64.s; a @ bᵀ
// (matMulTransBRows) hands over four output columns at a time. The
// training-side elementwise kernels (addInPlace, adamUpdate) go whole
// rows to assembly. Go keeps the blocking, the row sharding and the
// dispatch; see DESIGN.md §9 for why the lanes are output columns or
// elements and why nothing here fuses.

// useAVX2 is decided once, at init: the CPU has AVX2 and the OS saves
// the YMM state. No flag, environment variable or build tag selects it
// (the purego tag only exists so CI can run the fallback on amd64).
var useAVX2 = detectAVX2()

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
func dotInt8(q, w *int8, k16, stride, nch int, acc *int32)

//go:noescape
func maxAbsF32(row *float32, n8 int) float32

//go:noescape
func quantizeF32(row *float32, q *int8, n8 int, inv float64)

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
	if useAVX2 {
		matMulInt8RowsAVX2(a, w, bias, out, qbuf, k, n, i0, i1)
		return
	}
	matMulInt8Rows(a, w, bias, out, qbuf, k, n, i0, i1)
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

// matMulInt8RowsAVX2 is matMulInt8Rows with the quantizer and the dot
// products in assembly: dotInt8 sums the first k&^15 products of a
// block of output channels, Go adds the rest of each row and applies
// the same fused dequantize-and-bias expression. Integer sums are
// exact, so the different association changes nothing.
func matMulInt8RowsAVX2[T Float](a []T, w *Int8Matrix, bias, out []T, qbuf []int8, k, n, i0, i1 int) {
	k16 := k &^ 15
	if k16 == 0 || n == 0 || i0 >= i1 {
		matMulInt8Rows(a, w, bias, out, qbuf, k, n, i0, i1)
		return
	}
	wd, scales, bias := w.Data[:n*k], w.Scales[:n], bias[:n]
	var acc [64]int32
	for i := i0; i < i1; i++ {
		q := qbuf[i*k : i*k+k : i*k+k]
		as := quantizeRowAVX2(a[i*k:i*k+k:i*k+k], q)
		orow := out[i*n : i*n+n : i*n+n]
		for j0 := 0; j0 < n; j0 += len(acc) {
			nc := min(len(acc), n-j0)
			dotInt8(&q[0], &wd[j0*k], k16, k, nc, &acc[0])
			for c, s := range acc[:nc] {
				j := j0 + c
				for l := k16; l < k; l++ {
					s += int32(q[l]) * int32(wd[j*k+l])
				}
				orow[j] = T(s)*as*T(scales[j]) + bias[j]
			}
		}
	}
}

// quantizeRowAVX2 is QuantizeRowInt8 with both passes in assembly when
// the row is float32 (the int8 tier's activations) and a whole number
// of vectors, which every model dimension is; any other row takes the
// Go quantizer. Same scale, same codes: see quantizeF32.
func quantizeRowAVX2[T Float](row []T, q []int8) T {
	r, ok := any(row).([]float32)
	if !ok || len(r) == 0 || len(r)%8 != 0 {
		return QuantizeRowInt8(row, q)
	}
	q = q[:len(r)]
	maxAbs := maxAbsF32(&r[0], len(r))
	if maxAbs == 0 {
		clear(q)
		return 1
	}
	quantizeF32(&r[0], &q[0], len(r), 127/float64(maxAbs))
	return T(float64(maxAbs) / 127)
}
