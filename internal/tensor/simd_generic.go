//go:build !amd64 || purego

package tensor

// Without the AVX2 primitives of simd_amd64.s every product and every
// elementwise training kernel runs in pure Go. The purego tag forces
// this file on amd64 so CI can check that the fallback compiles, is
// selected and reproduces the same goldens; nothing else should set it.

func matMulRowsF64(a, b, out []float64, k, n, i0, i1 int) {
	matMulRows(a, b, out, k, n, i0, i1)
}

func matMulRowsF32(a, b, out []float32, k, n, i0, i1 int) {
	matMulF32Rows(a, b, out, k, n, i0, i1)
}

func matMulTransARowsF64(a, b, out []float64, k, m, n, i0, i1 int) {
	matMulTransARows(a, b, out, k, m, n, i0, i1)
}

func matMulTransBRowsF64(a, b, out []float64, k, n, i0, i1 int) {
	matMulTransBRows(a, b, out, k, n, i0, i1)
}

func matMulInt8RowsOf[T Float](a []T, w *Int8Matrix, bias, out []T, qbuf []int8, k, n, i0, i1 int) {
	matMulInt8Rows(a, w, bias, out, qbuf, k, n, i0, i1)
}

func addInPlaceF64(dst, src []float64) { addInPlace(dst, src) }

func adamUpdateF64(p, g, m, v []float64, c AdamCoeffs) { adamUpdate(p, g, m, v, c) }
