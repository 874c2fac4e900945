//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether x and y are the same value bit for bit —
// -0 is not +0, a denormal is not 0. Two NaNs count as equal: which
// payload survives NaN+NaN depends on operand order, which neither
// kernel defines.
func sameBits[T Float](x, y T) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
}

const canary = 12345.678

func isF64[T Float]() bool {
	_, ok := any(T(0)).(float64)
	return ok
}

// offset returns a length-n slice starting an odd number of elements
// into a larger canary-filled one, so the assembly sees loads and
// stores aligned to nothing and anything it writes outside the slice
// shows.
func offset[T Float](n int) (whole, s []T) {
	whole = make([]T, n+16)
	for i := range whole {
		whole[i] = canary
	}
	s = whole[5 : 5+n : 5+n]
	clear(s)
	return whole, s
}

func checkCanary[T Float](t *testing.T, whole []T, n int) {
	t.Helper()
	for i, v := range whole {
		if (i < 5 || i >= 5+n) && v != canary {
			t.Fatalf("kernel wrote outside out: element %d of the %d-long buffer (out is [5,%d))", i, len(whole), 5+n)
		}
	}
}

// simdOperands builds an [m,k] A and [k,n] B at odd offsets that hit
// what a vector kernel could get wrong: in A, rows with a zero at each
// position of every 4-group, a row of mixed ±0, a denormal and a huge
// entry; with inf set, B's rows opposite an all-zero column of A hold
// ±Inf and NaN, which a zero skip must keep out of the result and which
// a kernel without one must turn into NaN.
func simdOperands[T Float](rng *rand.Rand, m, k, n int, inf bool) (a, b []T) {
	_, a = offset[T](m * k)
	_, b = offset[T](k * n)
	tiny := T(math.SmallestNonzeroFloat32)
	if isF64[T]() {
		tiny = T(math.SmallestNonzeroFloat64)
	}
	for i := range a {
		a[i] = T(rng.NormFloat64())
	}
	for i := range b {
		b[i] = T(rng.NormFloat64())
	}
	for i := 0; i < m; i++ {
		row := a[i*k : (i+1)*k]
		switch i % 7 {
		case 0, 1, 2, 3: // a zero at position i%4 of every group
			for l := i % 4; l < k; l += 4 {
				row[l] = 0
			}
		case 4: // ±0 alternating: every term skipped at f64
			for l := range row {
				row[l] = T(math.Copysign(0, float64(l%2)-0.5))
			}
		case 5: // denormal and huge entries
			for l := range row {
				if l%3 == 0 {
					row[l] = tiny * T(1+l)
				} else if l%3 == 1 {
					row[l] *= 1e30
				}
			}
		}
	}
	if k*n > 0 {
		b[rng.Intn(k*n)] = tiny
	}
	if inf && k > 1 {
		l := k / 2
		for i := 0; i < m; i++ {
			a[i*k+l] = T(math.Copysign(0, float64(i%2)-0.5))
		}
		for j := 0; j < n; j++ {
			b[l*n+j] = T([]float64{math.Inf(1), math.Inf(-1), math.NaN()}[j%3])
		}
	}
	return a, b
}

// simdShapes is shapes plus every n in 1…35 crossed with every k in
// 1…9: each vector width of both element types, the edge of the 4-l
// group, and every length of tail. Each runs at 2, 5, 9 and 14 rows,
// which testRowsMatch splits into calls of 1, 2 and 3, 4 and 5, and 7
// and 7 rows: every way a row range can end.
func simdShapes() []struct{ m, k, n int } {
	all := append([]struct{ m, k, n int }{}, shapes...)
	for n := 1; n <= 35; n++ {
		for k := 1; k <= 9; k++ {
			for _, m := range []int{2, 5, 9, 14} {
				all = append(all, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return all
}

// testRowsMatch runs one a @ b product through the pure-Go kernel and
// through the assembly-backed one (in two row ranges) and compares
// every output bit. skips says whether the kernel skips zero entries of
// A: then the ±Inf/NaN opposite an all-zero column of A must not reach
// the result; otherwise 0·Inf must make every element NaN.
func testRowsMatch[T Float](t *testing.T, name string, skips bool, pure, simd func(a, b, out []T, k, n, i0, i1 int)) {
	rng := rand.New(rand.NewSource(24))
	for _, sh := range simdShapes() {
		for _, inf := range []bool{false, true} {
			a, b := simdOperands[T](rng, sh.m, sh.k, sh.n, inf)
			_, want := offset[T](sh.m * sh.n)
			whole, got := offset[T](sh.m * sh.n)
			pure(a, b, want, sh.k, sh.n, 0, sh.m)
			simd(a, b, got, sh.k, sh.n, 0, sh.m/2)
			simd(a, b, got, sh.k, sh.n, sh.m/2, sh.m)
			checkCanary(t, whole, sh.m*sh.n)
			for i := range want {
				if !sameBits(want[i], got[i]) {
					t.Fatalf("%s [%dx%d @ %dx%d] inf=%v: element (%d,%d) = %v (%#x), pure Go %v (%#x)", name,
						sh.m, sh.k, sh.k, sh.n, inf, i/sh.n, i%sh.n, got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
				}
				if isNaN := got[i] != got[i]; inf && sh.k > 1 && isNaN == skips {
					if skips {
						t.Fatalf("%s [%dx%d @ %dx%d]: NaN at (%d,%d): a skipped term was added", name, sh.m, sh.k, sh.k, sh.n, i/sh.n, i%sh.n)
					}
					t.Fatalf("%s [%dx%d @ %dx%d]: (%d,%d) = %v, not NaN: 0·Inf was skipped", name, sh.m, sh.k, sh.k, sh.n, i/sh.n, i%sh.n, got[i])
				}
			}
		}
	}
}

// TestSIMDMatchesPureGo is the contract of simd_amd64.s: at eps = 0,
// and to the sign of zero, every assembly-backed row kernel returns
// what the pure-Go kernel it stands in for returns.
func TestSIMDMatchesPureGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the pure-Go kernels are the ones running")
	}
	// a^T @ b takes A as [k,m]; transposing the generated [m,k] operand
	// keeps its zero patterns opposite the same B rows.
	transA := func(rows func(a, b, out []float64, k, m, n, i0, i1 int)) func(a, b, out []float64, k, n, i0, i1 int) {
		return func(a, b, out []float64, k, n, i0, i1 int) {
			m := 0
			if k > 0 {
				m = len(a) / k
			}
			_, at := offset[float64](k * m)
			for i := 0; i < m; i++ {
				for l := 0; l < k; l++ {
					at[l*m+i] = a[i*k+l]
				}
			}
			rows(at, b, out, k, m, n, i0, i1)
		}
	}
	// a @ b^T takes B as [n,k]; likewise transposed, so B's ±Inf/NaN row
	// becomes a column opposite A's zero column.
	transB := func(rows func(a, b, out []float64, k, n, i0, i1 int)) func(a, b, out []float64, k, n, i0, i1 int) {
		return func(a, b, out []float64, k, n, i0, i1 int) {
			_, bt := offset[float64](n * k)
			for l := 0; l < k; l++ {
				for j := 0; j < n; j++ {
					bt[j*k+l] = b[l*n+j]
				}
			}
			rows(a, bt, out, k, n, i0, i1)
		}
	}
	testRowsMatch(t, "matMulRows", true, matMulRows, matMulRowsAVX2)
	testRowsMatch(t, "matMulF32Rows", false, matMulF32Rows, matMulF32RowsAVX2)
	testRowsMatch(t, "matMulTransARows", true, transA(matMulTransARows), transA(matMulTransARowsAVX2))
	testRowsMatch(t, "matMulTransBRows", false, transB(matMulTransBRows), transB(matMulTransBRowsF64))
	// The int8 product at k%16 of 1, 7 and 15 (its masked last step;
	// NodeProj's k is 159 at Dim 128) and channel counts ≡ 1–3 mod 4
	// (its one-channel epilogue).
	rng := rand.New(rand.NewSource(54))
	for _, k := range []int{17, 23, 31, 39, 47, 159} {
		for _, n := range []int{1, 2, 3, 5, 6, 7, 129, 130, 131} {
			for _, f := range int8Fills(rng) {
				checkInt8(t, rng, f.name, f.at, k, n)
			}
		}
	}
}

// elementwiseLengths are the row lengths the elementwise kernels are
// checked at: every length of vector trip and tail, and one long row.
func elementwiseLengths() []int {
	ns := []int{4099}
	for n := 0; n <= 35; n++ {
		ns = append(ns, n)
	}
	return ns
}

// specialOr returns, one time in four, one of ±0, a subnormal of either
// sign, ±Inf or NaN, and x otherwise.
func specialOr(rng *rand.Rand, x float64) float64 {
	specials := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return x
}

// filled returns an unaligned, canary-guarded row of length n (see
// offset) holding gen's values, and a plain copy of them.
func filled(n int, gen func() float64) (whole, s, plain []float64) {
	whole, s = offset[float64](n)
	for i := range s {
		s[i] = gen()
	}
	return whole, s, append([]float64(nil), s...)
}

func checkRow(t *testing.T, what string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s, length %d: element %d = %v (%#x), pure Go %v (%#x)", what, n, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSIMDAddInPlaceMatchesPureGo: the AVX2 float64 accumulation is
// addInPlace bit for bit, specials in both operands included.
func TestSIMDAddInPlaceMatchesPureGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the pure-Go kernels are the ones running")
	}
	rng := rand.New(rand.NewSource(30))
	gen := func() float64 { return specialOr(rng, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-6))) }
	for _, n := range elementwiseLengths() {
		wholeDst, dst, want := filled(n, gen)
		wholeSrc, src, srcCopy := filled(n, gen)
		addInPlace(want, srcCopy)
		addInPlaceF64(dst, src)
		checkCanary(t, wholeDst, n)
		checkCanary(t, wholeSrc, n)
		checkRow(t, "dst", n, dst, want)
		checkRow(t, "src", n, src, srcCopy)
	}
}

// TestSIMDAdamMatchesPureGo: the AVX2 Adam step is adamUpdate bit for
// bit — parameter and both moments — at the first step and far past
// bias correction, clipped and unclipped, with ±0, subnormals, ±Inf and
// NaN in the gradient and the moments (a negative second moment
// included, whose square root is NaN on both sides). An FMA anywhere in
// the chain rounds once where Go rounds twice and fails it.
func TestSIMDAdamMatchesPureGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the pure-Go kernels are the ones running")
	}
	rng := rand.New(rand.NewSource(31))
	decade := func() float64 { return math.Pow(10, float64(rng.Intn(8)-6)) }
	for _, steps := range []float64{1, 1e6} {
		for _, scale := range []float64{1, 0.37} {
			c := AdamCoeffs{
				Scale: scale, LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
				B1C: 1 - math.Pow(0.9, steps), B2C: 1 - math.Pow(0.999, steps),
			}
			for _, n := range elementwiseLengths() {
				wp, p, wantP := filled(n, func() float64 { return rng.NormFloat64() * 0.1 })
				wg, g, wantG := filled(n, func() float64 { return specialOr(rng, rng.NormFloat64()*decade()) })
				wm, m, wantM := filled(n, func() float64 { return specialOr(rng, rng.NormFloat64()*decade()) })
				wv, v, wantV := filled(n, func() float64 { return specialOr(rng, rng.ExpFloat64()*decade()*decade()) })
				if n > 0 {
					v[n/2], wantV[n/2] = -1e-9, -1e-9
				}
				adamUpdate(wantP, wantG, wantM, wantV, c)
				adamUpdateF64(p, g, m, v, c)
				for _, w := range [][]float64{wp, wg, wm, wv} {
					checkCanary(t, w, n)
				}
				what := func(s string) string { return fmt.Sprintf("%s (steps %g, scale %g)", s, steps, scale) }
				checkRow(t, what("p"), n, p, wantP)
				checkRow(t, what("m"), n, m, wantM)
				checkRow(t, what("v"), n, v, wantV)
				checkRow(t, what("g"), n, g, wantG)
			}
		}
	}
}

// int8Fills are the weight patterns the int8 checks run: saturated
// rows (all +127, all -127, alternating), where the int32 lanes carry
// their largest sums, and random codes.
func int8Fills(rng *rand.Rand) []struct {
	name string
	at   func(i int) int8
} {
	return []struct {
		name string
		at   func(i int) int8
	}{
		{"+127", func(int) int8 { return 127 }},
		{"-127", func(int) int8 { return -127 }},
		{"alternating", func(i int) int8 { return int8(127 - 254*(i%2)) }},
		{"random", func(int) int8 { return int8(rng.Intn(255) - 127) }},
	}
}

// checkInt8 runs one [3,k] @ int8[n,k] product through matMulInt8Rows
// and, in two row ranges, through matMulInt8RowsAVX2, and compares the
// codes and every output bit — quantizer included, so codes, scale and
// the fused dequantization all have to agree.
func checkInt8(t *testing.T, rng *rand.Rand, name string, fill func(int) int8, k, n int) {
	t.Helper()
	const m = 3
	w := &Int8Matrix{Data: make([]int8, n*k), Scales: make([]float32, n), Out: n, In: k}
	for i := range w.Data {
		w.Data[i] = fill(i)
	}
	for j := range w.Scales {
		w.Scales[j] = float32(0.001 + rng.Float64())
	}
	_, a := offset[float32](m * k)
	for i := range a {
		// Row 0 quantizes to the fill pattern itself; the others are
		// ordinary activations.
		if i < k {
			a[i] = float32(fill(i)) / 3
		} else {
			a[i] = float32(rng.NormFloat64())
		}
	}
	_, bias := offset[float32](n)
	for j := range bias {
		bias[j] = float32(rng.NormFloat64())
	}
	_, want := offset[float32](m * n)
	whole, got := offset[float32](m * n)
	qWant, qGot := make([]int8, m*k), make([]int8, m*k+1)
	matMulInt8Rows(a, w, bias, want, qWant, k, n, 0, m)
	matMulInt8RowsAVX2(a, w, bias, got, qGot[1:], k, n, 0, 1)
	matMulInt8RowsAVX2(a, w, bias, got, qGot[1:], k, n, 1, m)
	checkCanary(t, whole, m*n)
	for i := range qWant {
		if qWant[i] != qGot[1+i] {
			t.Fatalf("%s k=%d n=%d: code %d = %d, scalar %d", name, k, n, i, qGot[1+i], qWant[i])
		}
	}
	for i := range want {
		if !sameBits(want[i], got[i]) {
			t.Fatalf("%s k=%d n=%d: element (%d,%d) = %v, scalar %v", name, k, n, i/n, i%n, got[i], want[i])
		}
	}
}

// TestSIMDInt8MatchesScalar checks the int8 path against the scalar
// accumulator at k = 512, where the saturated rows' sums are largest,
// k below one 16-byte step (the Go kernel), k with every kind of
// remainder, and channel counts on both sides of the 4-channel group.
func TestSIMDInt8MatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the pure-Go kernels are the ones running")
	}
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{512, 1, 5, 15, 16, 17, 31, 40, 100, 130} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 67, 130} {
			for _, f := range int8Fills(rng) {
				checkInt8(t, rng, f.name, f.at, k, n)
			}
		}
	}
}

// TestSIMDQuantizerMatchesScalar feeds the vector quantizer the rows
// where rounding could part ways with QuantizeRowInt8: exact .5 ties of
// both signs, ±0, denormals, ±Inf, NaN, a maximum at either end, and
// plain random rows over nine decades.
func TestSIMDQuantizerMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the pure-Go kernels are the ones running")
	}
	rng := rand.New(rand.NewSource(9))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rows := [][]float32{
		make([]float32, 8), // all zero: scale 1
		{127, 0.5, -0.5, 1.5, -1.5, 2.5, -126.5, 126.5},
		{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1e-40, -1, 1, 0.25},
		{inf, 1, -1, 0, 2, -2, 3, -3},
		{1, -inf, 2, 3, 4, 5, 6, 7},
		{nan, 1, -1, 0.5, -0.5, 100, -100, nan},
		{nan, nan, nan, nan, nan, nan, nan, nan},
		{-3e38, 3e38, 1e38, -1e38, 0, 1, 2, 3},
	}
	for trial := 0; trial < 200; trial++ {
		row := make([]float32, 8*(1+rng.Intn(70)))
		scale := math.Pow(10, float64(rng.Intn(9)-4))
		for i := range row {
			row[i] = float32(rng.NormFloat64() * scale)
		}
		rows = append(rows, row)
	}
	for r, row := range rows {
		_, in := offset[float32](len(row))
		copy(in, row)
		want, got := make([]int8, len(row)), make([]int8, len(row)+4)
		for i := range got {
			got[i] = 99
		}
		ws := QuantizeRowInt8(in, want)
		gs := quantizeRowAVX2(in, got[3:3+len(row)])
		if !sameBits(ws, gs) {
			t.Fatalf("row %d: scale %v, scalar %v", r, gs, ws)
		}
		for i := range want {
			if want[i] != got[3+i] {
				t.Fatalf("row %d: code %d (%v) = %d, scalar %d", r, i, row[i], got[3+i], want[i])
			}
		}
		if got[0] != 99 || got[1] != 99 || got[2] != 99 || got[len(got)-1] != 99 {
			t.Fatalf("row %d: quantizer wrote outside q", r)
		}
	}
}
