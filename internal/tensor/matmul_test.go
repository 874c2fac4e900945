package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refMatMul is the straightforward (i, l, j) kernel the seed shipped
// with — the reference the blocked/parallel kernels must match
// bitwise (identical per-element accumulation order).
func refMatMul[T Float](a, b *Dense[T]) *Dense[T] {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := NewOf[T](m, n)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			av := a.Data[i*k+l]
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[l*n+j]
			}
		}
	}
	return out
}

// mm, mmTB and mmTA run the destination-taking float64 products into
// fresh tensors.
func mm(a, b *Tensor) *Tensor {
	out := New(a.Rows(), b.Cols())
	MatMulInto(a, b, out)
	return out
}

func mmTB(a, b *Tensor) *Tensor {
	out := New(a.Rows(), b.Rows())
	MatMulTransBInto(a, b, out)
	return out
}

func mmTA(a, b *Tensor) *Tensor {
	out := New(a.Cols(), b.Cols())
	MatMulTransAInto(a, b, out)
	return out
}

func refMatMulTransB(a, b *Tensor) *Tensor {
	return refMatMul(a, Transpose(b))
}

func refMatMulTransA(a, b *Tensor) *Tensor {
	return refMatMul(Transpose(a), b)
}

// shapes covers the edge cases: empty, scalar-ish, ragged, prime
// dimensions straddling the block sizes, tall/wide extremes, and
// a size large enough to cross the parallel threshold (serialFlops).
var shapes = []struct{ m, k, n int }{
	{0, 3, 4}, {3, 0, 4}, {1, 1, 1}, {2, 3, 1}, {1, 7, 5},
	{3, 5, 7}, {13, 17, 11}, {64, 64, 64}, {127, 129, 63},
	{1, 300, 1}, {300, 1, 300}, {200, 70, 3},
	{130, 140, 150}, {256, 64, 128}, {190, 170, 180},
}

// TestShapesCrossParallelThreshold keeps the serial == sharded tests
// honest when serialFlops moves.
func TestShapesCrossParallelThreshold(t *testing.T) {
	for _, sh := range shapes {
		if sh.m*sh.k*sh.n > serialFlops {
			return
		}
	}
	t.Fatal("no shape in shapes is sharded: the serial == sharded tests compare a kernel with itself")
}

func randPair(rng *rand.Rand, m, k, n int) (*Tensor, *Tensor) {
	return RandNorm(rng, m, k, 1), RandNorm(rng, k, n, 1)
}

func TestMatMulParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		a, b := randPair(rng, sh.m, sh.k, sh.n)
		SetParallelism(1)
		serial := mm(a, b)
		SetParallelism(8)
		par := mm(a, b)
		SetParallelism(0)
		if !Equal(serial, par, 0) {
			t.Fatalf("[%dx%d @ %dx%d] parallel result differs from serial", sh.m, sh.k, sh.k, sh.n)
		}
		if !Equal(serial, refMatMul(a, b), 0) {
			t.Fatalf("[%dx%d @ %dx%d] blocked kernel differs from reference", sh.m, sh.k, sh.k, sh.n)
		}
	}
}

// testIntoWithinTierBitwise is the within-tier contract of the
// destination-taking dispatchers at one element type: serial ==
// sharded for both products, and a @ b == the ascending-l reference
// (the f32 a @ b^T dot uses a fixed four-way tree instead, so it has
// no reference row).
func testIntoWithinTierBitwise[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range shapes {
		a := Convert[T](RandNorm(rng, sh.m, sh.k, 1))
		b := Convert[T](RandNorm(rng, sh.k, sh.n, 1))
		bt := Convert[T](RandNorm(rng, sh.n, sh.k, 1))
		run := func(workers int) (mm, tb *Dense[T]) {
			defer SetParallelism(SetParallelism(workers))
			mm, tb = NewOf[T](sh.m, sh.n), NewOf[T](sh.m, sh.n)
			MatMulInto(a, b, mm)
			MatMulTransBInto(a, bt, tb)
			return mm, tb
		}
		mm1, tb1 := run(1)
		mm8, tb8 := run(8)
		if !Equal(mm1, mm8, 0) || !Equal(tb1, tb8, 0) {
			t.Fatalf("[%dx%dx%d] sharded result differs from serial", sh.m, sh.k, sh.n)
		}
		if !Equal(mm1, refMatMul(a, b), 0) {
			t.Fatalf("[%dx%d @ %dx%d] blocked kernel differs from reference", sh.m, sh.k, sh.k, sh.n)
		}
	}
}

func TestMatMulIntoWithinTierBitwise(t *testing.T) {
	t.Run("f64", testIntoWithinTierBitwise[float64])
	t.Run("f32", testIntoWithinTierBitwise[float32])
}

// TestMatMulF32NearFloat64 pins the cross-tier calibration bound at
// the kernel level: f32 against the float64 reference on the same
// inputs, relative error within ~1e-5 at transformer sizes.
func TestMatMulF32NearFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a64, b64 := randPair(rng, 64, 96, 48)
	out64 := mm(a64, b64)
	out32 := NewF32(64, 48)
	MatMulInto(Convert[float32](a64), Convert[float32](b64), out32)
	for i := range out64.Data {
		ref := out64.Data[i]
		got := float64(out32.Data[i])
		if math.Abs(got-ref) > 1e-4+1e-4*math.Abs(ref) {
			t.Fatalf("element %d: f32 %v vs f64 %v", i, got, ref)
		}
	}
}

func TestMatMulTransBParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range shapes {
		a := RandNorm(rng, sh.m, sh.k, 1)
		b := RandNorm(rng, sh.n, sh.k, 1)
		SetParallelism(1)
		serial := mmTB(a, b)
		SetParallelism(8)
		par := mmTB(a, b)
		SetParallelism(0)
		if !Equal(serial, par, 0) {
			t.Fatalf("[%dx%d @ (%dx%d)^T] parallel result differs from serial", sh.m, sh.k, sh.n, sh.k)
		}
		// Dot-product kernels share the ascending-l accumulation order
		// with the reference, so this too is exact.
		if !Equal(serial, refMatMulTransB(a, b), 0) {
			t.Fatalf("[%dx%d @ (%dx%d)^T] kernel differs from reference", sh.m, sh.k, sh.n, sh.k)
		}
	}
}

func TestMatMulTransAParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range shapes {
		a := RandNorm(rng, sh.k, sh.m, 1)
		b := RandNorm(rng, sh.k, sh.n, 1)
		SetParallelism(1)
		serial := mmTA(a, b)
		SetParallelism(8)
		par := mmTA(a, b)
		SetParallelism(0)
		if !Equal(serial, par, 0) {
			t.Fatalf("[(%dx%d)^T @ %dx%d] parallel result differs from serial", sh.k, sh.m, sh.k, sh.n)
		}
		if !Equal(serial, refMatMulTransA(a, b), 0) {
			t.Fatalf("[(%dx%d)^T @ %dx%d] kernel differs from reference", sh.k, sh.m, sh.k, sh.n)
		}
	}
}

func TestMatMulBatchMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	defer SetParallelism(SetParallelism(4))
	var as, bs []*Tensor
	for i := 0; i < 9; i++ {
		a, b := randPair(rng, 5+i, 8, 7)
		as = append(as, a)
		bs = append(bs, b)
	}
	got := make([]*Tensor, len(as))
	gotTB := make([]*Tensor, len(as))
	bts := make([]*Tensor, len(bs))
	for i, b := range bs {
		got[i] = New(as[i].Rows(), b.Cols())
		gotTB[i] = New(as[i].Rows(), b.Cols())
		bts[i] = Transpose(b)
	}
	MatMulBatchInto(as, bs, got)
	MatMulTransBBatchInto(as, bts, gotTB)
	for i := range as {
		if !Equal(got[i], mm(as[i], bs[i]), 0) {
			t.Fatalf("batch element %d differs", i)
		}
		if !Equal(gotTB[i], mmTB(as[i], bts[i]), 0) {
			t.Fatalf("transB batch element %d differs", i)
		}
	}
}

// TestMatMulConcurrentCallers exercises the kernels from many
// goroutines at once (the data-parallel training pattern) so the race
// detector can see any shared-state mistakes in the pool.
func TestMatMulConcurrentCallers(t *testing.T) {
	defer SetParallelism(SetParallelism(4))
	rng := rand.New(rand.NewSource(5))
	a, b := randPair(rng, 130, 140, 150)
	want := mm(a, b)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if !Equal(mm(a, b), want, 0) {
					t.Error("concurrent MatMul result differs")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMatMulM8 is the per-package guard on the three serving
// kernels at the wide model's feed-forward shape, [8,128] x [128,512],
// serial — the shape the repository benchmark reports as
// tensor.matmul_gflops.*.m8 — and on the float64 a @ bᵀ that backward's
// dOut @ Wᵀ runs, at [8,128] x [512,128]ᵀ (tensor.transb_gflops.f64.m8).
// Warm, with AVX2, f64 / f32 / int8 / transb-f64 read roughly
// 20 / 40 / 45 / 20 GFLOP/s; the pure-Go kernels (-tags purego)
// 3.5 / 6.5 / 2.5 / 3.
func BenchmarkMatMulM8(b *testing.B) {
	const m, k, n = 8, 128, 512
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(1))
	a64, b64 := randPair(rng, m, k, n)
	a32, b32 := Convert[float32](a64), Convert[float32](b64)
	bt64 := Transpose(b64)
	o64, o32 := New(m, n), NewF32(m, n)
	w8, bias, qbuf := QuantizeLinear(b64), NewF32(1, n), make([]int8, m*k)
	for _, bc := range []struct {
		name string
		f    func()
	}{
		{"f64", func() { clear(o64.Data); MatMulInto(a64, b64, o64) }},
		{"f32", func() { clear(o32.Data); MatMulInto(a32, b32, o32) }},
		{"int8", func() { MatMulInt8Into(a32, w8, bias, o32, qbuf) }},
		{"transb-f64", func() { MatMulTransBInto(a64, bt64, o64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.f()
			}
			b.ReportMetric(2*m*k*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
