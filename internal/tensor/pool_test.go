package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestPoolReuseAndZeroing(t *testing.T) {
	t.Run("f64", testPoolReuseAndZeroing[float64])
	t.Run("f32", testPoolReuseAndZeroing[float32])
}

func testPoolReuseAndZeroing[T Float](t *testing.T) {
	p := NewPool[T]()
	a := p.Get(3, 4)
	if a.Rows() != 3 || a.Cols() != 4 {
		t.Fatalf("shape %v", a.Shape)
	}
	for i := range a.Data {
		a.Data[i] = T(i + 1)
	}
	b := p.Get(3, 4) // distinct buffer: a is still live
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("pool handed out a live buffer twice")
	}
	if p.Live() != 2 {
		t.Fatalf("live = %d", p.Live())
	}
	p.Reset()
	c := p.Get(4, 3) // same element count, different shape: reuses a's buffer
	if &c.Data[0] != &a.Data[0] {
		t.Fatal("pool did not reuse the freed buffer")
	}
	if c.Rows() != 4 || c.Cols() != 3 {
		t.Fatalf("reused shape %v", c.Shape)
	}
	for i, v := range c.Data {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %g", i, v)
		}
	}
	p.GetUninit(3, 4)
	if p.Live() != 2 {
		t.Fatalf("live after Reset + 2 gets = %d", p.Live())
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	p := NewPool[float64]()
	warm := func() {
		for _, sh := range [][2]int{{4, 8}, {8, 8}, {1, 16}} {
			x := p.Get(sh[0], sh[1])
			x.Fill(1)
		}
		p.Reset()
	}
	warm()
	allocs := testing.AllocsPerRun(50, warm)
	if allocs > 0 {
		t.Fatalf("steady-state pool cycle allocates %.1f times", allocs)
	}
}

// TestIntoKernelsMatchAllocating asserts every Into kernel is bitwise
// identical (eps = 0) to its allocating twin on random inputs.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Rand(rng, 9, 13, 1)
	b := Rand(rng, 9, 13, 1)
	w := Rand(rng, 13, 5, 1)
	bt := Rand(rng, 4, 13, 1)
	bias := Rand(rng, 1, 13, 1)

	check := func(name string, want, got *Tensor) {
		t.Helper()
		if !Equal(want, got, 0) {
			t.Fatalf("%s: Into kernel diverges from allocating kernel", name)
		}
	}

	out := New(9, 13)
	AddInto(a, b, out)
	check("AddInto", Add(a, b), out)

	ScaleInto(a, -1.75, out)
	check("ScaleInto", Scale(a, -1.75), out)

	AddBiasInto(a, bias, out)
	want := New(9, 13)
	for i := 0; i < 9; i++ {
		for j := 0; j < 13; j++ {
			want.Set(i, j, a.At(i, j)+bias.Data[j])
		}
	}
	check("AddBiasInto", want, out)

	SoftmaxRowsInto(a, out)
	check("SoftmaxRowsInto", SoftmaxRows(a), out)

	// Aliased destination.
	aCopy := a.Clone()
	SoftmaxRowsInto(aCopy, aCopy)
	check("SoftmaxRowsInto aliased", SoftmaxRows(a), aCopy)

	mm := New(9, 5)
	MatMulInto(a, w, mm)
	check("MatMulInto", MatMul(a, w), mm)

	mtb := New(9, 4)
	MatMulTransBInto(a, bt, mtb)
	check("MatMulTransBInto", MatMulTransB(a, bt), mtb)

	outs := []*Tensor{New(9, 5), New(9, 5)}
	MatMulBatchInto([]*Tensor{a, b}, []*Tensor{w, w}, outs)
	check("MatMulBatchInto[0]", MatMul(a, w), outs[0])
	check("MatMulBatchInto[1]", MatMul(b, w), outs[1])

	touts := []*Tensor{New(9, 4), New(9, 4)}
	MatMulTransBBatchInto([]*Tensor{a, b}, []*Tensor{bt, bt}, touts)
	check("MatMulTransBBatchInto[0]", MatMulTransB(a, bt), touts[0])
	check("MatMulTransBBatchInto[1]", MatMulTransB(b, bt), touts[1])

}

// TestLayerNormAndActIntoKernels covers the normalization and
// activation Into kernels separately (their references are computed
// against the ag forward formulas in the ag package tests; here we
// only check aliasing and shape behavior plus determinism).
func TestLayerNormAndActIntoKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Rand(rng, 6, 10, 1)
	gamma := Rand(rng, 1, 10, 1)
	beta := Rand(rng, 1, 10, 1)

	out1 := New(6, 10)
	LayerNormRowsInto(a, gamma, beta, 1e-5, out1)
	aliased := a.Clone()
	LayerNormRowsInto(aliased, gamma, beta, 1e-5, aliased)
	if !Equal(out1, aliased, 0) {
		t.Fatal("LayerNormRowsInto aliased result differs")
	}

	for name, f := range map[string]func(a, out *Tensor){
		"ReLUInto":    ReLUInto[float64],
		"GELUInto":    GELUInto[float64],
		"TanhInto":    TanhInto[float64],
		"SigmoidInto": SigmoidInto[float64],
	} {
		fresh := New(6, 10)
		f(a, fresh)
		al := a.Clone()
		f(al, al)
		if !Equal(fresh, al, 0) {
			t.Fatalf("%s aliased result differs", name)
		}
	}
}

// TestElementwiseKernelsF32NearFloat64 runs every row-wise Into kernel
// at both element types on the same inputs: the f32 instantiation must
// track the float64 one within rounding.
func TestElementwiseKernelsF32NearFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a64 := RandNorm(rng, 9, 33, 2)
	g64, b64 := RandNorm(rng, 1, 33, 1), RandNorm(rng, 1, 33, 1)
	a32, g32, b32 := Convert[float32](a64), Convert[float32](g64), Convert[float32](b64)
	out64, out32 := New(9, 33), NewF32(9, 33)
	for _, k := range []struct {
		name string
		f64  func()
		f32  func()
		tol  float64
	}{
		{"softmax", func() { SoftmaxRowsInto(a64, out64) }, func() { SoftmaxRowsInto(a32, out32) }, 1e-5},
		{"logsoftmax", func() { LogSoftmaxRowsInto(a64, out64) }, func() { LogSoftmaxRowsInto(a32, out32) }, 1e-4},
		{"layernorm", func() { LayerNormRowsInto(a64, g64, b64, 1e-5, out64) }, func() { LayerNormRowsInto(a32, g32, b32, 1e-5, out32) }, 1e-4},
		{"gelu", func() { GELUInto(a64, out64) }, func() { GELUInto(a32, out32) }, 1e-5},
		{"relu", func() { ReLUInto(a64, out64) }, func() { ReLUInto(a32, out32) }, 1e-6},
		{"tanh", func() { TanhInto(a64, out64) }, func() { TanhInto(a32, out32) }, 1e-6},
		{"sigmoid", func() { SigmoidInto(a64, out64) }, func() { SigmoidInto(a32, out32) }, 1e-6},
		{"addbias", func() { AddBiasInto(a64, g64, out64) }, func() { AddBiasInto(a32, g32, out32) }, 1e-6},
	} {
		k.f64()
		k.f32()
		for i, want := range out64.Data {
			if math.Abs(float64(out32.Data[i])-want) > k.tol {
				t.Fatalf("%s element %d: f32 %v vs f64 %v", k.name, i, out32.Data[i], want)
			}
		}
	}
}

// TestF32TanhKernelsRoundOncePerElement pins what the chunked float32
// path of GELUInto / TanhInto (viaFloat64) must keep: every element is
// the float64 expression of that element rounded once, whatever side
// of a chunk boundary it falls on, with out aliasing a or not.
func TestF32TanhKernelsRoundOncePerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		a := Convert[float32](RandNorm(rng, 1, n, 3))
		gelu, tanh := NewF32(1, n), a.Clone()
		GELUInto(a, gelu)
		TanhInto(tanh, tanh)
		for i, v := range a.Data {
			x := float64(v)
			if want := float32(0.5 * x * (1 + math.Tanh(0.7978845608028654*(x+0.044715*x*x*x)))); gelu.Data[i] != want {
				t.Fatalf("n=%d: GELU element %d = %v, want %v", n, i, gelu.Data[i], want)
			}
			if want := float32(math.Tanh(x)); tanh.Data[i] != want {
				t.Fatalf("n=%d: aliased tanh element %d = %v, want %v", n, i, tanh.Data[i], want)
			}
		}
	}
}
