package ag

import (
	"math"
	"math/rand"
	"testing"

	"mtmlf/internal/tensor"
)

const gradTol = 1e-5

// checkOp grad-checks a scalar loss built from the given parameters.
func checkOp(t *testing.T, name string, params []*Value, loss func() *Value) {
	t.Helper()
	if rel := GradCheck(params, loss, 1e-6); rel > gradTol {
		t.Fatalf("%s: max relative gradient error %g > %g", name, rel, gradTol)
	}
}

func randParam(rng *rand.Rand, r, c int) *Value {
	return Param(tensor.Rand(rng, r, c, 1))
}

func TestGradAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randParam(rng, 3, 4), randParam(rng, 3, 4)
	checkOp(t, "add", []*Value{a, b}, func() *Value { return SumAll(Add(a, b)) })
}

func TestGradSub(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randParam(rng, 2, 5), randParam(rng, 2, 5)
	checkOp(t, "sub", []*Value{a, b}, func() *Value { return SumAll(Mul(Sub(a, b), Sub(a, b))) })
}

func TestGradMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randParam(rng, 3, 3), randParam(rng, 3, 3)
	checkOp(t, "mul+scale", []*Value{a, b}, func() *Value { return SumAll(Scale(Mul(a, b), 1.7)) })
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randParam(rng, 3, 4), randParam(rng, 4, 2)
	checkOp(t, "matmul", []*Value{a, b}, func() *Value { return SumAll(Mul(MatMul(a, b), MatMul(a, b))) })
}

func TestGradMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randParam(rng, 3, 4), randParam(rng, 5, 4)
	checkOp(t, "matmulTB", []*Value{a, b}, func() *Value { return SumAll(Mul(MatMulTransB(a, b), MatMulTransB(a, b))) })
}

func TestGradAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randParam(rng, 4, 3), randParam(rng, 1, 3)
	checkOp(t, "addbias", []*Value{a, b}, func() *Value { return SumAll(Mul(AddBias(a, b), AddBias(a, b))) })
}

func TestGradNonlinearities(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct {
		name string
		f    func(*Value) *Value
	}{
		{"relu", ReLU},
		{"gelu", GELU},
		{"tanh", Tanh},
		{"sigmoid", Sigmoid},
		{"exp", Exp},
	} {
		a := randParam(rng, 3, 4)
		// Shift away from 0 for relu kinks.
		for i := range a.T.Data {
			if math.Abs(a.T.Data[i]) < 0.05 {
				a.T.Data[i] += 0.1
			}
		}
		f := tc.f
		checkOp(t, tc.name, []*Value{a}, func() *Value { return SumAll(Mul(f(a), f(a))) })
	}
}

func TestGradLogAbs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Param(tensor.Rand(rng, 2, 3, 1))
	for i := range a.T.Data {
		a.T.Data[i] = math.Abs(a.T.Data[i]) + 0.5 // keep positive for log
	}
	checkOp(t, "log", []*Value{a}, func() *Value { return SumAll(Log(a)) })
	b := randParam(rng, 2, 3)
	for i := range b.T.Data {
		if math.Abs(b.T.Data[i]) < 0.05 {
			b.T.Data[i] = 0.2
		}
	}
	checkOp(t, "abs", []*Value{b}, func() *Value { return SumAll(Abs(b)) })
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 3, 5)
	w := Const(tensor.Rand(rng, 3, 5, 1))
	checkOp(t, "softmax", []*Value{a}, func() *Value { return SumAll(Mul(SoftmaxRows(a), w)) })
}

func TestGradLogSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 4, 6)
	w := Const(tensor.Rand(rng, 4, 6, 1))
	checkOp(t, "logsoftmax", []*Value{a}, func() *Value { return SumAll(Mul(LogSoftmaxRows(a), w)) })
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 3, 6)
	gamma := Param(tensor.Full(1, 1, 6))
	beta := Param(tensor.New(1, 6))
	w := Const(tensor.Rand(rng, 3, 6, 1))
	checkOp(t, "layernorm", []*Value{a, gamma, beta}, func() *Value {
		return SumAll(Mul(LayerNormRows(a, gamma, beta, 1e-5), w))
	})
}

func TestGradConcatSliceGather(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b := randParam(rng, 2, 4), randParam(rng, 3, 4)
	checkOp(t, "concatrows+slice", []*Value{a, b}, func() *Value {
		c := ConcatRows(a, b)
		return SumAll(Mul(SliceRows(c, 1, 4), SliceRows(c, 1, 4)))
	})
	c, d := randParam(rng, 3, 2), randParam(rng, 3, 3)
	checkOp(t, "concatcols", []*Value{c, d}, func() *Value {
		return SumAll(Mul(ConcatCols(c, d), ConcatCols(c, d)))
	})
	w := randParam(rng, 5, 3)
	idx := []int{0, 2, 2, 4}
	checkOp(t, "gather", []*Value{w}, func() *Value {
		g := Gather(w, idx)
		return SumAll(Mul(g, g))
	})
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	logits := randParam(rng, 4, 5)
	targets := []int{1, 0, 4, 2}
	checkOp(t, "crossentropy", []*Value{logits}, func() *Value {
		return CrossEntropyRows(logits, targets)
	})
}

func TestGradTwoLayerMLPComposite(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := Const(tensor.Rand(rng, 4, 3, 1))
	w1 := randParam(rng, 3, 8)
	b1 := randParam(rng, 1, 8)
	w2 := randParam(rng, 8, 2)
	b2 := randParam(rng, 1, 2)
	target := []int{0, 1, 1, 0}
	checkOp(t, "mlp", []*Value{w1, b1, w2, b2}, func() *Value {
		h := GELU(AddBias(MatMul(x, w1), b1))
		logits := AddBias(MatMul(h, w2), b2)
		return CrossEntropyRows(logits, target)
	})
}

func TestBackwardAccumulatesSharedNode(t *testing.T) {
	// y = a + a; dy/da must be 2 at every entry.
	a := Param(tensor.FromSlice([]float64{1, 2}, 1, 2))
	l := SumAll(Add(a, a))
	l.Backward()
	if a.Grad.Data[0] != 2 || a.Grad.Data[1] != 2 {
		t.Fatalf("shared-node grad wrong: %v", a.Grad.Data)
	}
}

func TestConstGetsNoGrad(t *testing.T) {
	c := Const(tensor.FromSlice([]float64{1, 2}, 1, 2))
	p := Param(tensor.FromSlice([]float64{3, 4}, 1, 2))
	l := SumAll(Mul(c, p))
	l.Backward()
	if c.Grad != nil {
		t.Fatal("constants must not accumulate gradients")
	}
	if p.Grad == nil || p.Grad.Data[0] != 1 || p.Grad.Data[1] != 2 {
		t.Fatalf("param grad wrong: %v", p.Grad)
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-scalar Backward")
		}
	}()
	Param(tensor.New(2, 2)).Backward()
}

func TestCrossEntropyMatchesManual(t *testing.T) {
	logits := Param(tensor.FromSlice([]float64{1, 2, 3, 0.5, 0.5, 0.5}, 2, 3))
	l := CrossEntropyRows(logits, []int{2, 0})
	// Row 1: -log softmax(3 | [1,2,3]); Row 2: -log(1/3).
	z1 := math.Exp(1) + math.Exp(2) + math.Exp(3)
	want := (-math.Log(math.Exp(3)/z1) + math.Log(3)) / 2
	if math.Abs(l.Item()-want) > 1e-10 {
		t.Fatalf("cross entropy got %v want %v", l.Item(), want)
	}
}

func TestItemPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Param(tensor.New(2, 2)).Item()
}

func TestSoftmaxGradSumsToZero(t *testing.T) {
	// Because softmax outputs sum to 1, gradients through a softmax row
	// must sum to ~0 for any incoming gradient.
	rng := rand.New(rand.NewSource(18))
	a := randParam(rng, 1, 6)
	w := Const(tensor.Rand(rng, 1, 6, 1))
	l := SumAll(Mul(SoftmaxRows(a), w))
	l.Backward()
	var s float64
	for _, v := range a.Grad.Data {
		s += v
	}
	if math.Abs(s) > 1e-10 {
		t.Fatalf("softmax input grad sums to %g, want 0", s)
	}
}
