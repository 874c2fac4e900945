package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

func TestLinearShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3)
	x := ag.Const(tensor.Rand(rng, 5, 4, 1))
	y := l.Forward(ag.Tape{}, x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("linear output shape %v", y.T.Shape)
	}
	rel := ag.GradCheck(l.Params(), func() *ag.Value {
		out := l.Forward(ag.Tape{}, x)
		return ag.SumAll(ag.Mul(out, out))
	}, 1e-6)
	if rel > 1e-5 {
		t.Fatalf("linear gradcheck rel err %g", rel)
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding(rng, 10, 6)
	out := e.Forward(ag.Tape{}, []int{3, 3, 7})
	if out.Rows() != 3 || out.Cols() != 6 {
		t.Fatalf("embedding shape %v", out.T.Shape)
	}
	for j := 0; j < 6; j++ {
		if out.T.At(0, j) != out.T.At(1, j) {
			t.Fatal("same id must produce same row")
		}
	}
}

func TestMLPDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, ActGELU, 4, 8, 8, 2)
	if len(m.Layers) != 3 {
		t.Fatalf("want 3 layers, got %d", len(m.Layers))
	}
	x := ag.Const(tensor.Rand(rng, 2, 4, 1))
	if y := m.Forward(ag.Tape{}, x); y.Cols() != 2 {
		t.Fatalf("mlp out shape %v", y.T.Shape)
	}
}

func TestMultiHeadAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMultiHeadAttention(rng, 8, 2)
	x := ag.Const(tensor.Rand(rng, 4, 8, 1))
	rel := ag.GradCheck(a.Params(), func() *ag.Value {
		out := a.Forward(ag.Tape{}, x, x, nil)
		return ag.SumAll(ag.Mul(out, out))
	}, 1e-6)
	if rel > 2e-5 {
		t.Fatalf("attention gradcheck rel err %g", rel)
	}
}

func TestAttentionMaskBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMultiHeadAttention(rng, 8, 2)
	// With a causal mask, output at position 0 must not depend on
	// later positions.
	x1 := tensor.Rand(rng, 3, 8, 1)
	x2 := x1.Clone()
	for j := 0; j < 8; j++ {
		x2.Set(2, j, x2.At(2, j)+5) // perturb the last position only
	}
	mask := CausalMask(3)
	o1 := a.Forward(ag.Tape{}, ag.Const(x1), ag.Const(x1), mask)
	o2 := a.Forward(ag.Tape{}, ag.Const(x2), ag.Const(x2), mask)
	for j := 0; j < 8; j++ {
		if math.Abs(o1.T.At(0, j)-o2.T.At(0, j)) > 1e-9 {
			t.Fatal("causal mask leaked future information into position 0")
		}
	}
}

func TestEncoderLayerGradAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewEncoderLayer(rng, 8, 2)
	x := ag.Const(tensor.Rand(rng, 3, 8, 1))
	y := l.Forward(ag.Tape{}, x, nil)
	if y.Rows() != 3 || y.Cols() != 8 {
		t.Fatalf("encoder layer shape %v", y.T.Shape)
	}
	// Grad-check a subset (full check is slow): first attention weight
	// and the FF output layer.
	sub := []*ag.Value{l.Attn.WQ.W, l.FF.Layers[1].W, l.LN1.Gamma}
	rel := ag.GradCheck(sub, func() *ag.Value {
		out := l.Forward(ag.Tape{}, x, nil)
		return ag.SumAll(ag.Mul(out, out))
	}, 1e-6)
	if rel > 5e-5 {
		t.Fatalf("encoder gradcheck rel err %g", rel)
	}
}

func TestDecoderLayerGradAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewDecoderLayer(rng, 8, 2)
	x := ag.Const(tensor.Rand(rng, 3, 8, 1))
	mem := ag.Const(tensor.Rand(rng, 5, 8, 1))
	y := l.Forward(ag.Tape{}, x, mem, CausalMask(3))
	if y.Rows() != 3 || y.Cols() != 8 {
		t.Fatalf("decoder layer shape %v", y.T.Shape)
	}
	sub := []*ag.Value{l.SelfAttn.WQ.W, l.CrossAttn.WK.W, l.FF.Layers[0].W}
	rel := ag.GradCheck(sub, func() *ag.Value {
		out := l.Forward(ag.Tape{}, x, mem, CausalMask(3))
		return ag.SumAll(ag.Mul(out, out))
	}, 1e-6)
	if rel > 5e-5 {
		t.Fatalf("decoder gradcheck rel err %g", rel)
	}
}

func TestEncoderStack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := NewEncoder(rng, 8, 2, 3)
	if len(e.Layers) != 3 {
		t.Fatal("wrong depth")
	}
	x := ag.Const(tensor.Rand(rng, 4, 8, 1))
	if y := e.Forward(ag.Tape{}, x, nil); y.Rows() != 4 {
		t.Fatal("stack changed seq length")
	}
}

func TestCausalMaskPattern(t *testing.T) {
	m := CausalMask(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if j > i {
				want = -1e9
			}
			if m.At(i, j) != want {
				t.Fatalf("mask[%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestTreePositionalEncoderDistinguishesPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	enc := NewTreePositionalEncoder(rng, 4, 8)
	paths := []TreePath{{}, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {1, 1}}
	out := enc.Forward(ag.Tape{}, paths)
	if out.Rows() != len(paths) {
		t.Fatal("wrong row count")
	}
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if tensor.Equal(tensor.Vector(out.T.Row(i)), tensor.Vector(out.T.Row(j)), 1e-9) {
				t.Fatalf("paths %v and %v encode identically", paths[i], paths[j])
			}
		}
	}
	// Raw features: root is all zeros, left child sets slot 0.
	root := enc.RawFeature(TreePath{})
	for _, v := range root {
		if v != 0 {
			t.Fatal("root raw feature must be zero")
		}
	}
	left := enc.RawFeature(TreePath{0})
	if left[0] != 1 || left[1] != 0 {
		t.Fatalf("left-child raw feature wrong: %v", left)
	}
}

// sqErr is the mean squared error between a and b.
func sqErr(a, b *ag.Value) *ag.Value {
	d := ag.Sub(a, b)
	return ag.MeanAll(ag.Mul(d, d))
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - c||^2; Adam should converge near c.
	rng := rand.New(rand.NewSource(10))
	w := ag.Param(tensor.Rand(rng, 1, 4, 1))
	c := ag.Const(tensor.FromSlice([]float64{1, -2, 3, 0.5}, 1, 4))
	opt := NewAdam([]*ag.Value{w}, 0.05)
	for i := 0; i < 400; i++ {
		opt.ZeroGrad()
		loss := sqErr(w, c)
		loss.Backward()
		opt.Step()
	}
	final := sqErr(w, c).Item()
	if final > 1e-3 {
		t.Fatalf("Adam failed to converge: loss %g", final)
	}
}

func TestAdamGradClipping(t *testing.T) {
	w := ag.Param(tensor.FromSlice([]float64{0}, 1, 1))
	opt := NewAdam([]*ag.Value{w}, 0.1)
	opt.ClipNorm = 1.0
	opt.ZeroGrad()
	loss := ag.Scale(w, 1e6) // gradient 1e6
	ag.SumAll(loss).Backward()
	if n := opt.GradNorm(); n < 1e5 {
		t.Fatalf("expected huge grad norm, got %g", n)
	}
	opt.Step()
	// After one clipped Adam step the parameter moves by about lr.
	if math.Abs(w.T.Data[0]) > 0.2 {
		t.Fatalf("clipping failed, param jumped to %g", w.T.Data[0])
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := NewEncoder(rng, 8, 2, 2)
	dst := NewEncoder(rand.New(rand.NewSource(99)), 8, 2, 2)
	var buf bytes.Buffer
	if err := WriteParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := loadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	x := ag.Const(tensor.Rand(rng, 3, 8, 1))
	y1 := src.Forward(ag.Tape{}, x, nil)
	y2 := dst.Forward(ag.Tape{}, x, nil)
	if !tensor.Equal(y1.T, y2.T, 1e-12) {
		t.Fatal("loaded model differs from saved model")
	}
}

func TestLoadShapeMismatchFails(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewLinear(rng, 4, 4)
	dst := NewLinear(rng, 4, 5)
	var buf bytes.Buffer
	if err := WriteParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := loadParams(&buf, dst.Params()); err == nil {
		t.Fatal("expected error on shape mismatch")
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewLinear(rng, 3, 3)
	b := NewLinear(rand.New(rand.NewSource(77)), 3, 3)
	if err := CopyParams(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(a.W.T, b.W.T, 0) {
		t.Fatal("CopyParams did not copy")
	}
}

// meanRows is the 1xN mean of the rows of h.
func meanRows(h *ag.Value) *ag.Value {
	return ag.Scale(ag.MatMul(ag.Const(tensor.Full(1, 1, h.Rows())), h), 1/float64(h.Rows()))
}

// End-to-end: a tiny encoder + head can fit a simple sequence
// classification rule, proving the whole substrate trains.
func TestEncoderLearnsToyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dim := 8
	emb := NewEmbedding(rng, 4, dim)
	enc := NewEncoder(rng, dim, 2, 1)
	head := NewLinear(rng, dim, 2)
	params := CollectParams(emb, enc, head)
	opt := NewAdam(params, 5e-3)

	// Task: label = whether token 3 appears anywhere in the sequence.
	sample := func() ([]int, int) {
		seq := make([]int, 5)
		label := 0
		for i := range seq {
			seq[i] = rng.Intn(4)
			if seq[i] == 3 {
				label = 1
			}
		}
		return seq, label
	}
	for step := 0; step < 300; step++ {
		seq, label := sample()
		opt.ZeroGrad()
		h := enc.Forward(ag.Tape{}, emb.Forward(ag.Tape{}, seq), nil)
		logits := head.Forward(ag.Tape{}, meanRows(h))
		loss := ag.CrossEntropyRows(logits, []int{label})
		loss.Backward()
		opt.Step()
	}
	correct := 0
	for i := 0; i < 100; i++ {
		seq, label := sample()
		h := enc.Forward(ag.Tape{}, emb.Forward(ag.Tape{}, seq), nil)
		logits := head.Forward(ag.Tape{}, meanRows(h))
		pred := 0
		if logits.T.At(0, 1) > logits.T.At(0, 0) {
			pred = 1
		}
		if pred == label {
			correct++
		}
	}
	if correct < 85 {
		t.Fatalf("encoder failed to learn toy task: %d/100 correct", correct)
	}
}
