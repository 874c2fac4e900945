package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapesAndZeroInit(t *testing.T) {
	tt := New(3, 4)
	if tt.Rows() != 3 || tt.Cols() != 4 || tt.Size() != 12 {
		t.Fatalf("bad shape: %v", tt.Shape)
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At/Set roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 3 // Row is a view
	if m.At(1, 0) != 3 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestFromSliceAndVector(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if m.At(1, 1) != 5 {
		t.Fatalf("FromSlice layout wrong: %v", m.Data)
	}
	v := Vector([]float64{1, 2})
	if v.Rows() != 1 || v.Cols() != 2 {
		t.Fatal("Vector shape wrong")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.At(2, 1) != 6 {
		t.Fatal("FromRows wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	out := New(2, 2)
	if AddInto(a, b, out); out.Data[3] != 12 {
		t.Fatalf("AddInto wrong: %v", out.Data)
	}
	if SubInto(b, a, out); out.Data[0] != 4 {
		t.Fatalf("SubInto wrong: %v", out.Data)
	}
	if MulInto(a, b, out); out.Data[1] != 12 {
		t.Fatalf("MulInto wrong: %v", out.Data)
	}
	if ScaleInto(a, 2, out); out.Data[2] != 6 {
		t.Fatalf("ScaleInto wrong: %v", out.Data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := mm(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(c, want, 1e-12) {
		t.Fatalf("MatMul got %v want %v", c, want)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mm(New(2, 3), New(2, 3))
}

// Property: a @ bᵀ == a @ Transpose(b) and aᵀ @ b == Transpose(a) @ b.
func TestMatMulTransposeVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Rand(rng, m, k, 1)
		b := Rand(rng, n, k, 1)
		got := mmTB(a, b)
		want := mm(a, Transpose(b))
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMulTransB mismatch at %dx%dx%d", m, k, n)
		}
		c := Rand(rng, k, m, 1)
		d := Rand(rng, k, n, 1)
		got2 := mmTA(c, d)
		want2 := mm(Transpose(c), d)
		if !Equal(got2, want2, 1e-10) {
			t.Fatalf("MatMulTransA mismatch at %dx%dx%d", m, k, n)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(8), 1+rng.Intn(8)
		a := Rand(rng, m, n, 2)
		return Equal(Transpose(Transpose(a)), a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSumRowsAndSumAll(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := New(1, 3)
	SumRowsInto(a, s)
	if s.Rows() != 1 || s.Data[0] != 5 || s.Data[1] != 7 || s.Data[2] != 9 {
		t.Fatalf("SumRowsInto wrong: %v", s.Data)
	}
	if SumAll(a) != 21 {
		t.Fatal("SumAll wrong")
	}
}

// Property: softmax rows are valid probability distributions and
// invariant to per-row constant shifts.
func TestSoftmaxRowsProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(5), 1+rng.Intn(7)
		a := Rand(rng, m, n, 5)
		s := softmax(a)
		shifted := a.Clone()
		for i := 0; i < m; i++ {
			c := rng.Float64() * 10
			row := shifted.Row(i)
			for j := range row {
				row[j] += c
			}
		}
		s2 := softmax(shifted)
		for i := 0; i < m; i++ {
			var sum float64
			for _, v := range s.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return Equal(s, s2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// softmax runs SoftmaxRowsInto into a fresh tensor.
func softmax(a *Tensor) *Tensor {
	out := New(a.Shape...)
	SoftmaxRowsInto(a, out)
	return out
}

func TestSoftmaxStability(t *testing.T) {
	a := FromSlice([]float64{1000, 1001, 999}, 1, 3)
	s := softmax(a)
	if s.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestAddInPlaceAndScaleInPlace(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	b := FromSlice([]float64{3, 4}, 1, 2)
	a.AddInPlace(b)
	a.ScaleInPlace(2)
	if a.Data[0] != 8 || a.Data[1] != 12 {
		t.Fatalf("in-place ops wrong: %v", a.Data)
	}
}

func TestXavierBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := Xavier(rng, 16, 48)
	limit := math.Sqrt(6.0 / 64.0)
	for _, v := range w.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %v beyond limit %v", v, limit)
		}
	}
}

func TestHasNaN(t *testing.T) {
	a := New(1, 2)
	if a.HasNaN() {
		t.Fatal("zeros must not report NaN")
	}
	a.Data[1] = math.Inf(1)
	if !a.HasNaN() {
		t.Fatal("Inf must be reported")
	}
}

func TestFullAndFillZero(t *testing.T) {
	a := Full(2.5, 2, 2)
	if a.At(1, 1) != 2.5 {
		t.Fatal("Full wrong")
	}
	a.Fill(0)
	if SumAll(a) != 0 {
		t.Fatal("Fill(0) wrong")
	}
}
