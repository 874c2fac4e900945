// Package tensor provides dense matrices and the raw numeric kernels
// used by the autodiff engine in internal/ag. It is the lowest layer of
// the deep-learning substrate that substitutes for PyTorch in this
// reproduction (see DESIGN.md, substitution table).
//
// Tensors are row-major. Almost all of the model code works with rank-2
// tensors (matrices); vectors are represented as 1xN matrices.
//
// One dense type, Dense[T], serves both element types: Tensor
// (float64) is what training, checkpoints and the reference serving
// tier use; F32 (float32) is the storage of the reduced-precision
// serving tiers (DESIGN.md §9). The pool and every destination-taking
// ("Into") kernel are written once over T; the constructors in this
// file build float64 tensors.
//
// The matrix-multiply kernels live in matmul.go: they are
// cache-blocked and shard large products by output row across the
// package worker pool (see SetParallelism), while producing bitwise
// identical results at every parallelism level.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"unsafe"
)

// Float is the set of element types a Dense tensor can hold.
type Float interface{ ~float32 | ~float64 }

// Dense is a dense row-major tensor of T. The zero value is not
// usable; construct tensors with NewOf (or New / NewF32), Zeros,
// FromSlice, or Rand.
type Dense[T Float] struct {
	// Data holds the elements in row-major order.
	Data []T
	// Shape holds the extent of each dimension.
	Shape []int
}

// Tensor is the float64 tensor: the element type of training, of
// checkpoints, and of the reference serving tier.
type Tensor = Dense[float64]

// F32 is the float32 tensor of the reduced-precision serving tiers. It
// exists for serving only: a lowered model is always derived from
// float64 weights, never trained in f32.
type F32 = Dense[float32]

// NewOf creates a zero-initialized tensor of T with the given shape.
func NewOf[T Float](shape ...int) *Dense[T] {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", s))
		}
		n *= s
	}
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Dense[T]{Data: make([]T, n), Shape: sh}
}

// New creates a zero-initialized float64 tensor with the given shape.
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// NewF32 creates a zero-initialized float32 tensor with the given shape.
func NewF32(shape ...int) *F32 { return NewOf[float32](shape...) }

// Convert returns t at element type D. When D is already t's element
// type the result IS t (no copy): this is what lets the float64 tier
// serve straight from the trained tensors. Otherwise every element is
// converted, rounding to nearest (ties to even) when narrowing and
// exactly when widening.
func Convert[D, S Float](t *Dense[S]) *Dense[D] {
	if same, ok := any(t).(*Dense[D]); ok {
		return same
	}
	out := NewOf[D](t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = D(v)
	}
	return out
}

// ToTensor returns t as a float64 tensor (see Convert: exact, and t
// itself when it already is one).
func (t *Dense[T]) ToTensor() *Tensor { return Convert[float64](t) }

// Bytes returns the resident size of the tensor's payload in bytes.
func (t *Dense[T]) Bytes() int { return int(unsafe.Sizeof(T(0))) * len(t.Data) }

// Full creates a tensor filled with value v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice creates a rows x cols matrix from a flat row-major slice.
// The slice is copied.
func FromSlice(data []float64, rows, cols int) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	t := New(rows, cols)
	copy(t.Data, data)
	return t
}

// FromRows creates a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	t := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("tensor: FromRows ragged input")
		}
		copy(t.Data[i*c:(i+1)*c], r)
	}
	return t
}

// Vector creates a 1xN matrix from data (copied).
func Vector(data []float64) *Tensor { return FromSlice(append([]float64(nil), data...), 1, len(data)) }

// Rand creates a rows x cols matrix with entries drawn uniformly from
// [-scale, scale] using rng. A nil rng draws nothing and leaves the
// matrix zero: that is how the destination of a checkpoint load is
// built, whose every element the load overwrites.
func Rand(rng *rand.Rand, rows, cols int, scale float64) *Tensor {
	t := New(rows, cols)
	if rng == nil {
		return t
	}
	for i := range t.Data {
		t.Data[i] = (float64(rng.Float64())*2 - 1) * scale // rounds rand.Float64's inlined product before *2 (f+f)
	}
	return t
}

// RandNorm creates a rows x cols matrix with N(0, std) entries, or
// zeros for a nil rng (see Rand).
func RandNorm(rng *rand.Rand, rows, cols int, std float64) *Tensor {
	t := New(rows, cols)
	if rng == nil {
		return t
	}
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Xavier creates a rows x cols matrix with Glorot-uniform initialization.
func Xavier(rng *rand.Rand, rows, cols int) *Tensor {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	return Rand(rng, rows, cols, limit)
}

// Rows returns the first dimension extent (panics if not a matrix).
func (t *Dense[T]) Rows() int { t.mustMatrix(); return t.Shape[0] }

// Cols returns the second dimension extent (panics if not a matrix).
func (t *Dense[T]) Cols() int { t.mustMatrix(); return t.Shape[1] }

// Size returns the total number of elements.
func (t *Dense[T]) Size() int { return len(t.Data) }

func (t *Dense[T]) mustMatrix() {
	if len(t.Shape) != 2 {
		panic(notMatrixError(t.Shape))
	}
}

// notMatrixError is mustMatrix's panic value. Formatting the message
// lazily, outside the generic body, is what keeps Rows/Cols/Row/At/Set
// within the inliner's budget at every instantiation.
type notMatrixError []int

func (shape notMatrixError) Error() string {
	return fmt.Sprintf("tensor: expected matrix, got shape %v", []int(shape))
}

// At returns element (i, j) of a matrix.
func (t *Dense[T]) At(i, j int) T {
	t.mustMatrix()
	return t.Data[i*t.Shape[1]+j]
}

// Set assigns element (i, j) of a matrix.
func (t *Dense[T]) Set(i, j int, v T) {
	t.mustMatrix()
	t.Data[i*t.Shape[1]+j] = v
}

// Row returns a view (not a copy) of row i of a matrix.
func (t *Dense[T]) Row(i int) []T {
	t.mustMatrix()
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy.
func (t *Dense[T]) Clone() *Dense[T] {
	out := NewOf[T](t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// SameShape reports whether t and o have identical shapes.
func (t *Dense[T]) SameShape(o *Dense[T]) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Dense[T]) Fill(v T) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AddInPlace accumulates o into t elementwise.
func (t *Dense[T]) AddInPlace(o *Dense[T]) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	addInPlaceOf(t.Data, o.Data)
}

// addInPlaceOf picks the kernel for the element type, as matMulRowsOf
// does: the AVX2 one (where available) for float64.
func addInPlaceOf[T Float](dst, src []T) {
	switch d := any(dst).(type) {
	case []float64:
		addInPlaceF64(d, any(src).([]float64))
	default:
		addInPlace(dst, src)
	}
}

// addInPlace is AddInPlace's definition: dst[i] += src[i].
func addInPlace[T Float](dst, src []T) {
	for i, v := range src {
		dst[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Dense[T]) ScaleInPlace(s T) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Transpose returns the matrix transpose.
func Transpose(a *Tensor) *Tensor {
	a.mustMatrix()
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// SumAll returns the sum of all elements.
func SumAll(a *Tensor) float64 {
	var s float64
	for _, v := range a.Data {
		s += v
	}
	return s
}

// Equal reports whether two tensors have identical shape and all
// elements within eps of each other (eps = 0 asserts bitwise equality
// up to the sign of zero).
func Equal[T Float](a, b *Dense[T], eps float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i])-float64(b.Data[i])) > eps {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Dense[T]) String() string {
	if len(t.Shape) == 2 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor[%dx%d]", t.Shape[0], t.Shape[1])
		if t.Size() <= 64 {
			b.WriteString("{")
			for i := 0; i < t.Shape[0]; i++ {
				if i > 0 {
					b.WriteString("; ")
				}
				for j := 0; j < t.Shape[1]; j++ {
					if j > 0 {
						b.WriteString(" ")
					}
					fmt.Fprintf(&b, "%.4g", t.At(i, j))
				}
			}
			b.WriteString("}")
		}
		return b.String()
	}
	return fmt.Sprintf("Tensor%v(%d elems)", t.Shape, t.Size())
}

// HasNaN reports whether any element is NaN or ±Inf. nn.DecodeParams
// rejects such parameters at load: one non-finite weight turns every
// estimate served from it into NaN.
func (t *Dense[T]) HasNaN() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
	}
	return false
}
