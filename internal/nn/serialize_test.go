package nn

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/tensor"
)

func randParams(seed int64, shapes ...[2]int) []*ag.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*ag.Value, len(shapes))
	for i, s := range shapes {
		out[i] = ag.Param(tensor.RandNorm(rng, s[0], s[1], 1))
	}
	return out
}

// loadParams reads a tensor-record stream of exactly len(params)
// tensors into params.
func loadParams(r io.Reader, params []*ag.Value) error {
	pr, err := NewParamReader(r, "test", len(params))
	if err != nil {
		return err
	}
	return pr.ReadInto(params)
}

func snapshotData(params []*ag.Value) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = slices.Clone(p.T.Data)
	}
	return out
}

// TestLoadRejectsShapeMismatch: a transposed tensor has the right
// count, rank and frame length, so it gets as far as the extents check
// — and fails there, before one of its elements is written. The tensor
// before it verified and has landed.
func TestLoadRejectsShapeMismatch(t *testing.T) {
	src := randParams(1, [2]int{3, 4}, [2]int{2, 5})
	var buf bytes.Buffer
	if err := WriteParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := randParams(2, [2]int{3, 4}, [2]int{5, 2}) // same size, wrong shape
	before := snapshotData(dst)
	err := loadParams(&buf, dst)
	if err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("want shape mismatch error, got %v", err)
	}
	if !slices.Equal(dst[1].T.Data, before[1]) {
		t.Fatal("a tensor that failed validation was written")
	}
	if !slices.Equal(dst[0].T.Data, src[0].T.Data) {
		t.Fatal("the tensor before the failure did not land")
	}
}

// TestLoadMismatchesAreDistinct: count, frame length, rank and extents
// are four checks with four errors, and the frame-length one — the only
// one a flipped bit can reach — is the typed corruption error, raised
// before the payload is read.
func TestLoadMismatchesAreDistinct(t *testing.T) {
	save := func(params []*ag.Value) *bytes.Buffer {
		var buf bytes.Buffer
		if err := WriteParams(&buf, params); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	rank1 := ag.Param(&tensor.Tensor{Shape: []int{128}, Data: make([]float64, 128)})
	var ce *ckptio.CorruptError
	for _, tc := range []struct {
		name    string
		src     []*ag.Value
		dst     []*ag.Value
		want    string
		corrupt bool
	}{
		{"count", randParams(1, [2]int{2, 2}), randParams(2, [2]int{2, 2}, [2]int{2, 2}), "count mismatch", false},
		{"length", randParams(1, [2]int{3, 4}), randParams(2, [2]int{3, 5}), "section length", true},
		// [128] and [2, 64] both take a 3-byte shape prefix and 1024
		// payload bytes: only the rank tells them apart.
		{"rank", []*ag.Value{rank1}, randParams(2, [2]int{2, 64}), "rank mismatch", false},
		{"shape", randParams(1, [2]int{3, 4}), randParams(2, [2]int{4, 3}), "shape mismatch", false},
	} {
		err := loadParams(save(tc.src), tc.dst)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
		if errors.As(err, &ce) != tc.corrupt {
			t.Fatalf("%s: *ckptio.CorruptError = %v, want %v (%v)", tc.name, !tc.corrupt, tc.corrupt, err)
		}
	}
	// The length check reads nothing past the frame header.
	buf := save(randParams(1, [2]int{3, 4}))
	r := bytes.NewReader(buf.Bytes())
	pr, err := NewParamReader(r, "test", 1)
	if err != nil {
		t.Fatal(err)
	}
	left := r.Len()
	if _, err := pr.Next([]int{3, 5}); err == nil {
		t.Fatal("Next accepted a frame of the wrong length")
	}
	if read := left - r.Len(); read != 8 {
		t.Fatalf("a frame of the wrong length cost %d bytes of reading, want its 8-byte header only", read)
	}
}

// TestLoadRejectsNonFinite: a well-formed record holding NaN or ±Inf
// (a diverged training run saved faithfully) must fail with
// ErrNonFinite before one element of that tensor is written.
func TestLoadRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7FF0000000000001)} {
		src := randParams(1, [2]int{3, 4}, [2]int{2, 5})
		src[1].T.Data[7] = bad
		var buf bytes.Buffer
		if err := WriteParams(&buf, src); err != nil {
			t.Fatal(err)
		}
		dst := randParams(2, [2]int{3, 4}, [2]int{2, 5})
		before := snapshotData(dst)
		err := loadParams(&buf, dst)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%v weight: want ErrNonFinite, got %v", bad, err)
		}
		if !slices.Equal(dst[1].T.Data, before[1]) {
			t.Fatalf("%v weight: the tensor holding it was written", bad)
		}
	}
}

// TestLoadRejectsCountMismatch: a stream announcing another number of
// tensors fails before any destination is written.
func TestLoadRejectsCountMismatch(t *testing.T) {
	src := randParams(1, [2]int{2, 2})
	var buf bytes.Buffer
	if err := WriteParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := randParams(2, [2]int{2, 2}, [2]int{2, 2})
	before := snapshotData(dst)
	err := loadParams(&buf, dst)
	if err == nil || !strings.Contains(err.Error(), "count mismatch") {
		t.Fatalf("want count mismatch error, got %v", err)
	}
	if !slices.Equal(dst[0].T.Data, before[0]) {
		t.Fatal("a count mismatch wrote a tensor")
	}
}

// TestSaveLoadRoundTripBitwise: tensor records carry float64 bit
// patterns, so a round trip must be exact, not just close — including
// the values a lossy codec would fold together.
func TestSaveLoadRoundTripBitwise(t *testing.T) {
	src := randParams(3, [2]int{4, 4}, [2]int{1, 7})
	src[1].T.Data[0] = math.Copysign(0, -1)
	src[1].T.Data[1] = math.SmallestNonzeroFloat64
	src[1].T.Data[2] = math.MaxFloat64
	var buf bytes.Buffer
	if err := WriteParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := randParams(4, [2]int{4, 4}, [2]int{1, 7})
	if err := loadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		for j, v := range src[i].T.Data {
			if math.Float64bits(dst[i].T.Data[j]) != math.Float64bits(v) {
				t.Fatalf("param %d elem %d: %v != %v", i, j, dst[i].T.Data[j], v)
			}
		}
	}
}

// TestParamCodecWorksInOneTensorOfMemory: writing and reading N tensors
// allocates about the largest one, not their sum — the property the
// checkpoint's boot-time memory rests on.
func TestParamCodecWorksInOneTensorOfMemory(t *testing.T) {
	shapes := make([][2]int, 64)
	for i := range shapes {
		shapes[i] = [2]int{64, 64} // 32 KiB each, 2 MiB together
	}
	src, dst := randParams(5, shapes...), randParams(6, shapes...)
	var buf bytes.Buffer
	buf.Grow(3 << 20)
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := WriteParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if err := loadParams(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m2)
	const bound = 256 << 10
	if w, r := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc; w > bound || r > bound {
		t.Fatalf("2 MiB of tensors: write allocated %d bytes, read %d, want ≤ %d each", w, r, bound)
	}
}

// TestNilRngDrawsNothing: the constructors build a load's destination —
// right shapes, zero weights — from a nil rng. (That a real rng still
// draws what it always did is what every trajectory golden pins.)
func TestNilRngDrawsNothing(t *testing.T) {
	for i, p := range NewEncoder(nil, 8, 2, 1).Params() {
		want := 0.0
		if p.T.Data[0] == 1 { // layer-norm gains are constants, not draws
			want = 1
		}
		for _, v := range p.T.Data {
			if v != want {
				t.Fatalf("param %d of a nil-rng encoder holds %v", i, v)
			}
		}
	}
}
