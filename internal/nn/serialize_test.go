package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mtmlf/internal/ag"
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

// TestLoadRejectsShapeMismatch: a params list with the right count but
// a transposed tensor must fail with a shape error before any weight
// is overwritten.
func TestLoadRejectsShapeMismatch(t *testing.T) {
	src := randParams(1, [2]int{3, 4}, [2]int{2, 5})
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := randParams(2, [2]int{3, 4}, [2]int{5, 2}) // same size, wrong shape
	before := append([]float64{}, dst[0].T.Data...)
	err := Load(&buf, dst)
	if err == nil {
		t.Fatal("Load accepted a transposed parameter")
	}
	if !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("want shape mismatch error, got %v", err)
	}
	for i, v := range dst[0].T.Data {
		if v != before[i] {
			t.Fatal("Load modified weights before failing validation")
		}
	}
}

// TestLoadRejectsNonFinite: a well-formed section holding NaN or ±Inf
// (a diverged training run saved faithfully) must fail with
// ErrNonFinite before any weight is overwritten — including the
// earlier, finite tensors of the same section.
func TestLoadRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		src := randParams(1, [2]int{3, 4}, [2]int{2, 5})
		src[1].T.Data[7] = bad
		var buf bytes.Buffer
		if err := Save(&buf, src); err != nil {
			t.Fatal(err)
		}
		dst := randParams(2, [2]int{3, 4}, [2]int{2, 5})
		before := append([]float64{}, dst[0].T.Data...)
		err := Load(&buf, dst)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%v weight: want ErrNonFinite, got %v", bad, err)
		}
		for i, v := range dst[0].T.Data {
			if v != before[i] {
				t.Fatalf("%v weight: Load modified weights before failing validation", bad)
			}
		}
	}
}

// TestLoadRejectsCountMismatch keeps the old count check.
func TestLoadRejectsCountMismatch(t *testing.T) {
	src := randParams(1, [2]int{2, 2})
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	err := Load(&buf, randParams(2, [2]int{2, 2}, [2]int{2, 2}))
	if err == nil || !strings.Contains(err.Error(), "count mismatch") {
		t.Fatalf("want count mismatch error, got %v", err)
	}
}

// TestSaveLoadRoundTripBitwise: gob carries float64 bit patterns, so a
// round trip must be exact, not just close.
func TestSaveLoadRoundTripBitwise(t *testing.T) {
	src := randParams(3, [2]int{4, 4}, [2]int{1, 7})
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := randParams(4, [2]int{4, 4}, [2]int{1, 7})
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		for j, v := range src[i].T.Data {
			if dst[i].T.Data[j] != v {
				t.Fatalf("param %d elem %d: %v != %v", i, j, dst[i].T.Data[j], v)
			}
		}
	}
}

// TestHeaderRoundTripAndRejection exercises the magic/version
// preamble the full-model checkpoint format is built on.
func TestHeaderRoundTripAndRejection(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := WriteHeader(enc, "TESTMAGIC", 2); err != nil {
		t.Fatal(err)
	}
	v, err := ReadHeader(gob.NewDecoder(bytes.NewReader(buf.Bytes())), "TESTMAGIC", 3)
	if err != nil || v != 2 {
		t.Fatalf("round trip: version %d, err %v", v, err)
	}
	if _, err := ReadHeader(gob.NewDecoder(bytes.NewReader(buf.Bytes())), "OTHER", 3); err == nil {
		t.Fatal("accepted wrong magic")
	}
	if _, err := ReadHeader(gob.NewDecoder(bytes.NewReader(buf.Bytes())), "TESTMAGIC", 1); err == nil {
		t.Fatal("accepted future version")
	}
	if _, err := ReadHeader(gob.NewDecoder(bytes.NewReader([]byte("junk"))), "TESTMAGIC", 1); err == nil {
		t.Fatal("accepted junk preamble")
	}
}
