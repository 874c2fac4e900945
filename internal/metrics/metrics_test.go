package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQErrorBasics(t *testing.T) {
	if QError(100, 100) != 1 {
		t.Fatal("perfect estimate must be 1")
	}
	if QError(200, 100) != 2 || QError(50, 100) != 2 {
		t.Fatal("symmetric factor wrong")
	}
	// Clamping: sub-1 values behave as 1.
	if QError(0, 0) != 1 {
		t.Fatal("degenerate inputs must clamp to 1")
	}
	if QError(0.5, 10) != 10 {
		t.Fatalf("clamped pred wrong: %g", QError(0.5, 10))
	}
}

// Properties: q-error is >= 1 and symmetric.
func TestQErrorProperties(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		q := QError(a, b)
		return q >= 1 && math.Abs(q-QError(b, a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.Median != 3 {
		t.Fatalf("median %g", s.Median)
	}
	if s.Max != 100 {
		t.Fatalf("max %g", s.Max)
	}
	if math.Abs(s.Mean-22) > 1e-12 {
		t.Fatalf("mean %g", s.Mean)
	}
	if s.N != 5 {
		t.Fatal("count wrong")
	}
	if s.P90 < s.Median || s.Max < s.P99 {
		t.Fatal("percentiles out of order")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary wrong")
	}
	s := Summarize([]float64{7})
	if s.Median != 7 || s.Max != 7 || s.Mean != 7 {
		t.Fatal("singleton summary wrong")
	}
}

func TestImprovementRatio(t *testing.T) {
	if got := ImprovementRatio(1000, 200); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("ratio %g", got)
	}
	if ImprovementRatio(0, 5) != 0 {
		t.Fatal("zero baseline must yield 0")
	}
	if ImprovementRatio(100, 150) >= 0 {
		t.Fatal("regression must be negative")
	}
}

func TestJOEU(t *testing.T) {
	opt := []string{"a", "b", "c", "d"}
	cases := []struct {
		gen  []string
		want float64
	}{
		{[]string{"a", "b", "c", "d"}, 1},
		{[]string{"a", "b", "d", "c"}, 0.5},
		{[]string{"b", "a", "c", "d"}, 0},
		{[]string{"a"}, 0.25},
		{nil, 0},
	}
	for _, c := range cases {
		if got := JOEU(c.gen, opt); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("JOEU(%v) = %g, want %g", c.gen, got, c.want)
		}
	}
	if JOEU([]string{"a"}, nil) != 0 {
		t.Fatal("empty optimal must be 0")
	}
}

func TestJOEUInt(t *testing.T) {
	if got := JOEUInt([]int{0, 1, 2}, []int{0, 1, 2}); got != 1 {
		t.Fatalf("JOEUInt identical = %g", got)
	}
	if got := JOEUInt([]int{0, 2, 1}, []int{0, 1, 2}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("JOEUInt partial = %g", got)
	}
}

// Property: JOEU is in [0,1] and 1 iff sequences are equal (same length).
func TestJOEUBounds(t *testing.T) {
	f := func(a, b []uint8) bool {
		ga := make([]int, len(a))
		gb := make([]int, len(b))
		for i, v := range a {
			ga[i] = int(v % 4)
		}
		for i, v := range b {
			gb[i] = int(v % 4)
		}
		j := JOEUInt(ga, gb)
		return j >= 0 && j <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
