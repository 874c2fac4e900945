package workload

import (
	"math"
	"strings"
	"testing"

	"mtmlf/internal/catalog"
	"mtmlf/internal/datagen"
)

// TestSliceSourceBounds: the Source contract says a bad index is an
// error, never a panic — the trainer may be driven by a corrupt or
// foreign index list, and the in-memory backend must fail the same
// way the corpus backend does.
func TestSliceSourceBounds(t *testing.T) {
	src := SliceSource{&LabeledQuery{}, &LabeledQuery{}, &LabeledQuery{}}
	if got, err := src.Example(2); err != nil || got == nil {
		t.Fatalf("valid index failed: %v", err)
	}
	for _, i := range []int{-1, 3, 100} {
		lq, err := src.Example(i)
		if err == nil {
			t.Fatalf("index %d: expected error, got example %v", i, lq)
		}
		if !strings.Contains(err.Error(), "outside [0, 3)") {
			t.Fatalf("index %d: error %q does not name the valid range", i, err)
		}
	}
}

// TestConcatSourceOrderAndLocate: the pooled multi-source view must
// expose a deterministic global order (source 0 first, then source 1,
// …) and map global indices back to (source, local) pairs.
func TestConcatSourceOrderAndLocate(t *testing.T) {
	mk := func(n int, card float64) SliceSource {
		out := make(SliceSource, n)
		for i := range out {
			out[i] = &LabeledQuery{Card: card + float64(i)}
		}
		return out
	}
	a, b, c := mk(3, 100), mk(0, 0), mk(2, 200)
	pool := Concat(a, b, c)
	if pool.Len() != 5 {
		t.Fatalf("Len %d, want 5", pool.Len())
	}
	wantSrc := []int{0, 0, 0, 2, 2}
	wantLocal := []int{0, 1, 2, 0, 1}
	wantCard := []float64{100, 101, 102, 200, 201}
	for gi := 0; gi < pool.Len(); gi++ {
		s, l, err := pool.Locate(gi)
		if err != nil {
			t.Fatal(err)
		}
		if s != wantSrc[gi] || l != wantLocal[gi] {
			t.Fatalf("Locate(%d) = (%d, %d), want (%d, %d)", gi, s, l, wantSrc[gi], wantLocal[gi])
		}
		lq, err := pool.Example(gi)
		if err != nil {
			t.Fatal(err)
		}
		if lq.Card != wantCard[gi] {
			t.Fatalf("Example(%d).Card = %v, want %v", gi, lq.Card, wantCard[gi])
		}
	}
	if _, _, err := pool.Locate(5); err == nil {
		t.Fatal("Locate past end should fail")
	}
	if _, err := pool.Example(-1); err == nil {
		t.Fatal("Example(-1) should fail")
	}
}

func equalWorkloads(t *testing.T, a, b []*LabeledQuery) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("workload sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Q.String() != y.Q.String() {
			t.Fatalf("example %d: queries differ:\n%v\n%v", i, x.Q, y.Q)
		}
		if x.Plan.String() != y.Plan.String() {
			t.Fatalf("example %d: plans differ", i)
		}
		if len(x.NodeCards) != len(y.NodeCards) {
			t.Fatalf("example %d: label lengths differ", i)
		}
		for j := range x.NodeCards {
			if math.Float64bits(x.NodeCards[j]) != math.Float64bits(y.NodeCards[j]) ||
				math.Float64bits(x.NodeCosts[j]) != math.Float64bits(y.NodeCosts[j]) {
				t.Fatalf("example %d node %d: labels differ", i, j)
			}
		}
		if math.Float64bits(x.RawCard) != math.Float64bits(y.RawCard) {
			t.Fatalf("example %d: raw card differs", i)
		}
		if len(x.OptimalOrder) != len(y.OptimalOrder) {
			t.Fatalf("example %d: optimal order lengths differ", i)
		}
		for j := range x.OptimalOrder {
			if x.OptimalOrder[j] != y.OptimalOrder[j] {
				t.Fatalf("example %d: optimal orders differ", i)
			}
		}
	}
}

// TestSubSourceAndMaterialize: a SubSource is the window it names of
// its parent, Materialize returns that window, and bad indices error.
func TestSubSourceAndMaterialize(t *testing.T) {
	dcfg := datagen.DefaultConfig()
	dcfg.MinTables, dcfg.MaxTables = 4, 5
	dcfg.MinRows, dcfg.MaxRows = 60, 120
	cat := catalog.NewMemory(datagen.GenerateFleet(17, 1, dcfg)[0])
	cfg := DefaultConfig()
	cfg.MaxTables = 3
	all := NewGeneratorFrom(cat, 3).Generate(9, cfg)
	src := SliceSource(all)
	sub, err := SubSource(src, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 4 {
		t.Fatalf("sub len %d, want 4", sub.Len())
	}
	got, err := Materialize(sub)
	if err != nil {
		t.Fatal(err)
	}
	equalWorkloads(t, all[3:7], got)
	if _, err := sub.Example(4); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := SubSource(src, 5, 99); err == nil {
		t.Fatal("expected invalid-range error")
	}
}
