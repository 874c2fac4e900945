package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// relErr is |got-want| / max(1e-6, |want|).
func relErr(got float32, want float64) float64 {
	d := math.Abs(float64(got) - want)
	m := math.Abs(want)
	if m < 1e-6 {
		m = 1e-6
	}
	return d / m
}

// TestInferMatchesForwardInEveryTier runs every layer type three ways
// on the same input. Lowered to float64 the no-grad Infer must equal
// the grad-tracked Forward bitwise (eps = 0) — and must do so through
// ALIASED weights, so the row also asserts no tensor was copied.
// Lowered to float32 it must track the float64 result within the
// per-layer relative-error bound the end-to-end q-error budgets build
// on. The decoder has no full-prefix Infer; its KV-cached step is held
// to Forward by TestDecoderStepMatchesFullForward.
func TestInferMatchesForwardInEveryTier(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const dim, heads, seq, memLen = 24, 4, 6, 5
	x := tensor.Rand(rng, seq, dim, 1)
	mem := tensor.Rand(rng, memLen, dim, 1)
	xv, memv := ag.Const(x), ag.Const(mem)
	x32, mem32 := tensor.Convert[float32](x), tensor.Convert[float32](mem)
	causal := CausalMask(seq)
	causal32 := tensor.Convert[float32](causal)
	const f64, f32 = PrecisionF64, PrecisionF32

	e := ag.NewEval()
	defer e.Reset()
	e32 := ag.NewSession[float32]()
	defer e32.Reset()

	lin := NewLinear(rng, dim, dim)
	mlp := NewMLP(rng, ActGELU, dim, 4*dim, dim)
	ln := NewLayerNorm(dim)
	emb := NewEmbedding(rng, 10, dim)
	ids := []int{4, 1, 4}
	mha := NewMultiHeadAttention(rng, dim, heads)
	enc := NewEncoder(rng, dim, heads, 2)
	tp := NewTreePositionalEncoder(rng, 6, dim)
	paths := []TreePath{{}, {0}, {0, 1}, {1, 1, 0}}

	if l := LowerLinear[float64](lin, f64); l.W != lin.W.T || l.B != lin.B.T {
		t.Fatal("float64 lowering copied the weights instead of aliasing them")
	}

	for _, c := range []struct {
		name    string
		forward *ag.Value
		infer   *tensor.Tensor
		infer32 *tensor.F32
		tol     float64
	}{
		{"Linear", lin.Forward(xv),
			LowerLinear[float64](lin, f64).Infer(e, x), LowerLinear[float32](lin, f32).Infer(e32, x32), 1e-4},
		{"MLP", mlp.Forward(xv),
			LowerMLP[float64](mlp, f64).Infer(e, x), LowerMLP[float32](mlp, f32).Infer(e32, x32), 1e-3},
		{"LayerNorm", ln.Forward(xv),
			LowerLayerNorm[float64](ln).Infer(e, x), LowerLayerNorm[float32](ln).Infer(e32, x32), 1e-3},
		{"Embedding", emb.Forward(ids),
			LowerEmbedding[float64](emb).Infer(e, ids), LowerEmbedding[float32](emb).Infer(e32, ids), 1e-6},
		{"MHA", mha.Forward(xv, xv, causal),
			LowerMultiHeadAttention[float64](mha, f64).Infer(e, x, x, causal),
			LowerMultiHeadAttention[float32](mha, f32).Infer(e32, x32, x32, causal32), 1e-3},
		{"MHA-nomask", mha.Forward(xv, memv, nil),
			LowerMultiHeadAttention[float64](mha, f64).Infer(e, x, mem, nil),
			LowerMultiHeadAttention[float32](mha, f32).Infer(e32, x32, mem32, nil), 1e-3},
		{"Encoder", enc.Forward(xv, nil),
			LowerEncoder[float64](enc, f64).Infer(e, x, nil), LowerEncoder[float32](enc, f32).Infer(e32, x32, nil), 1e-2},
		{"TreePos", tp.Forward(paths),
			LowerTreePositionalEncoder[float64](tp, f64).Infer(e, paths),
			LowerTreePositionalEncoder[float32](tp, f32).Infer(e32, paths), 1e-4},
	} {
		if !tensor.Equal(c.forward.T, c.infer, 0) {
			t.Fatalf("%s: float64 Infer output differs from Forward", c.name)
		}
		worst := 0.0
		for i, want := range c.infer.Data {
			worst = max(worst, relErr(c.infer32.Data[i], want))
		}
		if worst > c.tol {
			t.Fatalf("%s: float32 max relative error %.3g exceeds %.3g", c.name, worst, c.tol)
		}
	}

	// A float64 lowering is a view, not a snapshot: an in-place weight
	// update (what an optimizer step or a checkpoint load does) must
	// show through a replica lowered before it.
	view := LowerLinear[float64](lin, f64)
	lin.W.T.Data[0] += 1
	if !tensor.Equal(lin.Forward(xv).T, view.Infer(e, x), 0) {
		t.Fatal("float64 lowered layer went stale after an in-place weight update")
	}
}

// TestLoweredEncoderInt8TracksFloat64 bounds the int8 tier at the
// encoder level with the looser absolute budget calibration assigns it.
func TestLoweredEncoderInt8TracksFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x64 := tensor.Rand(rng, 7, 16, 1)
	e64 := ag.NewEval()
	defer e64.Reset()
	e32 := ag.NewSession[float32]()
	defer e32.Reset()

	enc := NewEncoder(rng, 16, 2, 2)
	got := LowerEncoder[float32](enc, PrecisionInt8).Infer(e32, tensor.Convert[float32](x64), nil)
	want := LowerEncoder[float64](enc, PrecisionF64).Infer(e64, x64, nil)
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i]) - want.Data[i]); d > 0.25 {
			t.Fatalf("int8 encoder element %d: |%v - %v| = %g", i, got.Data[i], want.Data[i], d)
		}
	}
}

// TestLowerRoundTripF32 pins the f64 -> f32 -> f64 weight round trip
// per layer type: every lowered weight re-raised to float64 is within
// one float32 ulp of the original (relative 2^-24).
func TestLowerRoundTripF32(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const ulp32 = 1.0 / (1 << 24)

	checkTensor := func(name string, lowered *tensor.F32, orig *tensor.Tensor) {
		t.Helper()
		back := lowered.ToTensor()
		for i := range orig.Data {
			if d := math.Abs(back.Data[i] - orig.Data[i]); d > math.Abs(orig.Data[i])*ulp32 {
				t.Fatalf("%s element %d: round-trip error %g exceeds one f32 ulp", name, i, d)
			}
		}
	}

	lin := NewLinear(rng, 24, 16)
	lf := LowerLinear[float32](lin, PrecisionF32)
	checkTensor("Linear.W", lf.W, lin.W.T)
	checkTensor("Linear.B", lf.B, lin.B.T)

	ln := NewLayerNorm(16)
	lnf := LowerLayerNorm[float32](ln)
	checkTensor("LayerNorm.Gamma", lnf.Gamma, ln.Gamma.T)
	checkTensor("LayerNorm.Beta", lnf.Beta, ln.Beta.T)
	if lnf.Eps != ln.Eps {
		t.Fatal("LayerNorm.Eps not preserved")
	}

	emb := NewEmbedding(rng, 12, 16)
	checkTensor("Embedding.W", LowerEmbedding[float32](emb).W, emb.W.T)

	mlp := NewMLP(rng, ActGELU, 16, 32, 16)
	mf := LowerMLP[float32](mlp, PrecisionF32)
	for i, l := range mf.Layers {
		checkTensor("MLP layer W", l.W, mlp.Layers[i].W.T)
	}
}

// TestLowerInt8WeightBound is the layer-level int8 property test: the
// dequantized weight of a lowered Linear never deviates from the
// original by more than scale/2 per element, and the resident bytes
// are under half the float64 layer.
func TestLowerInt8WeightBound(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	lin := NewLinear(rng, 48, 32)
	lf := LowerLinear[float32](lin, PrecisionInt8)
	if lf.W != nil || lf.W8 == nil {
		t.Fatal("int8 lowering kept f32 weights")
	}
	deq := lf.W8.Dequantize()
	for j := 0; j < 32; j++ {
		scale := float64(lf.W8.Scales[j])
		for l := 0; l < 48; l++ {
			if d := math.Abs(lin.W.T.At(l, j) - deq.At(l, j)); d > scale/2+scale*1e-6 {
				t.Fatalf("w[%d,%d]: error %g > scale/2 %g", l, j, d, scale/2)
			}
		}
	}
	f64Bytes := 8 * (lin.W.T.Size() + lin.B.T.Size())
	if lf.Bytes()*2 > f64Bytes {
		t.Fatalf("int8 layer bytes %d not under half of f64 %d", lf.Bytes(), f64Bytes)
	}
}

// TestParsePrecision covers the flag surface.
func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{"f64": PrecisionF64, "f32": PrecisionF32, "int8": PrecisionInt8} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Precision(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParsePrecision("bf16"); err == nil {
		t.Fatal("ParsePrecision accepted unknown tier")
	}
}

// TestDecoderStepMatchesFullForward asserts KV-cached incremental
// decoding reproduces the full-prefix forward bitwise: at every step
// t, the stepped output row equals row t of the full causal forward
// over the whole prefix.
func TestDecoderStepMatchesFullForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const dim, heads, steps, memLen = 16, 2, 7, 4
	dec := NewDecoder(rng, dim, heads, 2)
	ldec := LowerDecoder[float64](dec, PrecisionF64)
	mem := tensor.Rand(rng, memLen, dim, 1)
	xs := tensor.Rand(rng, steps, dim, 1)

	e := ag.NewEval()
	defer e.Reset()
	cache := ldec.NewCache(e, mem, steps)
	for step := 0; step < steps; step++ {
		xNew := e.RowsView(xs, step, step+1)
		got := ldec.StepBeams(e, xNew, []*DecCache[float64]{cache})
		if cache.Len() != step+1 {
			t.Fatalf("cache length %d after step %d", cache.Len(), step)
		}
		// Full-prefix grad-tracked forward, masked.
		prefix := ag.Const(tensor.FromSlice(xs.Data[:(step+1)*dim], step+1, dim))
		full := dec.Forward(prefix, ag.Const(mem), CausalMask(step+1))
		wantRow := full.T.Row(step)
		gotRow := got.Row(0)
		for j := range wantRow {
			if wantRow[j] != gotRow[j] {
				t.Fatalf("step %d col %d: cached %v != full %v", step, j, gotRow[j], wantRow[j])
			}
		}
	}
}

// TestStepBeamsMatchesPerBeamSteps asserts the batched beam step is
// bitwise identical to stepping each hypothesis alone, and that Clone
// isolates forks.
func TestStepBeamsMatchesPerBeamSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const dim, heads, nb, memLen = 16, 2, 3, 4
	dec := LowerDecoder[float64](NewDecoder(rng, dim, heads, 1), PrecisionF64)
	mem := tensor.Rand(rng, memLen, dim, 1)

	e := ag.NewEval()
	defer e.Reset()

	// Shared first step, then fork into nb hypotheses with distinct
	// second inputs.
	x0 := tensor.Rand(rng, 1, dim, 1)
	base := dec.NewCache(e, mem, 4)
	_ = dec.StepBeams(e, x0, []*DecCache[float64]{base})

	x2 := tensor.Rand(rng, nb, dim, 1)
	caches := make([]*DecCache[float64], nb)
	for i := range caches {
		caches[i] = base.Clone()
	}
	batched := dec.StepBeams(e, x2, caches)

	for i := 0; i < nb; i++ {
		solo := base.Clone()
		out := dec.StepBeams(e, e.RowsView(x2, i, i+1), []*DecCache[float64]{solo})
		brow := batched.Row(i)
		srow := out.Row(0)
		for j := range srow {
			if brow[j] != srow[j] {
				t.Fatalf("beam %d col %d: batched %v != solo %v", i, j, brow[j], srow[j])
			}
		}
	}

	// base must be untouched by the forked steps.
	if base.Len() != 1 {
		t.Fatalf("base cache mutated: len %d", base.Len())
	}
}

// TestMaskAndPositionalCaches asserts the memoized builders return
// stable shared pointers and correct contents.
func TestMaskAndPositionalCaches(t *testing.T) {
	m1, m2 := CausalMask(9), CausalMask(9)
	if m1 != m2 {
		t.Fatal("CausalMask(9) not memoized")
	}
	if m1.At(0, 5) != -1e9 || m1.At(5, 0) != 0 || m1.At(5, 5) != 0 {
		t.Fatal("CausalMask contents wrong")
	}
	p1, p2 := SinusoidalPositions(12, 8), SinusoidalPositions(12, 8)
	if p1 != p2 {
		t.Fatal("SinusoidalPositions not memoized")
	}
	if !tensor.Equal(p1, sinusoidalPositions(12, 8), 0) {
		t.Fatal("memoized positions differ from direct computation")
	}

	rng := rand.New(rand.NewSource(24))
	tp := NewTreePositionalEncoder(rng, 6, 8)
	path := TreePath{0, 1, 1}
	f1 := tp.RawFeature(path)
	f2 := tp.RawFeature(path)
	if &f1[0] != &f2[0] {
		t.Fatal("tree RawFeature not memoized")
	}
	want := []float64{1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0}
	for i := range want {
		if f1[i] != want[i] {
			t.Fatalf("RawFeature[%d] = %v, want %v", i, f1[i], want[i])
		}
	}
}

// TestMaskCacheConcurrency hammers the memoized caches from many
// goroutines — the race detector (make race) is the real assertion;
// inference runs concurrently with the parallel trial fan-out, so
// these caches must be race-free.
func TestMaskCacheConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tp := NewTreePositionalEncoder(rng, 8, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := 1 + (g+i)%7
				m := CausalMask(n)
				if m.Rows() != n {
					t.Errorf("CausalMask(%d) has %d rows", n, m.Rows())
					return
				}
				pe := SinusoidalPositions(n, 8)
				if pe.Rows() != n {
					t.Errorf("SinusoidalPositions(%d) has %d rows", n, pe.Rows())
					return
				}
				path := make(TreePath, (g+i)%5)
				for d := range path {
					path[d] = (g + i + d) % 2
				}
				if f := tp.RawFeature(path); len(f) != 16 {
					t.Errorf("RawFeature width %d", len(f))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
