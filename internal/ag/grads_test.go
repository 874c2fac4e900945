package ag

import (
	"math/rand"
	"sync"
	"testing"

	"mtmlf/internal/tensor"
)

// buildLoss makes a small two-parameter graph whose loss depends on
// the input row x.
func buildLoss(w, b *Value, x *tensor.Tensor) *Value {
	h := Tanh(AddBias(MatMul(Const(x), w), b))
	return MeanAll(Mul(h, h))
}

// TestBackwardIntoMatchesBackward verifies a sinked backward pass
// produces exactly the gradients of the classic pass and leaves the
// shared parameters' Grad fields untouched.
func TestBackwardIntoMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := Param(tensor.Xavier(rng, 4, 3))
	b := Param(tensor.New(1, 3))
	x := tensor.RandNorm(rng, 2, 4, 1)

	buildLoss(w, b, x).Backward()
	wantW, wantB := w.Grad.Clone(), b.Grad.Clone()
	w.Grad, b.Grad = nil, nil

	sink := Grads{}
	buildLoss(w, b, x).BackwardInto(sink)
	if w.Grad != nil || b.Grad != nil {
		t.Fatal("BackwardInto wrote to the shared Grad fields")
	}
	if !tensor.Equal(sink[w], wantW, 0) || !tensor.Equal(sink[b], wantB, 0) {
		t.Fatal("sinked gradients differ from Backward gradients")
	}
}

// TestConcurrentBackwardInto runs many backward passes over SHARED
// parameters concurrently, each into a private sink — the
// data-parallel training pattern — and checks the reduction equals
// the serial sum. Run under -race this is the core safety test.
func TestConcurrentBackwardInto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := Param(tensor.Xavier(rng, 6, 5))
	b := Param(tensor.New(1, 5))
	params := []*Value{w, b}
	const n = 16
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.RandNorm(rng, 3, 6, 1)
	}

	// Serial reference: per-example sinks reduced in example order.
	ref := make([]Grads, n)
	for i, x := range xs {
		ref[i] = Grads{}
		buildLoss(w, b, x).BackwardInto(ref[i])
	}
	ReduceGrads(params, ref, 1.0/n)
	wantW, wantB := w.Grad.Clone(), b.Grad.Clone()
	w.Grad, b.Grad = nil, nil

	// Concurrent: same per-example sinks filled from goroutines.
	slots := make([]Grads, n)
	var wg sync.WaitGroup
	for wkr := 0; wkr < 4; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := wkr; i < n; i += 4 {
				slots[i] = Grads{}
				buildLoss(w, b, xs[i]).BackwardInto(slots[i])
			}
		}(wkr)
	}
	wg.Wait()
	ReduceGrads(params, slots, 1.0/n)
	if !tensor.Equal(w.Grad, wantW, 0) || !tensor.Equal(b.Grad, wantB, 0) {
		t.Fatal("concurrent reduction differs from serial reduction")
	}
}

// TestPassThroughGradientsAreCopied: Add, Sub and AddBias hand their
// own out.Grad to their operands, so those must copy it — two buffers
// sharing storage would add one parameter's gradient into another's.
// For each op, with a sink and without, every parameter's gradient must
// be its own tensor (by pointer, and by writing to it and re-reading
// the others) and none may be out.Grad.
func TestPassThroughGradientsAreCopied(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, q := randParam(rng, 3, 4), randParam(rng, 3, 4)
	bias := randParam(rng, 1, 4)
	w := Const(tensor.Rand(rng, 3, 4, 1))
	for _, tc := range []struct {
		name   string
		params []*Value
		op     func() *Value
	}{
		{"add(p,p)", []*Value{p}, func() *Value { return Add(p, p) }},
		{"add(p,q)", []*Value{p, q}, func() *Value { return Add(p, q) }},
		{"sub(p,q)", []*Value{p, q}, func() *Value { return Sub(p, q) }},
		{"addbias(p,bias)", []*Value{p, bias}, func() *Value { return AddBias(p, bias) }},
	} {
		for _, sinked := range []bool{false, true} {
			out := tc.op()
			loss := SumAll(Mul(out, w))
			sink := Grads{}
			if sinked {
				loss.BackwardInto(sink)
			} else {
				loss.Backward()
			}
			bufs := []*tensor.Tensor{out.Grad}
			for _, v := range tc.params {
				g := v.Grad
				if sinked {
					g = sink[v]
				}
				if g == nil {
					t.Fatalf("%s sinked=%v: a parameter got no gradient", tc.name, sinked)
				}
				bufs = append(bufs, g)
				v.Grad = nil
			}
			for i, a := range bufs {
				for _, b := range bufs[i+1:] {
					if a == b {
						t.Fatalf("%s sinked=%v: two gradients are one tensor", tc.name, sinked)
					}
				}
			}
			for i, a := range bufs {
				snap := make([]*tensor.Tensor, len(bufs))
				for j, b := range bufs {
					snap[j] = b.Clone()
				}
				a.Data[0] += 1
				for j, b := range bufs {
					if j != i && !tensor.Equal(b, snap[j], 0) {
						t.Fatalf("%s sinked=%v: writing gradient %d changed gradient %d", tc.name, sinked, i, j)
					}
				}
			}
		}
	}
}

// TestMatMulBatchGradcheck verifies the batched ops' values and
// gradients against the unbatched ops.
func TestMatMulBatchGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const pairs = 3
	for trial := 0; trial < 2; trial++ {
		var as, bs, as2, bs2 []*Value
		for i := 0; i < pairs; i++ {
			at := tensor.RandNorm(rng, 3, 4, 1)
			bt := tensor.RandNorm(rng, 4, 2, 1)
			as = append(as, Param(at.Clone()))
			bs = append(bs, Param(bt.Clone()))
			as2 = append(as2, Param(at.Clone()))
			bs2 = append(bs2, Param(bt.Clone()))
		}
		outs := MatMulBatch(as, bs)
		loss := Scalar(0)
		for _, o := range outs {
			loss = Add(loss, SumAll(Mul(o, o)))
		}
		loss.Backward()

		var ref *Value = Scalar(0)
		for i := 0; i < pairs; i++ {
			o := MatMul(as2[i], bs2[i])
			ref = Add(ref, SumAll(Mul(o, o)))
		}
		ref.Backward()

		if loss.Item() != ref.Item() {
			t.Fatalf("batched loss %g != unbatched %g", loss.Item(), ref.Item())
		}
		for i := 0; i < pairs; i++ {
			if !tensor.Equal(as[i].Grad, as2[i].Grad, 0) || !tensor.Equal(bs[i].Grad, bs2[i].Grad, 0) {
				t.Fatalf("pair %d: batched gradients differ from unbatched", i)
			}
		}
	}
}

// TestMatMulTransBBatchMatches verifies the transB batch against the
// single op.
func TestMatMulTransBBatchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a1 := Param(tensor.RandNorm(rng, 3, 5, 1))
	b1 := Param(tensor.RandNorm(rng, 2, 5, 1))
	a2 := Param(a1.T.Clone())
	b2 := Param(b1.T.Clone())

	batched := MatMulTransBBatch([]*Value{a1}, []*Value{b1})[0]
	single := MatMulTransB(a2, b2)
	if !tensor.Equal(batched.T, single.T, 0) {
		t.Fatal("forward differs")
	}
	SumAll(Mul(batched, batched)).Backward()
	SumAll(Mul(single, single)).Backward()
	if !tensor.Equal(a1.Grad, a2.Grad, 0) || !tensor.Equal(b1.Grad, b2.Grad, 0) {
		t.Fatal("backward differs")
	}
}
