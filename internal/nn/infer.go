// The no-grad inference layers, written once over the element type.
//
// Every trained layer (Linear, MLP, Encoder, ...) has one inference
// twin here, Lowered<Layer>[T], holding raw tensors of T and running
// on an ag.Session[T]. lower.go builds them: at float64 a lowered
// layer ALIASES the trained tensors (zero copy, never stale — see
// lower.go), so "the f64 serving path" and "a reduced-precision
// replica" are the same code at two instantiations.
//
// At float64 each Infer applies exactly the same kernels in exactly the
// same order as the grad-tracked Forward of the layer it was lowered
// from, so outputs are bitwise identical (asserted with eps = 0 in
// infer_test.go) while skipping graph construction entirely and
// drawing every intermediate from the session's buffer pool. At
// float32 the within-tier contract is serial == sharded bitwise;
// agreement with float64 is calibrated (internal/calib, DESIGN.md §9).
package nn

import (
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// LoweredLinear is the inference form of a Linear: float weights (W)
// or, in the int8 tier, per-channel quantized weights (W8) — exactly
// one of the two is non-nil. Int8 is this variant of the layer, not a
// separate path: everything around the product is shared.
type LoweredLinear[T tensor.Float] struct {
	W  *tensor.Dense[T]   // [in, out]
	W8 *tensor.Int8Matrix // int8 tier (stored transposed [out, in])
	B  *tensor.Dense[T]   // [1, out]
}

// Infer applies the layer to x [n, in] producing [n, out].
func (l *LoweredLinear[T]) Infer(e *ag.Session[T], x *tensor.Dense[T]) *tensor.Dense[T] {
	if l.W8 != nil {
		return e.LinearInt8(x, l.W8, l.B)
	}
	return e.AddBias(e.MatMul(x, l.W), l.B)
}

// Bytes returns the resident weight bytes of the layer.
func (l *LoweredLinear[T]) Bytes() int {
	if l.W8 != nil {
		return l.B.Bytes() + l.W8.Bytes()
	}
	return l.B.Bytes() + l.W.Bytes()
}

// LoweredEmbedding is the inference form of an Embedding (never
// quantized: lookup rows feed matmuls as activations, not weights).
type LoweredEmbedding[T tensor.Float] struct {
	W *tensor.Dense[T] // [vocab, dim]
}

// Infer looks up the rows for ids, in order.
func (emb *LoweredEmbedding[T]) Infer(e *ag.Session[T], ids []int) *tensor.Dense[T] {
	return e.Gather(emb.W, ids)
}

// Bytes returns the resident bytes of the table.
func (emb *LoweredEmbedding[T]) Bytes() int { return emb.W.Bytes() }

// LoweredLayerNorm is the inference form of a LayerNorm.
type LoweredLayerNorm[T tensor.Float] struct {
	Gamma, Beta *tensor.Dense[T]
	Eps         float64
}

// Infer applies the normalization.
func (l *LoweredLayerNorm[T]) Infer(e *ag.Session[T], x *tensor.Dense[T]) *tensor.Dense[T] {
	return e.LayerNormRows(x, l.Gamma, l.Beta, l.Eps)
}

// Bytes returns the resident bytes of the gain/bias rows.
func (l *LoweredLayerNorm[T]) Bytes() int { return l.Gamma.Bytes() + l.Beta.Bytes() }

// LoweredMLP is the inference form of an MLP.
type LoweredMLP[T tensor.Float] struct {
	Layers []*LoweredLinear[T]
	Act    Activation
}

func applyActInfer[T tensor.Float](e *ag.Session[T], a Activation, x *tensor.Dense[T]) *tensor.Dense[T] {
	switch a {
	case ActReLU:
		return e.ReLU(x)
	case ActGELU:
		return e.GELU(x)
	case ActTanh:
		return e.Tanh(x)
	default:
		panic("nn: unknown activation")
	}
}

// Infer applies the stack.
func (m *LoweredMLP[T]) Infer(e *ag.Session[T], x *tensor.Dense[T]) *tensor.Dense[T] {
	for i, l := range m.Layers {
		x = l.Infer(e, x)
		if i+1 < len(m.Layers) {
			x = applyActInfer(e, m.Act, x)
		}
	}
	return x
}

// Bytes returns the resident bytes of the stack.
func (m *LoweredMLP[T]) Bytes() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Bytes()
	}
	return n
}

// LoweredAttention is the inference form of a MultiHeadAttention.
type LoweredAttention[T tensor.Float] struct {
	WQ, WK, WV, WO *LoweredLinear[T]
	Heads          int
	Dim            int
}

// Infer attends queries q [lq, dim] over keys/values kv [lk, dim],
// mirroring MultiHeadAttention.Forward op for op. mask, if non-nil, is
// a [lq, lk] additive mask.
func (a *LoweredAttention[T]) Infer(e *ag.Session[T], q, kv, mask *tensor.Dense[T]) *tensor.Dense[T] {
	Q := a.WQ.Infer(e, q)
	K := a.WK.Infer(e, kv)
	V := a.WV.Infer(e, kv)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	qhs := make([]*tensor.Dense[T], a.Heads)
	khs := make([]*tensor.Dense[T], a.Heads)
	vhs := make([]*tensor.Dense[T], a.Heads)
	for h := 0; h < a.Heads; h++ {
		qhs[h] = e.SliceCols(Q, h*dh, (h+1)*dh)
		khs[h] = e.SliceCols(K, h*dh, (h+1)*dh)
		vhs[h] = e.SliceCols(V, h*dh, (h+1)*dh)
	}
	scores := e.MatMulTransBBatch(qhs, khs)
	attns := make([]*tensor.Dense[T], a.Heads)
	for h, s := range scores {
		s = e.Scale(s, scale)
		if mask != nil {
			s = e.Add(s, mask)
		}
		attns[h] = e.SoftmaxRows(s)
	}
	heads := e.MatMulBatch(attns, vhs)
	return a.WO.Infer(e, e.ConcatCols(heads...))
}

// Bytes returns the resident bytes of the four projections.
func (a *LoweredAttention[T]) Bytes() int {
	return a.WQ.Bytes() + a.WK.Bytes() + a.WV.Bytes() + a.WO.Bytes()
}

// LoweredEncoderLayer is the inference form of an EncoderLayer.
type LoweredEncoderLayer[T tensor.Float] struct {
	Attn     *LoweredAttention[T]
	FF       *LoweredMLP[T]
	LN1, LN2 *LoweredLayerNorm[T]
}

// Infer applies the block; mask is an optional [seq, seq] additive mask.
func (l *LoweredEncoderLayer[T]) Infer(e *ag.Session[T], x, mask *tensor.Dense[T]) *tensor.Dense[T] {
	x = l.LN1.Infer(e, e.Add(x, l.Attn.Infer(e, x, x, mask)))
	return l.LN2.Infer(e, e.Add(x, l.FF.Infer(e, x)))
}

// Bytes returns the resident bytes of the block.
func (l *LoweredEncoderLayer[T]) Bytes() int {
	return l.Attn.Bytes() + l.FF.Bytes() + l.LN1.Bytes() + l.LN2.Bytes()
}

// LoweredEncoder is the inference form of an Encoder.
type LoweredEncoder[T tensor.Float] struct {
	Layers []*LoweredEncoderLayer[T]
}

// Infer applies the stack.
func (enc *LoweredEncoder[T]) Infer(e *ag.Session[T], x, mask *tensor.Dense[T]) *tensor.Dense[T] {
	for _, l := range enc.Layers {
		x = l.Infer(e, x, mask)
	}
	return x
}

// Bytes returns the resident bytes of the stack.
func (enc *LoweredEncoder[T]) Bytes() int {
	n := 0
	for _, l := range enc.Layers {
		n += l.Bytes()
	}
	return n
}

// LoweredDecoderLayer is the inference form of a DecoderLayer.
type LoweredDecoderLayer[T tensor.Float] struct {
	SelfAttn, CrossAttn *LoweredAttention[T]
	FF                  *LoweredMLP[T]
	LN1, LN2, LN3       *LoweredLayerNorm[T]
}

// LoweredDecoder is the inference form of a Decoder. It decodes only
// incrementally, one KV-cached step per token (kvcache.go).
type LoweredDecoder[T tensor.Float] struct {
	Layers []*LoweredDecoderLayer[T]
}

// LoweredTreePos is the inference form of a TreePositionalEncoder. It
// keeps a reference to its source for the memoized RawFeature rows
// (the raw 0/1 features are exact in every tier).
type LoweredTreePos[T tensor.Float] struct {
	MaxDepth int
	Proj     *LoweredLinear[T]
	src      *TreePositionalEncoder
}

// Infer encodes a batch of paths into a [len(paths), dim] matrix.
func (t *LoweredTreePos[T]) Infer(e *ag.Session[T], paths []TreePath) *tensor.Dense[T] {
	raw := e.Get(len(paths), 2*t.MaxDepth)
	for i, p := range paths {
		row := raw.Row(i)
		for j, v := range t.src.RawFeature(p) {
			row[j] = T(v)
		}
	}
	return t.Proj.Infer(e, raw)
}

// Bytes returns the resident bytes of the projection.
func (t *LoweredTreePos[T]) Bytes() int { return t.Proj.Bytes() }
