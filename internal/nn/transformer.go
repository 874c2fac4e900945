package nn

import (
	"math"
	"math/rand"
	"sync"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product attention with h
// heads over row-major [seq, dim] matrices, as in Vaswani et al.,
// which the paper uses for Enc_i, Trans_Share and Trans_JO.
type MultiHeadAttention[V Tensor] struct {
	WQ, WK, WV, WO *Linear[V]
	Heads          int
	Dim            int
}

// NewMultiHeadAttention creates an attention block; dim must be
// divisible by heads.
func NewMultiHeadAttention(rng *rand.Rand, dim, heads int) *MultiHeadAttention[*ag.Value] {
	if dim%heads != 0 {
		panic("nn: attention dim must be divisible by heads")
	}
	return &MultiHeadAttention[*ag.Value]{
		WQ:    NewLinear(rng, dim, dim),
		WK:    NewLinear(rng, dim, dim),
		WV:    NewLinear(rng, dim, dim),
		WO:    NewLinear(rng, dim, dim),
		Heads: heads,
		Dim:   dim,
	}
}

// Forward attends queries q [lq, dim] over keys/values kv [lk, dim].
// mask, if non-nil, is a [lq, lk] additive mask (use -1e9 to block).
//
// The per-head products run through the batched matmul ops: each
// head's score and context matrices are tiny, so they run one after
// another on the calling goroutine. The math (and gradients) are
// identical to the head-at-a-time form.
func (a *MultiHeadAttention[V]) Forward(o ag.Ops[V], q, kv V, mask *tensor.Tensor) V {
	Q := a.WQ.Forward(o, q)
	K := a.WK.Forward(o, kv)
	Val := a.WV.Forward(o, kv)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	var maskV V
	if mask != nil {
		maskV = o.Const(mask)
	}
	// One backing array for the per-head operand lists.
	hs := make([]V, 4*a.Heads)
	qhs, khs, vhs, attns := hs[:a.Heads], hs[a.Heads:2*a.Heads], hs[2*a.Heads:3*a.Heads], hs[3*a.Heads:]
	for h := 0; h < a.Heads; h++ {
		qhs[h] = o.SliceCols(Q, h*dh, (h+1)*dh)
		khs[h] = o.SliceCols(K, h*dh, (h+1)*dh)
		vhs[h] = o.SliceCols(Val, h*dh, (h+1)*dh)
	}
	scores := o.MatMulTransBBatch(qhs, khs)
	for h, s := range scores {
		s = o.Scale(s, scale)
		if mask != nil {
			s = o.Add(s, maskV)
		}
		attns[h] = o.SoftmaxRows(s)
	}
	heads := o.MatMulBatch(attns, vhs)
	return a.WO.Forward(o, o.ConcatCols(heads...))
}

// Params implements Module.
func (a *MultiHeadAttention[V]) Params() []V {
	return collect[V](a.WQ, a.WK, a.WV, a.WO)
}

// Bytes returns the resident bytes of the four projections.
func (a *MultiHeadAttention[V]) Bytes() int {
	return a.WQ.Bytes() + a.WK.Bytes() + a.WV.Bytes() + a.WO.Bytes()
}

// EncoderLayer is one post-norm transformer encoder block:
// x = LN(x + MHA(x)); x = LN(x + FFN(x)).
type EncoderLayer[V Tensor] struct {
	Attn     *MultiHeadAttention[V]
	FF       *MLP[V]
	LN1, LN2 *LayerNorm[V]
}

// NewEncoderLayer creates an encoder block with a 4x-wide GELU FFN.
func NewEncoderLayer(rng *rand.Rand, dim, heads int) *EncoderLayer[*ag.Value] {
	return &EncoderLayer[*ag.Value]{
		Attn: NewMultiHeadAttention(rng, dim, heads),
		FF:   NewMLP(rng, ActGELU, dim, 4*dim, dim),
		LN1:  NewLayerNorm(dim),
		LN2:  NewLayerNorm(dim),
	}
}

// Forward applies the block; mask is an optional [seq, seq] additive mask.
func (l *EncoderLayer[V]) Forward(o ag.Ops[V], x V, mask *tensor.Tensor) V {
	x = l.LN1.Forward(o, o.Add(x, l.Attn.Forward(o, x, x, mask)))
	return l.LN2.Forward(o, o.Add(x, l.FF.Forward(o, x)))
}

// Params implements Module.
func (l *EncoderLayer[V]) Params() []V {
	return collect[V](l.Attn, l.FF, l.LN1, l.LN2)
}

// Bytes returns the resident bytes of the block.
func (l *EncoderLayer[V]) Bytes() int {
	return l.Attn.Bytes() + l.FF.Bytes() + l.LN1.Bytes() + l.LN2.Bytes()
}

// Encoder is a stack of encoder layers. The paper's Enc_i single-table
// encoders and Trans_Share are both instances of this type (3 blocks,
// 4 heads in the paper's configuration).
type Encoder[V Tensor] struct {
	Layers []*EncoderLayer[V]
}

// NewEncoder builds a stack of depth blocks.
func NewEncoder(rng *rand.Rand, dim, heads, blocks int) *Encoder[*ag.Value] {
	e := &Encoder[*ag.Value]{}
	for i := 0; i < blocks; i++ {
		e.Layers = append(e.Layers, NewEncoderLayer(rng, dim, heads))
	}
	return e
}

// Forward applies the stack.
func (e *Encoder[V]) Forward(o ag.Ops[V], x V, mask *tensor.Tensor) V {
	for _, l := range e.Layers {
		x = l.Forward(o, x, mask)
	}
	return x
}

// Params implements Module.
func (e *Encoder[V]) Params() []V {
	var out []V
	for _, l := range e.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Bytes returns the resident bytes of the stack.
func (e *Encoder[V]) Bytes() int {
	n := 0
	for _, l := range e.Layers {
		n += l.Bytes()
	}
	return n
}

// DecoderLayer is one post-norm transformer decoder block with causal
// self-attention and cross-attention over the encoder memory:
// x = LN(x + SelfAttn(x)); x = LN(x + CrossAttn(x, mem)); x = LN(x + FFN(x)).
type DecoderLayer[V Tensor] struct {
	SelfAttn, CrossAttn *MultiHeadAttention[V]
	FF                  *MLP[V]
	LN1, LN2, LN3       *LayerNorm[V]
}

// NewDecoderLayer creates a decoder block.
func NewDecoderLayer(rng *rand.Rand, dim, heads int) *DecoderLayer[*ag.Value] {
	return &DecoderLayer[*ag.Value]{
		SelfAttn:  NewMultiHeadAttention(rng, dim, heads),
		CrossAttn: NewMultiHeadAttention(rng, dim, heads),
		FF:        NewMLP(rng, ActGELU, dim, 4*dim, dim),
		LN1:       NewLayerNorm(dim),
		LN2:       NewLayerNorm(dim),
		LN3:       NewLayerNorm(dim),
	}
}

// Forward applies the block. causal is a [lq, lq] additive mask for the
// self-attention (nil for none); mem is the encoder output.
func (l *DecoderLayer[V]) Forward(o ag.Ops[V], x, mem V, causal *tensor.Tensor) V {
	x = l.LN1.Forward(o, o.Add(x, l.SelfAttn.Forward(o, x, x, causal)))
	x = l.LN2.Forward(o, o.Add(x, l.CrossAttn.Forward(o, x, mem, nil)))
	return l.LN3.Forward(o, o.Add(x, l.FF.Forward(o, x)))
}

// Params implements Module.
func (l *DecoderLayer[V]) Params() []V {
	return collect[V](l.SelfAttn, l.CrossAttn, l.FF, l.LN1, l.LN2, l.LN3)
}

// Decoder is a stack of decoder layers; the paper's Trans_JO is one. A
// lowered decoder decodes incrementally, one KV-cached step per token
// (kvcache.go).
type Decoder[V Tensor] struct {
	Layers []*DecoderLayer[V]
}

// NewDecoder builds a stack of depth blocks.
func NewDecoder(rng *rand.Rand, dim, heads, blocks int) *Decoder[*ag.Value] {
	d := &Decoder[*ag.Value]{}
	for i := 0; i < blocks; i++ {
		d.Layers = append(d.Layers, NewDecoderLayer(rng, dim, heads))
	}
	return d
}

// Forward applies the stack with a shared causal mask.
func (d *Decoder[V]) Forward(o ag.Ops[V], x, mem V, causal *tensor.Tensor) V {
	for _, l := range d.Layers {
		x = l.Forward(o, x, mem, causal)
	}
	return x
}

// Params implements Module.
func (d *Decoder[V]) Params() []V {
	var out []V
	for _, l := range d.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// collect concatenates the parameters of several layers.
func collect[V any](ms ...interface{ Params() []V }) []V {
	var out []V
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// causalMasks memoizes CausalMask by size: join-order decoding asks
// for the same handful of sizes on every forward, and inference may
// run concurrently with the experiment trial fan-out, so the cache is
// guarded by an RWMutex (covered by the nn race test).
var (
	causalMu    sync.RWMutex
	causalMasks = map[int]*tensor.Tensor{}
)

// CausalMask returns an [n, n] additive mask that blocks position i
// from attending to positions > i. The returned tensor is shared and
// memoized per size: callers must treat it as read-only.
func CausalMask(n int) *tensor.Tensor {
	causalMu.RLock()
	m := causalMasks[n]
	causalMu.RUnlock()
	if m != nil {
		return m
	}
	m = tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, -1e9)
		}
	}
	causalMu.Lock()
	// Another goroutine may have raced us here; keep the first tensor
	// so repeated calls keep returning a stable pointer.
	if prev, ok := causalMasks[n]; ok {
		m = prev
	} else {
		causalMasks[n] = m
	}
	causalMu.Unlock()
	return m
}
