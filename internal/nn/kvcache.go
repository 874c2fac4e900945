// K/V caches and incremental decoding steps.
//
// Full-prefix decoding recomputes the whole decoder over t tokens to
// obtain the t-th output row — O(n²) decoder work per emitted token.
// Because every op in the decoder is row-wise except causal
// self-attention (where row t depends only on rows ≤ t), row t of the
// full forward can instead be computed incrementally from (a) the new
// input row and (b) the keys/values of rows 0..t-1, which never
// change once computed. AttnKV caches those per layer; CrossKV caches
// the cross-attention keys/values of the (static) encoder memory,
// computed once per query and shared by every beam.
//
// Equivalence: the incremental step applies the same kernels in the
// same order as the full forward's row t, and the full forward's
// causal mask zeroes future positions *exactly* (exp(-1e9 + s − max)
// underflows to 0.0 in float64, and the matmul kernels either skip or
// add exact zeros), so cached decoding is BITWISE identical to
// full-prefix recompute — asserted with eps = 0 by the decoder step
// tests here and the beam-search equivalence tests in mtmlf.
//
// The caches and steps have no grad twin: they exist only for the
// lowered decoder (the *tensor.Dense[T] instantiation), so they are
// functions of it rather than methods of every instantiation; only
// float64 is used today (Trans_JO decodes at float64 in every tier,
// DESIGN.md §9).
package nn

import (
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// AttnKV is the growable self-attention K/V cache of one attention
// block for one hypothesis: per head, the keys and values of every
// token decoded so far, stored as [n, dh] matrices.
type AttnKV[T tensor.Float] struct {
	dh int
	// K and V hold one [n, dh] matrix per head. Their Data slices are
	// append-grown; headers are reused across appends.
	K, V []*tensor.Dense[T]
}

// NewAttnKV creates an empty cache for the given head count and head
// width, with capacity for capTokens appends before reallocation.
func NewAttnKV[T tensor.Float](heads, dh, capTokens int) *AttnKV[T] {
	c := &AttnKV[T]{dh: dh, K: make([]*tensor.Dense[T], heads), V: make([]*tensor.Dense[T], heads)}
	for h := 0; h < heads; h++ {
		c.K[h] = &tensor.Dense[T]{Data: make([]T, 0, capTokens*dh), Shape: []int{0, dh}}
		c.V[h] = &tensor.Dense[T]{Data: make([]T, 0, capTokens*dh), Shape: []int{0, dh}}
	}
	return c
}

// Len returns the number of cached tokens.
func (c *AttnKV[T]) Len() int { return c.K[0].Shape[0] }

// Append adds one token's key and value rows (each a dim-wide slice,
// split per head).
func (c *AttnKV[T]) Append(kRow, vRow []T) {
	for h := range c.K {
		seg := kRow[h*c.dh : (h+1)*c.dh]
		c.K[h].Data = append(c.K[h].Data, seg...)
		c.K[h].Shape[0]++
		seg = vRow[h*c.dh : (h+1)*c.dh]
		c.V[h].Data = append(c.V[h].Data, seg...)
		c.V[h].Shape[0]++
	}
}

// Clone deep-copies the cache — the beam-fork operation. The copy
// keeps the source's capacity so a forked beam does not reallocate on
// its next append.
func (c *AttnKV[T]) Clone() *AttnKV[T] {
	out := &AttnKV[T]{dh: c.dh, K: make([]*tensor.Dense[T], len(c.K)), V: make([]*tensor.Dense[T], len(c.V))}
	for h := range c.K {
		out.K[h] = cloneKV(c.K[h])
		out.V[h] = cloneKV(c.V[h])
	}
	return out
}

func cloneKV[T tensor.Float](t *tensor.Dense[T]) *tensor.Dense[T] {
	d := make([]T, len(t.Data), cap(t.Data))
	copy(d, t.Data)
	return &tensor.Dense[T]{Data: d, Shape: []int{t.Shape[0], t.Shape[1]}}
}

// CrossKV holds the precomputed per-head cross-attention keys and
// values of one attention block over a fixed memory. It is immutable
// after construction and safely shared by every beam of a search.
type CrossKV[T tensor.Float] struct {
	K, V []*tensor.Dense[T] // per head, [memRows, dh]
}

// newCrossKV projects the memory through the block's WK/WV once, in
// the caller's session, and copies the per-head slices out of it. The
// projections are the full forward's K = WK(mem), V = WV(mem) (same
// layer, same kernels), so cached cross-attention is bitwise identical
// to recomputing them every step.
func newCrossKV[T tensor.Float](e *ag.Session[T], a *MultiHeadAttention[*tensor.Dense[T]], mem *tensor.Dense[T]) *CrossKV[T] {
	K := a.WK.Forward(e, mem)
	V := a.WV.Forward(e, mem)
	dh := a.Dim / a.Heads
	out := &CrossKV[T]{K: make([]*tensor.Dense[T], a.Heads), V: make([]*tensor.Dense[T], a.Heads)}
	for h := 0; h < a.Heads; h++ {
		out.K[h] = sliceColsCopy(K, h*dh, (h+1)*dh)
		out.V[h] = sliceColsCopy(V, h*dh, (h+1)*dh)
	}
	return out
}

func sliceColsCopy[T tensor.Float](t *tensor.Dense[T], from, to int) *tensor.Dense[T] {
	m := t.Rows()
	out := tensor.NewOf[T](m, to-from)
	for i := 0; i < m; i++ {
		copy(out.Row(i), t.Row(i)[from:to])
	}
	return out
}

// DecCache is the full decoding state of one hypothesis: per decoder
// layer, an owned self-attention K/V cache and a shared cross-attention
// K/V cache over the encoder memory.
type DecCache[T tensor.Float] struct {
	Self  []*AttnKV[T]  // per layer; owned, deep-copied on Clone
	Cross []*CrossKV[T] // per layer; immutable, shared across clones
}

// NewCache precomputes the cross-attention K/V of every layer of the
// lowered decoder d for the given memory and returns an empty decoding
// cache with room for capTokens tokens. The cache owns its tensors: it
// stays valid after e is reset.
func NewCache[T tensor.Float](e *ag.Session[T], d *Decoder[*tensor.Dense[T]], mem *tensor.Dense[T], capTokens int) *DecCache[T] {
	c := &DecCache[T]{
		Self:  make([]*AttnKV[T], len(d.Layers)),
		Cross: make([]*CrossKV[T], len(d.Layers)),
	}
	for i, l := range d.Layers {
		heads := l.SelfAttn.Heads
		c.Self[i] = NewAttnKV[T](heads, l.SelfAttn.Dim/heads, capTokens)
		c.Cross[i] = newCrossKV(e, l.CrossAttn, mem)
	}
	return c
}

// Len returns the number of tokens decoded into the cache.
func (c *DecCache[T]) Len() int {
	if len(c.Self) == 0 {
		return 0
	}
	return c.Self[0].Len()
}

// Clone forks the hypothesis: self caches are deep-copied, cross
// caches are shared.
func (c *DecCache[T]) Clone() *DecCache[T] {
	out := &DecCache[T]{Self: make([]*AttnKV[T], len(c.Self)), Cross: c.Cross}
	for i, s := range c.Self {
		out.Self[i] = s.Clone()
	}
	return out
}

// stepAttention advances one attention block by one token for a batch of
// hypotheses. x is [nb, dim] (row i = beam i's new input); for
// self-attention (crosses == nil) each beam's K/V rows are appended to
// its cache first, so the new token attends to itself like the masked
// full forward does. The nb×heads tiny products run through the
// batched kernels, one call per step for the whole beam.
func stepAttention[T tensor.Float](e *ag.Session[T], a *MultiHeadAttention[*tensor.Dense[T]], x *tensor.Dense[T], selves []*AttnKV[T], crosses []*CrossKV[T]) *tensor.Dense[T] {
	nb := x.Rows()
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	Q := a.WQ.Forward(e, x)
	if crosses == nil {
		K := a.WK.Forward(e, x)
		V := a.WV.Forward(e, x)
		for i, s := range selves {
			s.Append(K.Row(i), V.Row(i))
		}
	}
	qs := make([]*tensor.Dense[T], nb*a.Heads)
	ks := make([]*tensor.Dense[T], nb*a.Heads)
	vs := make([]*tensor.Dense[T], nb*a.Heads)
	for i := 0; i < nb; i++ {
		for h := 0; h < a.Heads; h++ {
			qs[i*a.Heads+h] = e.RowSeg(Q, i, h*dh, (h+1)*dh)
			if crosses == nil {
				ks[i*a.Heads+h] = selves[i].K[h]
				vs[i*a.Heads+h] = selves[i].V[h]
			} else {
				ks[i*a.Heads+h] = crosses[i].K[h]
				vs[i*a.Heads+h] = crosses[i].V[h]
			}
		}
	}
	scores := e.MatMulTransBBatch(qs, ks)
	attns := make([]*tensor.Dense[T], len(scores))
	for i, s := range scores {
		attns[i] = e.SoftmaxRows(e.Scale(s, scale))
	}
	ctxs := e.MatMulBatch(attns, vs)
	out := e.Get(nb, a.Dim)
	for i := 0; i < nb; i++ {
		orow := out.Row(i)
		for h := 0; h < a.Heads; h++ {
			copy(orow[h*dh:(h+1)*dh], ctxs[i*a.Heads+h].Data)
		}
	}
	return a.WO.Forward(e, out)
}

// StepBeams advances the lowered decoder d by one token for a batch of
// hypotheses: x is [nb, dim] with row i the new input of caches[i],
// and the result row i is the decoder output for that hypothesis's
// new position — bitwise identical to row (cache.Len()) of a full
// forward over the whole prefix. Each block is DecoderLayer.Forward
// with its two attentions stepped against the caches.
func StepBeams[T tensor.Float](e *ag.Session[T], d *Decoder[*tensor.Dense[T]], x *tensor.Dense[T], caches []*DecCache[T]) *tensor.Dense[T] {
	if x.Rows() != len(caches) {
		panic("nn: StepBeams row/cache count mismatch")
	}
	selves := make([]*AttnKV[T], len(caches))
	crosses := make([]*CrossKV[T], len(caches))
	for li := range d.Layers {
		for i, c := range caches {
			selves[i] = c.Self[li]
			crosses[i] = c.Cross[li]
		}
		l := d.Layers[li]
		x = l.LN1.Forward(e, e.Add(x, stepAttention(e, l.SelfAttn, x, selves, nil)))
		x = l.LN2.Forward(e, e.Add(x, stepAttention(e, l.CrossAttn, x, nil, crosses)))
		x = l.LN3.Forward(e, e.Add(x, l.FF.Forward(e, x)))
	}
	return x
}
