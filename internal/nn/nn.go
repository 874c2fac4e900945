// Package nn provides the neural-network layers the MTMLF models are
// assembled from: linear layers, embeddings, layer normalization, MLPs,
// multi-head attention, transformer encoder/decoder stacks, the tree
// positional encoding used by the paper's plan serializer, the Adam
// optimizer, and parameter serialization.
//
// Every layer is one generic type over its value type V, with one
// Forward written over ag.Ops[V]. The trained layer is the *ag.Value
// instantiation, run on an ag.Tape; a serving replica is the
// *tensor.Dense[T] instantiation lowered from it (lower.go), run on an
// ag.Session[T]. Trained layers satisfy Module, which exposes their
// parameters in a deterministic order so optimizers and the
// tensor-record serializer can walk them.
package nn

import (
	"math/rand"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// Tensor is what a layer holds its weights as: a tape node (*ag.Value)
// or a session tensor (*tensor.Dense[T]).
type Tensor interface {
	// Bytes returns the resident bytes of the tensor.
	Bytes() int
}

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the trainable parameters in a stable order.
	Params() []*ag.Value
}

// CollectParams concatenates the parameters of several modules.
func CollectParams(ms ...Module) []*ag.Value {
	var out []*ag.Value
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// Linear is a fully connected layer y = x W + b. A lowered layer holds
// float weights (W) or, in the int8 tier, per-channel quantized weights
// (W8) — exactly one of the two is set. Int8 is this variant of the
// layer, not a separate path: everything around the product is shared.
type Linear[V Tensor] struct {
	W  V                  // [in, out]
	W8 *tensor.Int8Matrix // int8 tier (stored transposed [out, in])
	B  V                  // [1, out]
}

// NewLinear creates a Glorot-initialized linear layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear[*ag.Value] {
	return &Linear[*ag.Value]{
		W: ag.Param(tensor.Xavier(rng, in, out)),
		B: ag.Param(tensor.New(1, out)),
	}
}

// Forward applies the layer to x [n, in] producing [n, out].
func (l *Linear[V]) Forward(o ag.Ops[V], x V) V {
	if l.W8 != nil {
		return o.LinearInt8(x, l.W8, l.B)
	}
	return o.AddBias(o.MatMul(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear[V]) Params() []V { return []V{l.W, l.B} }

// Bytes returns the resident weight bytes of the layer.
func (l *Linear[V]) Bytes() int {
	if l.W8 != nil {
		return l.B.Bytes() + l.W8.Bytes()
	}
	return l.B.Bytes() + l.W.Bytes()
}

// Embedding maps integer ids to learned dense rows (never quantized:
// lookup rows feed matmuls as activations, not weights).
type Embedding[V Tensor] struct {
	W V // [vocab, dim]
}

// NewEmbedding creates an embedding table with N(0, 0.02) rows, the
// conventional transformer initialization.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding[*ag.Value] {
	return &Embedding[*ag.Value]{W: ag.Param(tensor.RandNorm(rng, vocab, dim, 0.02))}
}

// Forward looks up the rows for ids, in order.
func (e *Embedding[V]) Forward(o ag.Ops[V], ids []int) V { return o.Gather(e.W, ids) }

// Params implements Module.
func (e *Embedding[V]) Params() []V { return []V{e.W} }

// Bytes returns the resident bytes of the table.
func (e *Embedding[V]) Bytes() int { return e.W.Bytes() }

// LayerNorm normalizes each row and applies learned gain/bias.
type LayerNorm[V Tensor] struct {
	Gamma, Beta V
	Eps         float64
}

// NewLayerNorm creates an identity-initialized layer norm of width dim.
func NewLayerNorm(dim int) *LayerNorm[*ag.Value] {
	return &LayerNorm[*ag.Value]{
		Gamma: ag.Param(tensor.Full(1, 1, dim)),
		Beta:  ag.Param(tensor.New(1, dim)),
		Eps:   1e-5,
	}
}

// Forward applies the normalization.
func (l *LayerNorm[V]) Forward(o ag.Ops[V], x V) V {
	return o.LayerNormRows(x, l.Gamma, l.Beta, l.Eps)
}

// Params implements Module.
func (l *LayerNorm[V]) Params() []V { return []V{l.Gamma, l.Beta} }

// Bytes returns the resident bytes of the gain/bias rows.
func (l *LayerNorm[V]) Bytes() int { return l.Gamma.Bytes() + l.Beta.Bytes() }

// Activation selects the nonlinearity used by MLP hidden layers.
type Activation int

// Supported activations.
const (
	ActReLU Activation = iota
	ActGELU
	ActTanh
)

func applyAct[V any](o ag.Ops[V], a Activation, x V) V {
	switch a {
	case ActReLU:
		return o.ReLU(x)
	case ActGELU:
		return o.GELU(x)
	case ActTanh:
		return o.Tanh(x)
	default:
		panic("nn: unknown activation")
	}
}

// MLP is a stack of linear layers with a nonlinearity between them
// (none after the last). The paper's M_CardEst and M_CostEst heads are
// two-layer MLPs of this type.
type MLP[V Tensor] struct {
	Layers []*Linear[V]
	Act    Activation
}

// NewMLP builds an MLP with the given layer widths, e.g. dims =
// [in, hidden, out] builds a two-layer network.
func NewMLP(rng *rand.Rand, act Activation, dims ...int) *MLP[*ag.Value] {
	if len(dims) < 2 {
		panic("nn: MLP needs at least [in, out] dims")
	}
	m := &MLP[*ag.Value]{Act: act}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, dims[i], dims[i+1]))
	}
	return m
}

// Forward applies the stack.
func (m *MLP[V]) Forward(o ag.Ops[V], x V) V {
	for i, l := range m.Layers {
		x = l.Forward(o, x)
		if i+1 < len(m.Layers) {
			x = applyAct(o, m.Act, x)
		}
	}
	return x
}

// Params implements Module.
func (m *MLP[V]) Params() []V {
	var out []V
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Bytes returns the resident bytes of the stack.
func (m *MLP[V]) Bytes() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Bytes()
	}
	return n
}
