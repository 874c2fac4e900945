// Package nn provides the neural-network layers the MTMLF models are
// assembled from: linear layers, embeddings, layer normalization, MLPs,
// multi-head attention, transformer encoder/decoder stacks, positional
// encodings (including the tree positional encoding used by the paper's
// plan serializer), the Adam optimizer, and parameter serialization.
//
// Every layer satisfies Module, which exposes its trainable parameters
// in a deterministic order so optimizers and the tensor-record
// serializer can walk them.
package nn

import (
	"math/rand"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// Module is anything with trainable parameters.
type Module interface {
	// Params returns the trainable parameters in a stable order.
	Params() []*ag.Value
}

// ParamCount returns the total number of scalar parameters in m.
func ParamCount(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.T.Size()
	}
	return n
}

// CollectParams concatenates the parameters of several modules.
func CollectParams(ms ...Module) []*ag.Value {
	var out []*ag.Value
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// Linear is a fully connected layer y = x W + b.
type Linear struct {
	W *ag.Value // [in, out]
	B *ag.Value // [1, out]
}

// NewLinear creates a Glorot-initialized linear layer.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	return &Linear{
		W: ag.Param(tensor.Xavier(rng, in, out)),
		B: ag.Param(tensor.New(1, out)),
	}
}

// Forward applies the layer to x [n, in] producing [n, out].
func (l *Linear) Forward(x *ag.Value) *ag.Value {
	return ag.AddBias(ag.MatMul(x, l.W), l.B)
}

// Params implements Module.
func (l *Linear) Params() []*ag.Value { return []*ag.Value{l.W, l.B} }

// Embedding maps integer ids to learned dense rows.
type Embedding struct {
	W *ag.Value // [vocab, dim]
}

// NewEmbedding creates an embedding table with N(0, 0.02) rows, the
// conventional transformer initialization.
func NewEmbedding(rng *rand.Rand, vocab, dim int) *Embedding {
	return &Embedding{W: ag.Param(tensor.RandNorm(rng, vocab, dim, 0.02))}
}

// Forward looks up the rows for ids, in order.
func (e *Embedding) Forward(ids []int) *ag.Value { return ag.Gather(e.W, ids) }

// Params implements Module.
func (e *Embedding) Params() []*ag.Value { return []*ag.Value{e.W} }

// LayerNorm normalizes each row and applies learned gain/bias.
type LayerNorm struct {
	Gamma *ag.Value
	Beta  *ag.Value
	Eps   float64
}

// NewLayerNorm creates an identity-initialized layer norm of width dim.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{
		Gamma: ag.Param(tensor.Full(1, 1, dim)),
		Beta:  ag.Param(tensor.New(1, dim)),
		Eps:   1e-5,
	}
}

// Forward applies the normalization.
func (l *LayerNorm) Forward(x *ag.Value) *ag.Value {
	return ag.LayerNormRows(x, l.Gamma, l.Beta, l.Eps)
}

// Params implements Module.
func (l *LayerNorm) Params() []*ag.Value { return []*ag.Value{l.Gamma, l.Beta} }

// Activation selects the nonlinearity used by MLP hidden layers.
type Activation int

// Supported activations.
const (
	ActReLU Activation = iota
	ActGELU
	ActTanh
)

func applyAct(a Activation, x *ag.Value) *ag.Value {
	switch a {
	case ActReLU:
		return ag.ReLU(x)
	case ActGELU:
		return ag.GELU(x)
	case ActTanh:
		return ag.Tanh(x)
	default:
		panic("nn: unknown activation")
	}
}

// MLP is a stack of linear layers with a nonlinearity between them
// (none after the last). The paper's M_CardEst and M_CostEst heads are
// two-layer MLPs of this type.
type MLP struct {
	Layers []*Linear
	Act    Activation
}

// NewMLP builds an MLP with the given layer widths, e.g. dims =
// [in, hidden, out] builds a two-layer network.
func NewMLP(rng *rand.Rand, act Activation, dims ...int) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least [in, out] dims")
	}
	m := &MLP{Act: act}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(rng, dims[i], dims[i+1]))
	}
	return m
}

// Forward applies the stack.
func (m *MLP) Forward(x *ag.Value) *ag.Value {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x = applyAct(m.Act, x)
		}
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*ag.Value {
	var out []*ag.Value
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Dropout randomly zeroes entries during training (inverted dropout).
// With Train == false it is the identity, so inference is deterministic.
type Dropout struct {
	P     float64
	Train bool
	rng   *rand.Rand
}

// NewDropout creates a dropout layer with keep probability 1-p.
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	return &Dropout{P: p, rng: rng}
}

// Forward applies dropout when training.
func (d *Dropout) Forward(x *ag.Value) *ag.Value {
	if !d.Train || d.P <= 0 {
		return x
	}
	mask := tensor.New(x.T.Shape...)
	scale := 1 / (1 - d.P)
	for i := range mask.Data {
		if d.rng.Float64() >= d.P {
			mask.Data[i] = scale
		}
	}
	return ag.Mul(x, ag.Const(mask))
}

// Params implements Module (dropout has none).
func (d *Dropout) Params() []*ag.Value { return nil }
