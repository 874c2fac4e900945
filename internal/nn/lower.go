// Lowering: the one pass that turns a trained layer (the *ag.Value
// instantiation) into a serving replica (the *tensor.Dense[T] one), at
// any element type.
//
// At float64 lowering ALIASES: tensor.Convert returns the trained
// tensor itself, so a float64 lowered layer is a view of the layer it
// came from. The view never goes stale because nothing ever replaces
// an ag.Value's tensor — optimizers, DecodeParams and CopyParams all
// write into T.Data in place — so it is built once, next to the
// trained layers, and every later weight update is visible through it.
//
// At float32 lowering CONVERTS, one-way and serving-only: the float64
// model remains the single source of truth for training, checkpoints,
// and the eps=0 bitwise contracts, and a reduced-precision replica is
// a derived artifact rebuilt from it at load/reload time. Across tiers
// agreement with the float64 reference is *calibrated*, not bitwise —
// internal/calib enforces the q-error budgets (DESIGN.md §9).
//
// At PrecisionInt8 every Linear weight is quantized per output channel
// (tensor.QuantizeLinear) while biases, layer norms, embeddings and
// learned tokens stay float32 — they are a rounding error of the
// resident bytes and their dynamic range does not survive 8 bits.
package nn

import (
	"fmt"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// Precision selects the numeric tier an inference replica runs at.
// The zero value is the full float64 reference path.
type Precision int

// Supported precision tiers.
const (
	PrecisionF64 Precision = iota
	PrecisionF32
	PrecisionInt8
)

// String returns the flag spelling of p ("f64", "f32", "int8").
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	case PrecisionInt8:
		return "int8"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// ParsePrecision parses a -precision flag value.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return PrecisionF64, nil
	case "f32", "float32":
		return PrecisionF32, nil
	case "int8":
		return PrecisionInt8, nil
	}
	return 0, fmt.Errorf("nn: unknown precision %q (want f64, f32 or int8)", s)
}

// LowerLinear lowers a trained linear layer to element type T; at
// PrecisionInt8 the weight is quantized instead of converted.
func LowerLinear[T tensor.Float](l *Linear[*ag.Value], p Precision) *Linear[*tensor.Dense[T]] {
	ll := &Linear[*tensor.Dense[T]]{B: tensor.Convert[T](l.B.T)}
	if p == PrecisionInt8 {
		ll.W8 = tensor.QuantizeLinear(l.W.T)
	} else {
		ll.W = tensor.Convert[T](l.W.T)
	}
	return ll
}

// LowerEmbedding lowers an embedding table.
func LowerEmbedding[T tensor.Float](emb *Embedding[*ag.Value]) *Embedding[*tensor.Dense[T]] {
	return &Embedding[*tensor.Dense[T]]{W: tensor.Convert[T](emb.W.T)}
}

// LowerLayerNorm lowers a layer norm.
func LowerLayerNorm[T tensor.Float](l *LayerNorm[*ag.Value]) *LayerNorm[*tensor.Dense[T]] {
	return &LayerNorm[*tensor.Dense[T]]{
		Gamma: tensor.Convert[T](l.Gamma.T),
		Beta:  tensor.Convert[T](l.Beta.T),
		Eps:   l.Eps,
	}
}

// LowerMLP lowers an MLP.
func LowerMLP[T tensor.Float](m *MLP[*ag.Value], p Precision) *MLP[*tensor.Dense[T]] {
	lm := &MLP[*tensor.Dense[T]]{Act: m.Act}
	for _, l := range m.Layers {
		lm.Layers = append(lm.Layers, LowerLinear[T](l, p))
	}
	return lm
}

// LowerMultiHeadAttention lowers an attention block.
func LowerMultiHeadAttention[T tensor.Float](a *MultiHeadAttention[*ag.Value], p Precision) *MultiHeadAttention[*tensor.Dense[T]] {
	return &MultiHeadAttention[*tensor.Dense[T]]{
		WQ:    LowerLinear[T](a.WQ, p),
		WK:    LowerLinear[T](a.WK, p),
		WV:    LowerLinear[T](a.WV, p),
		WO:    LowerLinear[T](a.WO, p),
		Heads: a.Heads,
		Dim:   a.Dim,
	}
}

// LowerEncoder lowers an encoder stack.
func LowerEncoder[T tensor.Float](enc *Encoder[*ag.Value], p Precision) *Encoder[*tensor.Dense[T]] {
	out := &Encoder[*tensor.Dense[T]]{}
	for _, l := range enc.Layers {
		out.Layers = append(out.Layers, &EncoderLayer[*tensor.Dense[T]]{
			Attn: LowerMultiHeadAttention[T](l.Attn, p),
			FF:   LowerMLP[T](l.FF, p),
			LN1:  LowerLayerNorm[T](l.LN1),
			LN2:  LowerLayerNorm[T](l.LN2),
		})
	}
	return out
}

// LowerDecoder lowers a decoder stack.
func LowerDecoder[T tensor.Float](d *Decoder[*ag.Value], p Precision) *Decoder[*tensor.Dense[T]] {
	out := &Decoder[*tensor.Dense[T]]{}
	for _, l := range d.Layers {
		out.Layers = append(out.Layers, &DecoderLayer[*tensor.Dense[T]]{
			SelfAttn:  LowerMultiHeadAttention[T](l.SelfAttn, p),
			CrossAttn: LowerMultiHeadAttention[T](l.CrossAttn, p),
			FF:        LowerMLP[T](l.FF, p),
			LN1:       LowerLayerNorm[T](l.LN1),
			LN2:       LowerLayerNorm[T](l.LN2),
			LN3:       LowerLayerNorm[T](l.LN3),
		})
	}
	return out
}

// LowerTreePositionalEncoder lowers the tree positional encoder. The
// replica shares its source's RawFeature memo: the raw 0/1 features
// are exact in every tier.
func LowerTreePositionalEncoder[T tensor.Float](t *TreePositionalEncoder[*ag.Value], p Precision) *TreePositionalEncoder[*tensor.Dense[T]] {
	return &TreePositionalEncoder[*tensor.Dense[T]]{MaxDepth: t.MaxDepth, Proj: LowerLinear[T](t.Proj, p), raw: t.raw}
}
