// The serving form of the model, written once over the element type:
// Represent and the card/cost heads run in a session, and the one-call
// join-order inference entry point.
//
// Lowered[T] is the inference form of a Model: the *tensor.Dense[T]
// instantiation of Shared's modules and of the featurizer's encoders,
// running the same forward bodies the trained model runs on the tape.
// At float64 it aliases the trained weights (nn/lower.go) and produces
// bitwise identical numbers to the tape (eps = 0 tests in
// infer_test.go) while building no autodiff graph and drawing
// intermediates from pooled buffers; Model's own *Infer and Estimate*
// methods are this code at T = float64. At float32 (LoweredModel) the
// same code runs f32 or int8-weight kernels for the featurizer,
// serializer, Trans_Share and the card/cost heads, calibrated against
// the float64 reference by internal/calib (DESIGN.md §9).
//
// The Trans_JO decoder stays at float64 in every tier on purpose: beam
// search threads KV state through the f64 fast path, argmax join
// orders are the one output calibration demands be *identical* (not
// merely close) to the reference, and the decoder is ~a quarter of the
// parameters — so a reduced-precision replica up-converts its tiny
// [m, Dim] memory once per query and decodes at full precision. The
// resident-byte win is documented and tested: an int8 replica (weights
// int8, decoder f64) is well under half the f64 model.
package mtmlf

import (
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/featurize"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// lowerShared lowers s's modules to element type T at tier p; the
// architecture and the float64 Trans_JO decoder are shared as they are.
func lowerShared[T tensor.Float](s *Shared, p nn.Precision) *SharedOf[*tensor.Dense[T]] {
	return &SharedOf[*tensor.Dense[T]]{
		Cfg:      s.Cfg,
		JO:       s.JO,
		NodeProj: nn.LowerLinear[T](s.NodeProj, p),
		TreePos:  nn.LowerTreePositionalEncoder[T](s.TreePos, p),
		JoinEmb:  nn.LowerEmbedding[T](s.JoinEmb),
		Share:    nn.LowerEncoder[T](s.Share, p),
		CardHead: nn.LowerMLP[T](s.CardHead, p),
		CostHead: nn.LowerMLP[T](s.CostHead, p),
	}
}

// Lowered is the inference form of a Model at element type T: the
// lowered weights plus what inference reads unlowered — the
// architecture and the f64 decoder (in SharedOf), the database,
// its statistics and the raw token pipeline (Feat.Src). It does not
// reference a Model, so a replica streamed from a checkpoint
// (LoadLowered) needs none to exist. Two words, passed by value.
type Lowered[T tensor.Float] struct {
	*SharedOf[*tensor.Dense[T]]
	// Feat holds the lowered per-table featurizer encoders.
	Feat *featurize.Lowered[T]
}

// LoweredModel is a reduced-precision (f32 or int8-weight) serving
// replica: lowered from a Model (Lower) or built straight from a
// checkpoint stream (LoadLowered), afresh on every reload.
type LoweredModel = Lowered[float32]

// DB returns the database the replica serves.
func (lm Lowered[T]) DB() *sqldb.DB { return lm.Feat.Src.DB }

// Lower builds a reduced-precision serving replica of m. p must be
// PrecisionF32 or PrecisionInt8; the f64 tier serves from m itself.
func (m *Model) Lower(p nn.Precision) *LoweredModel {
	if p == nn.PrecisionF64 {
		panic("mtmlf: Lower(PrecisionF64) — serve the source model directly")
	}
	return &LoweredModel{
		SharedOf: lowerShared[float32](m.Shared, p),
		Feat:     featurize.Lower[float32](m.Feat, p),
	}
}

// Reference returns the float64 inference form of m — the reference
// serving tier. It is assembled per call from the views NewShared and
// the featurizer built once over their own weights, because a Model is
// a free pairing of the two that callers re-pair at will.
func (m *Model) Reference() Lowered[float64] {
	return Lowered[float64]{SharedOf: m.Shared.f64, Feat: m.Feat.Reference()}
}

// Memoized returns a copy of lm whose featurizer keeps the table
// encodings it computes (featurize/memo.go), counting into c. Only a
// holder of weights that never change again may call it — the serve
// bundle. A model whose featurizer is not frozen (a loaded one never is)
// keeps Reference and Lower uncached: an independent check on a memo.
func (lm Lowered[T]) Memoized(c *featurize.MemoCounters) *Lowered[T] {
	lm.Feat = lm.Feat.Memoized(c)
	return &lm
}

// RepresentInfer runs Represent's body in the session e. The returned
// tensors live in e's pool: they are valid until e.Reset() (or
// Release) and must be cloned to outlive it.
func (lm Lowered[T]) RepresentInfer(e *ag.Session[T], q *sqldb.Query, p *plan.Node) *Rep[*tensor.Dense[T]] {
	return represent(lm.SharedOf, e, e, lm.Feat, q, p)
}

// PredictLogCardsInfer returns the per-node log-cardinality
// predictions on the fast path.
func (lm Lowered[T]) PredictLogCardsInfer(e *ag.Session[T], rep *Rep[*tensor.Dense[T]]) *tensor.Dense[T] {
	return lm.CardHead.Forward(e, rep.S)
}

// PredictLogCostsInfer returns the per-node log-cost predictions on
// the fast path.
func (lm Lowered[T]) PredictLogCostsInfer(e *ag.Session[T], rep *Rep[*tensor.Dense[T]]) *tensor.Dense[T] {
	return lm.CostHead.Forward(e, rep.S)
}

// ExpClamp maps log-space head outputs to estimates: exponentiated
// with the exponent clamped (an untrained model cannot overflow) and
// floored at 1. Exported for the serving layer, which must clamp
// exactly like the serial estimators. It copies into a fresh float64
// slice, so no pooled memory escapes the session.
func ExpClamp[T tensor.Float](logs []T) []float64 {
	out := make([]float64, len(logs))
	for i, v := range logs {
		x := float64(v)
		if x > 40 {
			x = 40
		}
		e := math.Exp(x)
		if e < 1 {
			e = 1
		}
		out[i] = e
	}
	return out
}

// EstimateNodeCards runs inference and returns per-node cardinality
// estimates (exponentiated, clamped to >= 1).
func (lm Lowered[T]) EstimateNodeCards(lq *workload.LabeledQuery) []float64 {
	e := ag.Acquire[T]()
	defer ag.Release(e)
	rep := lm.RepresentInfer(e, lq.Q, lq.Plan)
	return ExpClamp(lm.PredictLogCardsInfer(e, rep).Data)
}

// EstimateNodeCosts runs inference and returns per-node cost estimates.
func (lm Lowered[T]) EstimateNodeCosts(lq *workload.LabeledQuery) []float64 {
	e := ag.Acquire[T]()
	defer ag.Release(e)
	rep := lm.RepresentInfer(e, lq.Q, lq.Plan)
	return ExpClamp(lm.PredictLogCostsInfer(e, rep).Data)
}

// EstimateRoot returns the root cardinality and cost estimates in one
// forward pass.
func (lm Lowered[T]) EstimateRoot(lq *workload.LabeledQuery) (card, costv float64) {
	e := ag.Acquire[T]()
	defer ag.Release(e)
	rep := lm.RepresentInfer(e, lq.Q, lq.Plan)
	cards := ExpClamp(lm.PredictLogCardsInfer(e, rep).Data)
	costs := ExpClamp(lm.PredictLogCostsInfer(e, rep).Data)
	return cards[len(cards)-1], costs[len(costs)-1]
}

// InferJoinOrder predicts the join order for a query end to end: one
// no-grad Represent, then KV-cached constrained beam search by the
// float64 Trans_JO over the [m, Dim] memory (converted
// once when T is not float64; see the package comment for why the
// decoder is not lowered). This is what the experiment tables and CLIs
// serve from; at float64 it returns the same order as Represent +
// JoinOrderFor.
func (lm Lowered[T]) InferJoinOrder(q *sqldb.Query, p *plan.Node) []string {
	e := ag.Acquire[T]()
	defer ag.Release(e)
	rep := lm.RepresentInfer(e, q, p)
	best, ok := BestBeam(lm.JO.BeamSearchTensor(rep.Memory.ToTensor(), q, lm.Cfg.BeamWidth, true))
	if !ok {
		return nil
	}
	return best.OrderTables(rep.Tables)
}

// ParamBytes returns the resident parameter bytes of the replica: the
// lowered weights plus the float64 Trans_JO decoder.
func (lm Lowered[T]) ParamBytes() int {
	n := lm.NodeProj.Bytes() + lm.TreePos.Bytes() + lm.JoinEmb.Bytes() +
		lm.Share.Bytes() + lm.CardHead.Bytes() + lm.CostHead.Bytes() + lm.Feat.Bytes()
	for _, p := range lm.JO.Params() {
		n += 8 * p.T.Size()
	}
	return n
}

// ParamBytes returns the resident parameter bytes of the float64
// model (8 bytes per scalar) — the baseline the lowered replicas are
// sized against.
func (m *Model) ParamBytes() int {
	n := 0
	for _, p := range m.Params() {
		n += 8 * p.T.Size()
	}
	return n
}

// The float64 serving surface of a Model: each method is the Lowered
// method of the same name on m.Reference(). They stay on *Model
// because every non-generic caller — the experiments, the CLIs, and
// the frozen benchmark (bench/serve.go, bench/servetrace.go) — holds a
// *Model and calls them by these names.

// RepresentInfer is Lowered.RepresentInfer at float64.
func (m *Model) RepresentInfer(e *ag.Eval, q *sqldb.Query, p *plan.Node) *InferRep {
	return m.Reference().RepresentInfer(e, q, p)
}

// PredictLogCardsInfer is Lowered.PredictLogCardsInfer at float64.
func (m *Model) PredictLogCardsInfer(e *ag.Eval, rep *InferRep) *tensor.Tensor {
	return m.Reference().PredictLogCardsInfer(e, rep)
}

// PredictLogCostsInfer is Lowered.PredictLogCostsInfer at float64.
func (m *Model) PredictLogCostsInfer(e *ag.Eval, rep *InferRep) *tensor.Tensor {
	return m.Reference().PredictLogCostsInfer(e, rep)
}

// EstimateNodeCards is Lowered.EstimateNodeCards at float64:
// numerically identical to the grad-tracked forward.
func (m *Model) EstimateNodeCards(lq *workload.LabeledQuery) []float64 {
	return m.Reference().EstimateNodeCards(lq)
}

// EstimateNodeCosts is Lowered.EstimateNodeCosts at float64.
func (m *Model) EstimateNodeCosts(lq *workload.LabeledQuery) []float64 {
	return m.Reference().EstimateNodeCosts(lq)
}

// EstimateRoot is Lowered.EstimateRoot at float64.
func (m *Model) EstimateRoot(lq *workload.LabeledQuery) (card, costv float64) {
	return m.Reference().EstimateRoot(lq)
}

// InferJoinOrder is Lowered.InferJoinOrder at float64.
func (m *Model) InferJoinOrder(q *sqldb.Query, p *plan.Node) []string {
	return m.Reference().InferJoinOrder(q, p)
}
