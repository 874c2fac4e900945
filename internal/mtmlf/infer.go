// The serving fast path of the model, written once over the element
// type: the no-grad twins of Represent and the card/cost heads, and
// the one-call join-order inference entry point.
//
// Lowered[T] is the inference form of a Model. At float64 it aliases
// the trained weights (nn/lower.go) and every function here produces
// bitwise identical numbers to the grad-tracked pipeline (eps = 0
// tests in infer_test.go) while building no autodiff graph and drawing
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
	"fmt"
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/featurize"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// LoweredShared is the inference form of a Shared: the (F.iii)
// serializer, the (S) module and the card/cost (T) heads at element
// type T, next to the two things every tier reads as they are — the
// architecture and the float64 Trans_JO decoder.
type LoweredShared[T tensor.Float] struct {
	Cfg Config
	JO  *JoinOrder

	NodeProj *nn.LoweredLinear[T]
	TreePos  *nn.LoweredTreePos[T]
	JoinEmb  *nn.LoweredEmbedding[T]
	Share    *nn.LoweredEncoder[T]
	CardHead *nn.LoweredMLP[T]
	CostHead *nn.LoweredMLP[T]
}

func lowerShared[T tensor.Float](s *Shared, p nn.Precision) *LoweredShared[T] {
	return &LoweredShared[T]{
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
// architecture and the f64 decoder (in LoweredShared), the database,
// its statistics and the raw token pipeline (Feat.Src). It does not
// reference a Model, so a replica streamed from a checkpoint
// (LoadLowered) needs none to exist. Two words, passed by value.
type Lowered[T tensor.Float] struct {
	*LoweredShared[T]
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
		LoweredShared: lowerShared[float32](m.Shared, p),
		Feat:          featurize.Lower[float32](m.Feat, p),
	}
}

// Reference returns the float64 inference form of m — the reference
// serving tier. It is assembled per call from the views NewShared and
// the featurizer built once over their own weights, because a Model is
// a free pairing of the two that callers re-pair at will.
func (m *Model) Reference() Lowered[float64] {
	return Lowered[float64]{LoweredShared: m.Shared.f64, Feat: m.Feat.Reference()}
}

// Memoized returns a copy of lm whose featurizer keeps the table
// encodings it computes (featurize/memo.go), counting into c. Only a
// holder of weights that never change again may call it — the serve
// bundle; Reference and Lower themselves stay uncached, so every other
// caller is an independent check on a memoized answer.
func (lm Lowered[T]) Memoized(c *featurize.MemoCounters) *Lowered[T] {
	lm.Feat = lm.Feat.Memoized(c)
	return &lm
}

// Rep is the no-grad counterpart of Representation: raw tensors owned
// by the session that produced them (valid until its Reset).
type Rep[T tensor.Float] struct {
	// S holds the shared representation, one row per plan node in
	// post-order.
	S *tensor.Dense[T]
	// Memory holds the leaf rows of S in q.Tables order.
	Memory *tensor.Dense[T]
	// Tables is the memory row order (== q.Tables).
	Tables []string
}

// InferRep and InferRepF32 are Rep at the two element types in use.
type (
	InferRep    = Rep[float64]
	InferRepF32 = Rep[float32]
)

// RepresentInfer runs the I→F→S dataflow on the session fast path,
// mirroring Model.Represent op for op. The returned tensors live in
// e's pool: they are valid until e.Reset() (or Release) and must be
// cloned to outlive it.
func (lm Lowered[T]) RepresentInfer(e *ag.Session[T], q *sqldb.Query, p *plan.Node) *Rep[T] {
	cfg := lm.Cfg
	db := lm.DB()
	if len(db.Tables) > cfg.MaxTables {
		panic(fmt.Sprintf("mtmlf: database has %d tables, model supports %d", len(db.Tables), cfg.MaxTables))
	}
	nodes := p.Nodes()
	paths := p.Paths()

	fixedW := cfg.MaxTables + plan.NumScanOps + plan.NumJoinOps + 2
	rows := make([]*tensor.Dense[T], len(nodes))
	leafRow := map[string]int{}
	for i, n := range nodes {
		fixed := e.Get(1, fixedW)
		for _, t := range n.Tables() {
			idx := db.TableIndex(t)
			if idx < 0 {
				panic(fmt.Sprintf("mtmlf: plan references unknown table %q", t))
			}
			fixed.Data[idx] = 1
		}
		estCard := lm.Feat.Src.Stats.EstimateSubplanCard(n.Tables(), q)
		fixed.Data[fixedW-1] = T(math.Log(estCard+1) / 20)
		var embPart *tensor.Dense[T]
		if n.IsLeaf() {
			fixed.Data[cfg.MaxTables+int(n.Scan)] = 1
			embPart = lm.Feat.EncodeTableInfer(e, n.Table, q.FiltersFor(n.Table))
			leafRow[n.Table] = i
		} else {
			fixed.Data[cfg.MaxTables+plan.NumScanOps+int(n.Join)] = 1
			fixed.Data[fixedW-2] = 1 // isJoin flag
			embPart = lm.JoinEmb.Infer(e, []int{int(n.Join)})
		}
		rows[i] = e.ConcatCols(fixed, embPart)
	}
	raw := e.ConcatRows(rows...)
	x := lm.NodeProj.Infer(e, raw)

	tp := make([]nn.TreePath, len(paths))
	for i, p := range paths {
		tp[i] = nn.TreePath(p)
	}
	x = e.Add(x, lm.TreePos.Infer(e, tp))

	S := lm.Share.Infer(e, x, nil)

	mem := e.Get(len(q.Tables), cfg.Dim)
	for i, t := range q.Tables {
		ri, ok := leafRow[t]
		if !ok {
			panic(fmt.Sprintf("mtmlf: query table %q missing from plan", t))
		}
		copy(mem.Row(i), S.Row(ri))
	}
	return &Rep[T]{S: S, Memory: mem, Tables: append([]string{}, q.Tables...)}
}

// PredictLogCardsInfer returns the per-node log-cardinality
// predictions on the fast path.
func (lm Lowered[T]) PredictLogCardsInfer(e *ag.Session[T], rep *Rep[T]) *tensor.Dense[T] {
	return lm.CardHead.Infer(e, rep.S)
}

// PredictLogCostsInfer returns the per-node log-cost predictions on
// the fast path.
func (lm Lowered[T]) PredictLogCostsInfer(e *ag.Session[T], rep *Rep[T]) *tensor.Dense[T] {
	return lm.CostHead.Infer(e, rep.S)
}

// ExpClamp maps log-space head outputs to estimates: exponentiated
// with the exponent clamped (an untrained model cannot overflow) and
// floored at 1. Exported for the serving layer, whose fused
// micro-batch path must clamp exactly like the serial estimators. It
// copies into a fresh float64 slice, so no pooled memory escapes the
// session.
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
