// Package treelstm implements the child-sum Tree-LSTM plan estimator
// of Sun & Li ("An End-to-End Learning-based Cost Estimator"), the
// previous state-of-the-art baseline MTMLF-QO is compared against in
// the paper's Table 1. The plan tree is encoded bottom-up: each node
// combines its feature vector with its children's hidden states
// through an LSTM cell, and per-node MLP heads read cardinality and
// cost estimates off the hidden state.
package treelstm

import (
	"math"
	"math/rand"

	"mtmlf/internal/ag"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// Config sizes the model.
type Config struct {
	// Dim is the hidden state width.
	Dim int
	// MaxTables bounds the table one-hot width.
	MaxTables int
	// LR is the Adam learning rate.
	LR float64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config { return Config{Dim: 32, MaxTables: 24, LR: 1e-3} }

// featWidth is the node feature width: table multi-hot, scan/join
// one-hots, isJoin flag, and 4 statistic features (estimated log
// selectivity, filter count, LIKE count, log table size).
func (c Config) featWidth() int {
	return c.MaxTables + plan.NumScanOps + plan.NumJoinOps + 1 + 4
}

// Model is a Tree-LSTM estimator bound to one database.
type Model struct {
	Cfg   Config
	DB    *sqldb.DB
	Stats *stats.DBStats

	// Child-sum LSTM cell parameters: gate(x, h) = Wx·x + Uh·h.
	wi, ui *nn.Linear[*ag.Value]
	wf, uf *nn.Linear[*ag.Value]
	wo, uo *nn.Linear[*ag.Value]
	wu, uu *nn.Linear[*ag.Value]

	cardHead *nn.MLP[*ag.Value]
	costHead *nn.MLP[*ag.Value]
}

// New builds a model with ANALYZE statistics for featurization.
func New(db *sqldb.DB, cfg Config, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := cfg.featWidth()
	d := cfg.Dim
	return &Model{
		Cfg:   cfg,
		DB:    db,
		Stats: stats.Analyze(db),
		wi:    nn.NewLinear(rng, w, d), ui: nn.NewLinear(rng, d, d),
		wf: nn.NewLinear(rng, w, d), uf: nn.NewLinear(rng, d, d),
		wo: nn.NewLinear(rng, w, d), uo: nn.NewLinear(rng, d, d),
		wu: nn.NewLinear(rng, w, d), uu: nn.NewLinear(rng, d, d),
		cardHead: nn.NewMLP(rng, nn.ActGELU, d, d, 1),
		costHead: nn.NewMLP(rng, nn.ActGELU, d, d, 1),
	}
}

// Params implements nn.Module.
func (m *Model) Params() []*ag.Value {
	return nn.CollectParams(m.wi, m.ui, m.wf, m.uf, m.wo, m.uo, m.wu, m.uu, m.cardHead, m.costHead)
}

// nodeFeature builds the input vector of one plan node.
func (m *Model) nodeFeature(q *sqldb.Query, n *plan.Node) *tensor.Tensor {
	cfg := m.Cfg
	f := tensor.New(1, cfg.featWidth())
	for _, t := range n.Tables() {
		if i := m.DB.TableIndex(t); i >= 0 && i < cfg.MaxTables {
			f.Data[i] = 1
		}
	}
	off := cfg.MaxTables
	if n.IsLeaf() {
		f.Data[off+int(n.Scan)] = 1
	} else {
		f.Data[off+plan.NumScanOps+int(n.Join)] = 1
		f.Data[off+plan.NumScanOps+plan.NumJoinOps] = 1
	}
	off += plan.NumScanOps + plan.NumJoinOps + 1
	if n.IsLeaf() {
		filters := q.FiltersFor(n.Table)
		est := m.Stats.EstimateTableCard(n.Table, filters)
		rows := float64(m.DB.Table(n.Table).NumRows())
		f.Data[off] = math.Log(est+1) / 20
		f.Data[off+1] = float64(len(filters)) / 4
		likes := 0
		for _, fl := range filters {
			if fl.Op == sqldb.OpLike {
				likes++
			}
		}
		f.Data[off+2] = float64(likes) / 4
		f.Data[off+3] = math.Log(rows+1) / 20
	}
	return f
}

// state is the (h, c) pair of one subtree.
type state struct{ h, c *ag.Value }

// cell applies the child-sum Tree-LSTM cell.
func (m *Model) cell(x *ag.Value, children []state) state {
	var hsum *ag.Value
	if len(children) == 0 {
		hsum = ag.Const(tensor.New(1, m.Cfg.Dim))
	} else {
		hsum = children[0].h
		for _, ch := range children[1:] {
			hsum = ag.Add(hsum, ch.h)
		}
	}
	i := ag.Sigmoid(ag.Add(m.wi.Forward(ag.Tape{}, x), m.ui.Forward(ag.Tape{}, hsum)))
	o := ag.Sigmoid(ag.Add(m.wo.Forward(ag.Tape{}, x), m.uo.Forward(ag.Tape{}, hsum)))
	u := ag.Tanh(ag.Add(m.wu.Forward(ag.Tape{}, x), m.uu.Forward(ag.Tape{}, hsum)))
	c := ag.Mul(i, u)
	for _, ch := range children {
		fk := ag.Sigmoid(ag.Add(m.wf.Forward(ag.Tape{}, x), m.uf.Forward(ag.Tape{}, ch.h)))
		c = ag.Add(c, ag.Mul(fk, ch.c))
	}
	return state{h: ag.Mul(o, ag.Tanh(c)), c: c}
}

// encode returns the hidden state of every node in post-order.
func (m *Model) encode(q *sqldb.Query, root *plan.Node) []*ag.Value {
	var hs []*ag.Value
	var rec func(n *plan.Node) state
	rec = func(n *plan.Node) state {
		var children []state
		if !n.IsLeaf() {
			children = []state{rec(n.Left), rec(n.Right)}
		}
		s := m.cell(ag.Const(m.nodeFeature(q, n)), children)
		hs = append(hs, s.h)
		return s
	}
	rec(root)
	return hs
}

// forward produces per-node log-card and log-cost predictions.
func (m *Model) forward(q *sqldb.Query, root *plan.Node) (cards, costs *ag.Value) {
	hs := m.encode(q, root)
	h := ag.ConcatRows(hs...)
	return m.cardHead.Forward(ag.Tape{}, h), m.costHead.Forward(ag.Tape{}, h)
}

// Predict returns per-node cardinality and cost estimates (post-order,
// exponentiated and clamped to >= 1).
func (m *Model) Predict(lq *workload.LabeledQuery) (cards, costs []float64) {
	pc, pco := m.forward(lq.Q, lq.Plan)
	return expClamp(pc.T.Data), expClamp(pco.T.Data)
}

func expClamp(logs []float64) []float64 {
	out := make([]float64, len(logs))
	for i, v := range logs {
		if v > 40 {
			v = 40
		}
		e := math.Exp(v)
		if e < 1 {
			e = 1
		}
		out[i] = e
	}
	return out
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Steps     int
	FinalLoss float64
}

// Train fits the model on labeled plans with the same log q-error loss
// used by MTMLF-QO, making the Table 1 comparison apples-to-apples.
func (m *Model) Train(train []*workload.LabeledQuery, epochs int, seed int64) TrainStats {
	opt := nn.NewAdam(m.Params(), m.Cfg.LR)
	rng := rand.New(rand.NewSource(seed))
	var running float64
	steps := 0
	for ep := 0; ep < epochs; ep++ {
		for _, qi := range rng.Perm(len(train)) {
			lq := train[qi]
			opt.ZeroGrad()
			pc, pco := m.forward(lq.Q, lq.Plan)
			loss := ag.Add(
				ag.MeanAll(ag.Abs(ag.Sub(pc, logConst(lq.NodeCards)))),
				ag.MeanAll(ag.Abs(ag.Sub(pco, logConst(lq.NodeCosts)))),
			)
			loss.Backward()
			opt.Step()
			running = 0.95*running + 0.05*loss.Item()
			steps++
		}
	}
	return TrainStats{Steps: steps, FinalLoss: running}
}

func logConst(vals []float64) *ag.Value {
	t := tensor.New(len(vals), 1)
	for i, v := range vals {
		if v < 1 {
			v = 1
		}
		t.Data[i] = math.Log(v)
	}
	return ag.Const(t)
}
