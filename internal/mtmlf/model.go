// Package mtmlf implements the paper's core contribution: the
// MTMLF-QO multi-task meta-learning model for query optimization
// (Figure 2). It assembles:
//
//	(F) the per-database featurization module (internal/featurize),
//	(S) Trans_Share, a transformer encoder over serialized plan nodes,
//	(T) the task-specific module: M_CardEst and M_CostEst MLP heads and
//	    the Trans_JO join-order decoder with legality-pruned beam search
//	    (Section 4) and the sequence-level JOEU loss (Section 5),
//	(L) the joint loss of Equation 1 and the MLA cross-database
//	    meta-learning procedure of Algorithm 1.
//
// The (S) and (T) parameters live in Shared and are database-agnostic;
// a Model pairs one Shared with one database's Featurizer, which is
// how a pre-trained Shared transfers to a new database.
package mtmlf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mtmlf/internal/ag"
	"mtmlf/internal/catalog"
	"mtmlf/internal/featurize"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

// Config sizes MTMLF-QO.
type Config struct {
	// Dim, Heads, Blocks configure Trans_Share (paper: 4 heads, 3
	// blocks; defaults are smaller for CPU training).
	Dim, Heads, Blocks int
	// DecBlocks configures Trans_JO.
	DecBlocks int
	// MaxTables bounds the table count of any supported database (21
	// for IMDB; headroom by default).
	MaxTables int
	// MaxDepth bounds plan-tree depth for the tree positional encoding.
	MaxDepth int
	// WCard, WCost, WJo are the Equation 1 loss weights (paper: all 1).
	WCard, WCost, WJo float64
	// LR is the Adam learning rate (paper: 1e-4; larger by default
	// because our models and datasets are far smaller).
	LR float64
	// BeamWidth is the Section 4.3 beam width k.
	BeamWidth int
	// Lambda is the Equation 3 illegal-order penalty λ.
	Lambda float64
	// Feat configures the per-database featurizer.
	Feat featurize.Config
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	fc := featurize.DefaultConfig()
	return Config{
		Dim: fc.Dim, Heads: 2, Blocks: 2, DecBlocks: 2,
		MaxTables: 24, MaxDepth: 12,
		WCard: 1, WCost: 1, WJo: 1,
		LR: 1e-3, BeamWidth: 3, Lambda: 5,
		Feat: fc,
	}
}

// PaperConfig returns the paper's architecture (3 blocks, 4 heads) at
// a CPU-trainable dimension.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Heads = 4
	c.Blocks = 3
	c.DecBlocks = 3
	c.Feat.Blocks = 3
	c.Feat.Heads = 4
	return c
}

// nodeRawWidth is the raw serialized node feature width: table
// multi-hot + scan-op one-hot + join-op one-hot + isJoin flag + the
// ANALYZE-estimated log sub-plan cardinality (the traditional-
// optimizer hint that Neo's featurization [cited for F.i] feeds the
// model) + the Dim-wide E(f(T)) / join embedding section.
func (c Config) nodeRawWidth() int {
	return c.MaxTables + plan.NumScanOps + plan.NumJoinOps + 2 + c.Dim
}

// SharedOf holds the database-agnostic (S) and (T) modules — the part
// of MTMLF that the cloud provider pre-trains and ships (Section 2.3) —
// at value type V, next to the architecture and the Trans_JO decoder.
// Shared is the trained *ag.Value instantiation; a serving replica
// holds the *tensor.Dense[T] one (lowerShared), whose JO is its
// source's: Trans_JO decodes at float64 in every tier (infer.go).
type SharedOf[V nn.Tensor] struct {
	Cfg Config
	// Serializer (F.iii is DB-agnostic machinery, so it transfers).
	NodeProj *nn.Linear[V]
	TreePos  *nn.TreePositionalEncoder[V]
	JoinEmb  *nn.Embedding[V] // learned embedding per join operator
	// (S) shared representation.
	Share *nn.Encoder[V]
	// (T) task-specific modules.
	CardHead *nn.MLP[V]
	CostHead *nn.MLP[V]
	JO       *JoinOrder
}

// Shared is the trained SharedOf.
type Shared struct {
	SharedOf[*ag.Value]
	// f64 is the float64 inference view of the modules above (see
	// infer.go): it aliases their weights, so it is built once, here.
	f64 *SharedOf[*tensor.Tensor]
}

// NewShared initializes the transferable modules.
func NewShared(cfg Config, seed int64) *Shared {
	return newShared(cfg, rand.New(rand.NewSource(seed)))
}

// newShared builds the transferable modules from rng's draws, or — for
// a nil rng — with zero weights and no draws: the destination of a
// checkpoint load (tensor.Rand).
func newShared(cfg Config, rng *rand.Rand) *Shared {
	s := &Shared{SharedOf: SharedOf[*ag.Value]{
		Cfg:      cfg,
		NodeProj: nn.NewLinear(rng, cfg.nodeRawWidth(), cfg.Dim),
		TreePos:  nn.NewTreePositionalEncoder(rng, cfg.MaxDepth, cfg.Dim),
		JoinEmb:  nn.NewEmbedding(rng, plan.NumJoinOps, cfg.Dim),
		Share:    nn.NewEncoder(rng, cfg.Dim, cfg.Heads, cfg.Blocks),
		CardHead: nn.NewMLP(rng, nn.ActGELU, cfg.Dim, cfg.Dim, 1),
		CostHead: nn.NewMLP(rng, nn.ActGELU, cfg.Dim, cfg.Dim, 1),
		JO:       NewJoinOrder(rng, cfg),
	}}
	s.f64 = lowerShared[float64](s, nn.PrecisionF64)
	return s
}

// Params returns all transferable parameters in a stable order.
func (s *Shared) Params() []*ag.Value {
	out := s.NodeProj.Params()
	out = append(out, s.TreePos.Params()...)
	out = append(out, s.JoinEmb.Params()...)
	out = append(out, s.Share.Params()...)
	out = append(out, s.CardHead.Params()...)
	out = append(out, s.CostHead.Params()...)
	out = append(out, s.JO.Params()...)
	return out
}

// Model pairs the transferable Shared modules with one database's
// featurizer. Constructing a Model is free; this is the paper's
// "connect the learned F_11 module with the pre-trained (S) and (T)
// modules" step.
type Model struct {
	Shared *Shared
	Feat   *featurize.Featurizer
}

// NewModel builds a fresh single-database model over an in-memory
// database.
func NewModel(cfg Config, db *sqldb.DB, seed int64) *Model {
	return NewModelCat(cfg, catalog.NewMemory(db), seed)
}

// NewModelCat builds a fresh model over any catalog backend —
// in-memory (catalog.Memory) or on-disk (corpus.DBCatalog). The
// catalog's statistics feed the featurizer, so backends that
// round-trip the column data bitwise yield bitwise-identical models.
func NewModelCat(cfg Config, cat catalog.Catalog, seed int64) *Model {
	return &Model{
		Shared: NewShared(cfg, seed),
		Feat:   featurize.NewFrom(cat, cfg.Feat, seed+1),
	}
}

// Params returns every parameter of the model — the transferable
// Shared set followed by the database-specific Featurizer set, in the
// stable order the full-model checkpoint (checkpoint.go) persists.
func (m *Model) Params() []*ag.Value {
	out := m.Shared.Params()
	return append(out, m.Feat.Params()...)
}

// Rep is the output of the (F)+(S) pipeline for one query plan: the
// shared representation of every plan node plus the leaf
// (single-table) rows Trans_JO consumes as its memory. Representation
// is the trained model's, on the tape; a session's (InferRep,
// InferRepF32) lives in the session's pool, valid until its Reset.
type Rep[V any] struct {
	// S holds the shared representation, one row per plan node in
	// post-order (aligned with Plan.Nodes()).
	S V
	// Memory holds the leaf rows of S in q.Tables order — the
	// (S_1..S_m) sequence of Figure 2 T.iii.
	Memory V
	// Tables is the memory row order (== q.Tables).
	Tables []string
}

// Representation is Rep on the tape, InferRep and InferRepF32 are Rep
// in a float64 and a float32 session.
type (
	Representation = Rep[*ag.Value]
	InferRep       = Rep[*tensor.Tensor]
	InferRepF32    = Rep[*tensor.F32]
)

// Represent runs featurization, serialization and Trans_Share over a
// query's plan — the I→F→S dataflow of Figure 2 — on the tape.
//
// The (F) encoders are constants here: (S)+(T) training never steps
// them (they are pre-trained on their own, Algorithm 1 line 4), so
// each leaf's E(f(T_i)) comes from the float64 session — bitwise the
// tape's value — and the gradient tape ends at NodeProj's input
// instead of running back through every Enc_i.
func (m *Model) Represent(q *sqldb.Query, p *plan.Node) *Representation {
	e := ag.AcquireEval()
	defer ag.ReleaseEval(e)
	return represent(&m.Shared.SharedOf, ag.Tape{}, e, m.Feat.Reference(), q, p)
}

// joinIDs are the JoinEmb rows, sliced one at a time as Gather indices.
var joinIDs = func() (ids [plan.NumJoinOps]int) {
	for i := range ids {
		ids[i] = i
	}
	return
}()

// represent is the one body of Represent and RepresentInfer: the
// (S) modules of s run on o, with each leaf's E(f(T_i)) encoded by
// feat in the session e (the tape's Enc_i are constants, so it reads
// them through their float64 view).
func represent[V nn.Tensor, T tensor.Float](s *SharedOf[V], o ag.Ops[V], e *ag.Session[T], feat *featurize.Lowered[T], q *sqldb.Query, p *plan.Node) *Rep[V] {
	cfg := s.Cfg
	db := feat.Src.DB
	if len(db.Tables) > cfg.MaxTables {
		panic(fmt.Sprintf("mtmlf: database has %d tables, model supports %d", len(db.Tables), cfg.MaxTables))
	}
	nodes := p.Nodes()
	paths := p.Paths()

	// Build each node's raw feature row: fixed one-hots + the ANALYZE
	// log-card hint, then the Dim-wide distribution embedding — for a
	// leaf written into the same constant row, for a join the learned
	// join-operator embedding concatenated to it.
	fixedW := cfg.MaxTables + plan.NumScanOps + plan.NumJoinOps + 2
	rows := make([]V, len(nodes))
	for i, n := range nodes {
		w := fixedW
		if n.IsLeaf() {
			w += cfg.Dim
		}
		row := o.Input(1, w)
		for _, t := range n.Tables() {
			idx := db.TableIndex(t)
			if idx < 0 {
				panic(fmt.Sprintf("mtmlf: plan references unknown table %q", t))
			}
			row.Data[idx] = 1
		}
		estCard := feat.Src.Stats.EstimateSubplanCard(n.Tables(), q)
		row.Data[fixedW-1] = math.Log(estCard+1) / 20
		if n.IsLeaf() {
			row.Data[cfg.MaxTables+int(n.Scan)] = 1
			for j, v := range feat.EncodeTableInfer(e, n.Table, q.FiltersFor(n.Table)).Data {
				row.Data[fixedW+j] = float64(v)
			}
			rows[i] = o.Const(row)
			continue
		}
		row.Data[cfg.MaxTables+plan.NumScanOps+int(n.Join)] = 1
		row.Data[fixedW-2] = 1 // isJoin flag
		rows[i] = o.ConcatCols(o.Const(row), s.JoinEmb.Forward(o, joinIDs[n.Join:n.Join+1]))
	}
	x := s.NodeProj.Forward(o, o.ConcatRows(rows...))

	// Tree positional embedding (F.iii serializer).
	tp := make([]nn.TreePath, len(paths))
	for i, p := range paths {
		tp[i] = nn.TreePath(p)
	}
	x = o.Add(x, s.TreePos.Forward(o, tp))

	// (S) shared representation.
	S := s.Share.Forward(o, x, nil)

	// Memory rows for Trans_JO, in q.Tables order.
	mem := make([]int, len(q.Tables))
	for i, t := range q.Tables {
		ri := slices.IndexFunc(nodes, func(n *plan.Node) bool { return n.IsLeaf() && n.Table == t })
		if ri < 0 {
			panic(fmt.Sprintf("mtmlf: query table %q missing from plan", t))
		}
		mem[i] = ri
	}
	return &Rep[V]{S: S, Memory: o.Gather(S, mem), Tables: append([]string{}, q.Tables...)}
}

// PredictLogCards returns the predicted log-cardinality of the
// sub-plan rooted at each node (post-order), as a [mNodes, 1] value.
func (m *Model) PredictLogCards(rep *Representation) *ag.Value {
	return m.Shared.CardHead.Forward(ag.Tape{}, rep.S)
}

// PredictLogCosts returns the predicted log-cost per node.
func (m *Model) PredictLogCosts(rep *Representation) *ag.Value {
	return m.Shared.CostHead.Forward(ag.Tape{}, rep.S)
}
