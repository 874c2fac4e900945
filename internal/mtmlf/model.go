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

// Shared holds the database-agnostic (S) and (T) parameters — the part
// of MTMLF that the cloud provider pre-trains and ships (Section 2.3).
type Shared struct {
	Cfg Config
	// Serializer (F.iii is DB-agnostic machinery, so it transfers).
	NodeProj *nn.Linear
	TreePos  *nn.TreePositionalEncoder
	JoinEmb  *nn.Embedding // learned embedding per join operator
	// (S) shared representation.
	Share *nn.Encoder
	// (T) task-specific modules.
	CardHead *nn.MLP
	CostHead *nn.MLP
	JO       *JoinOrder
	// f64 is the float64 inference view of the modules above (see
	// infer.go): it aliases their weights, so it is built once, here.
	f64 *LoweredShared[float64]
}

// NewShared initializes the transferable modules.
func NewShared(cfg Config, seed int64) *Shared {
	return newShared(cfg, rand.New(rand.NewSource(seed)))
}

// newShared builds the transferable modules from rng's draws, or — for
// a nil rng — with zero weights and no draws: the destination of a
// checkpoint load (tensor.Rand).
func newShared(cfg Config, rng *rand.Rand) *Shared {
	s := &Shared{
		Cfg:      cfg,
		NodeProj: nn.NewLinear(rng, cfg.nodeRawWidth(), cfg.Dim),
		TreePos:  nn.NewTreePositionalEncoder(rng, cfg.MaxDepth, cfg.Dim),
		JoinEmb:  nn.NewEmbedding(rng, plan.NumJoinOps, cfg.Dim),
		Share:    nn.NewEncoder(rng, cfg.Dim, cfg.Heads, cfg.Blocks),
		CardHead: nn.NewMLP(rng, nn.ActGELU, cfg.Dim, cfg.Dim, 1),
		CostHead: nn.NewMLP(rng, nn.ActGELU, cfg.Dim, cfg.Dim, 1),
		JO:       NewJoinOrder(rng, cfg),
	}
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

// Representation is the output of the (F)+(S) pipeline for one query
// plan: the shared representation of every plan node plus the leaf
// (single-table) rows Trans_JO consumes as its memory.
type Representation struct {
	// S holds the shared representation, one row per plan node in
	// post-order (aligned with Plan.Nodes()).
	S *ag.Value
	// Memory holds the leaf rows of S in q.Tables order — the
	// (S_1..S_m) sequence of Figure 2 T.iii.
	Memory *ag.Value
	// Tables is the memory row order (== q.Tables).
	Tables []string
}

// Represent runs featurization, serialization and Trans_Share over a
// query's plan — the I→F→S dataflow of Figure 2.
func (m *Model) Represent(q *sqldb.Query, p *plan.Node) *Representation {
	cfg := m.Shared.Cfg
	db := m.Feat.DB
	if len(db.Tables) > cfg.MaxTables {
		panic(fmt.Sprintf("mtmlf: database has %d tables, model supports %d", len(db.Tables), cfg.MaxTables))
	}
	nodes := p.Nodes()
	paths := p.Paths()

	// Build each node's raw feature row: fixed one-hots + the ANALYZE
	// log-card hint, concatenated with the learned Dim-wide
	// distribution embedding.
	fixedW := cfg.MaxTables + plan.NumScanOps + plan.NumJoinOps + 2
	rows := make([]*ag.Value, len(nodes))
	leafRow := map[string]int{}
	for i, n := range nodes {
		fixed := tensor.New(1, fixedW)
		for _, t := range n.Tables() {
			idx := db.TableIndex(t)
			if idx < 0 {
				panic(fmt.Sprintf("mtmlf: plan references unknown table %q", t))
			}
			fixed.Data[idx] = 1
		}
		estCard := m.Feat.Stats.EstimateSubplanCard(n.Tables(), q)
		fixed.Data[fixedW-1] = math.Log(estCard+1) / 20
		var embPart *ag.Value
		if n.IsLeaf() {
			fixed.Data[cfg.MaxTables+int(n.Scan)] = 1
			embPart = m.Feat.EncodeTable(n.Table, q.FiltersFor(n.Table))
			leafRow[n.Table] = i
		} else {
			fixed.Data[cfg.MaxTables+plan.NumScanOps+int(n.Join)] = 1
			fixed.Data[fixedW-2] = 1 // isJoin flag
			embPart = m.Shared.JoinEmb.Forward([]int{int(n.Join)})
		}
		rows[i] = ag.ConcatCols(ag.Const(fixed), embPart)
	}
	raw := ag.ConcatRows(rows...)
	x := m.Shared.NodeProj.Forward(raw)

	// Tree positional embedding (F.iii serializer).
	tp := make([]nn.TreePath, len(paths))
	for i, p := range paths {
		tp[i] = nn.TreePath(p)
	}
	x = ag.Add(x, m.Shared.TreePos.Forward(tp))

	// (S) shared representation.
	S := m.Shared.Share.Forward(x, nil)

	// Memory rows for Trans_JO, in q.Tables order.
	mem := make([]*ag.Value, len(q.Tables))
	for i, t := range q.Tables {
		ri, ok := leafRow[t]
		if !ok {
			panic(fmt.Sprintf("mtmlf: query table %q missing from plan", t))
		}
		mem[i] = ag.SliceRows(S, ri, ri+1)
	}
	return &Representation{S: S, Memory: ag.ConcatRows(mem...), Tables: append([]string{}, q.Tables...)}
}

// PredictLogCards returns the predicted log-cardinality of the
// sub-plan rooted at each node (post-order), as a [mNodes, 1] value.
func (m *Model) PredictLogCards(rep *Representation) *ag.Value {
	return m.Shared.CardHead.Forward(rep.S)
}

// PredictLogCosts returns the predicted log-cost per node.
func (m *Model) PredictLogCosts(rep *Representation) *ag.Value {
	return m.Shared.CostHead.Forward(rep.S)
}
