// Package featurize implements the MTMLF (F) featurization and
// encoding module (Figure 2, F.i–F.ii): predicate featurization into
// fixed-width token vectors, and the per-table transformer encoders
// Enc_i that summarize each table's filtered data distribution. All
// database-specific knowledge — value distributions, column layouts —
// lives here, which is exactly what the paper's meta-learning argument
// requires: swapping this module retargets a pre-trained (S)+(T) stack
// to a new database.
package featurize

import (
	"fmt"
	"math"
	"math/rand"

	"mtmlf/internal/ag"
	"mtmlf/internal/catalog"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// Config sizes the featurization.
type Config struct {
	// Dim is the model dimension d shared with the (S)/(T) modules.
	Dim int
	// Heads and Blocks configure each Enc_i transformer (paper: 4
	// heads, 3 blocks; tests use smaller).
	Heads, Blocks int
	// MaxCols is the number of hash slots for column identity.
	MaxCols int
	// CharDims is the width of the hashed character-trigram bag used
	// for string/LIKE values.
	CharDims int
	// LR is the Adam learning rate for encoder pre-training.
	LR float64
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Dim: 32, Heads: 2, Blocks: 2, MaxCols: 8, CharDims: 12, LR: 1e-3}
}

// TokenWidth returns the raw filter-token width: column slots +
// operators + (value, isNumeric) + char bag + 3 pattern flags +
// 2 statistic features (the ANALYZE-estimated selectivity of the
// predicate and the log table size, following the featurization of
// the papers cited for F.i [Neo; Sun & Li], which feed traditional
// estimator outputs to the model as hints).
func (c Config) TokenWidth() int { return c.MaxCols + 7 + 2 + c.CharDims + 3 + 2 }

// TableEncoder is one Enc_i: a learned CLS token, a projection from
// raw filter tokens into model space, a transformer encoder, and a
// log-cardinality head used for its single-table pre-training task.
type TableEncoder struct {
	Proj *nn.Linear
	CLS  *ag.Value
	Enc  *nn.Encoder
	Head *nn.MLP
}

// Params implements nn.Module.
func (e *TableEncoder) Params() []*ag.Value {
	out := []*ag.Value{e.CLS}
	out = append(out, e.Proj.Params()...)
	out = append(out, e.Enc.Params()...)
	out = append(out, e.Head.Params()...)
	return out
}

// Tokenizer is the weight-free half of the (F) module: the database,
// its ANALYZE statistics and the token layout — all F.i needs to turn a
// filter into its raw token. A lowered replica keeps this and nothing
// else of the featurizer it came from.
type Tokenizer struct {
	DB    *sqldb.DB
	Stats *stats.DBStats
	Cfg   Config
}

// Featurizer is the per-database (F) module.
type Featurizer struct {
	Tokenizer
	Encs map[string]*TableEncoder
	// f64 is the float64 inference view of Encs (see Lower): it
	// aliases the encoders' weights, so it is built once, here.
	f64 *Lowered[float64]
}

// New builds a featurizer with freshly initialized encoders for every
// table of an in-memory database.
func New(db *sqldb.DB, cfg Config, seed int64) *Featurizer {
	return NewFrom(catalog.NewMemory(db), cfg, seed)
}

// NewFrom builds a featurizer over any catalog backend, reusing the
// catalog's (computed-once) ANALYZE statistics. Initialization draws
// depend only on seed and the table order, so identical catalogs —
// e.g. a database and its corpus round trip — yield bitwise-identical
// encoders.
func NewFrom(cat catalog.Catalog, cfg Config, seed int64) *Featurizer {
	return newFrom(cat, cfg, rand.New(rand.NewSource(seed)))
}

// NewForLoad builds the destination of a checkpoint load: NewFrom
// without the initialization draws, every weight zero until the load
// overwrites it.
func NewForLoad(cat catalog.Catalog, cfg Config) *Featurizer {
	return newFrom(cat, cfg, nil)
}

func newFrom(cat catalog.Catalog, cfg Config, rng *rand.Rand) *Featurizer {
	f := &Featurizer{
		Tokenizer: Tokenizer{DB: cat.DB(), Stats: cat.Stats(), Cfg: cfg},
		Encs:      map[string]*TableEncoder{},
	}
	for _, t := range f.DB.Tables {
		f.Encs[t.Name] = NewTableEncoder(rng, cfg)
	}
	f.f64 = Lower[float64](f, nn.PrecisionF64)
	return f
}

// NewTableEncoder builds one Enc_i; a nil rng leaves its weights zero
// (tensor.Rand), for a load to overwrite.
func NewTableEncoder(rng *rand.Rand, cfg Config) *TableEncoder {
	return &TableEncoder{
		Proj: nn.NewLinear(rng, cfg.TokenWidth(), cfg.Dim),
		CLS:  ag.Param(tensor.RandNorm(rng, 1, cfg.Dim, 0.02)),
		Enc:  nn.NewEncoder(rng, cfg.Dim, cfg.Heads, cfg.Blocks),
		Head: nn.NewMLP(rng, nn.ActGELU, cfg.Dim, cfg.Dim, 1),
	}
}

// FilterToken builds the raw feature vector of one filter predicate
// (F.i): hashed column slot, operator one-hot, normalized numeric
// value, hashed character trigrams for string values, and LIKE
// pattern-shape flags. It is the allocating form of writeFilterToken.
func (k *Tokenizer) FilterToken(flt sqldb.Filter) []float64 {
	w := make([]float64, k.Cfg.TokenWidth())
	writeFilterToken(k, w, flt)
	return w
}

// writeFilterToken fills w — a zeroed row of TokenWidth elements — with
// flt's token. Every feature is computed in float64 and rounded to T
// once, as it is stored (trigram counts are small integers, exact in
// either type), so a float32 row holds exactly the rounded float64
// token.
func writeFilterToken[T tensor.Float](k *Tokenizer, w []T, flt sqldb.Filter) {
	cfg := k.Cfg
	w[hashString(flt.Col)%uint32(cfg.MaxCols)] = 1
	off := cfg.MaxCols
	w[off+int(flt.Op)] = 1
	off += 7
	// Normalized numeric value.
	if flt.Val.Kind != sqldb.KindString {
		w[off] = T(k.normalizeValue(flt))
		w[off+1] = 1
	}
	off += 2
	// Character trigram bag for strings (both = and LIKE).
	if flt.Val.Kind == sqldb.KindString {
		s := flt.Val.S
		for i := 0; i+3 <= len(s); i++ {
			tri := s[i : i+3]
			if tri[0] == '%' || tri[1] == '%' || tri[2] == '%' {
				continue
			}
			w[off+int(hashString(tri)%uint32(cfg.CharDims))] += 1
		}
		// L2-normalize the bag.
		var norm float64
		for _, c := range w[off : off+cfg.CharDims] {
			norm += float64(c) * float64(c)
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for i, c := range w[off : off+cfg.CharDims] {
				w[off+i] = T(float64(c) / norm)
			}
		}
	}
	off += cfg.CharDims
	// LIKE pattern shape flags: leading %, trailing %, wildcard count.
	if flt.Op == sqldb.OpLike {
		p := flt.Val.S
		if len(p) > 0 && p[0] == '%' {
			w[off] = 1
		}
		if len(p) > 0 && p[len(p)-1] == '%' {
			w[off+1] = 1
		}
		wc := 0
		for i := 0; i < len(p); i++ {
			if p[i] == '%' || p[i] == '_' {
				wc++
			}
		}
		w[off+2] = T(float64(wc) / 4)
	}
	off += 3
	// Statistic hints: ANALYZE-estimated selectivity and log table size.
	w[off] = T(k.Stats.Selectivity(flt))
	if ts, ok := k.Stats.Tables[flt.Table]; ok {
		w[off+1] = T(math.Log(float64(ts.RowCount)+1) / 20)
	}
}

// normalizeValue min-max normalizes a numeric comparison value using
// the ANALYZE statistics.
func (k *Tokenizer) normalizeValue(flt sqldb.Filter) float64 {
	ts, ok := k.Stats.Tables[flt.Table]
	if !ok {
		return 0.5
	}
	cs, ok := ts.Cols[flt.Col]
	if !ok || cs.Max <= cs.Min {
		return 0.5
	}
	var v float64
	if flt.Val.Kind == sqldb.KindInt {
		v = float64(flt.Val.I)
	} else {
		v = flt.Val.F
	}
	x := (v - cs.Min) / (cs.Max - cs.Min)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x
}

// EncodeTable runs Enc_i over the filters applying to one table and
// returns E(f(T_i)) — a [1, Dim] representation of the table's
// filtered distribution (F.ii). With no filters it encodes the
// unfiltered distribution (the CLS token alone).
func (f *Featurizer) EncodeTable(table string, filters []sqldb.Filter) *ag.Value {
	enc, ok := f.Encs[table]
	if !ok {
		panic(fmt.Sprintf("featurize: unknown table %q", table))
	}
	rows := []*ag.Value{enc.CLS}
	if len(filters) > 0 {
		raw := tensor.New(len(filters), f.Cfg.TokenWidth())
		for i, flt := range filters {
			writeFilterToken(&f.Tokenizer, raw.Row(i), flt)
		}
		rows = append(rows, enc.Proj.Forward(ag.Const(raw)))
	}
	seq := ag.ConcatRows(rows...)
	out := enc.Enc.Forward(seq, nil)
	return ag.SliceRows(out, 0, 1)
}

// PredictLogCard runs the single-table CardEst head of Enc_i — its
// pre-training task ("E_i learns the data distribution of T_i through
// predicting the cardinality of filter predicate f(T_i)").
func (f *Featurizer) PredictLogCard(table string, filters []sqldb.Filter) *ag.Value {
	e := f.EncodeTable(table, filters)
	return f.Encs[table].Head.Forward(e)
}

// PretrainResult reports one encoder's pre-training outcome.
type PretrainResult struct {
	Table     string
	FinalLoss float64
	Steps     int
}

// PretrainEncoder trains one Enc_i on labeled single-table queries by
// minimizing |log ĉ − log c| (log q-error). Returns the final
// running-average loss.
func (f *Featurizer) PretrainEncoder(table string, data []workload.SingleTableQuery, epochs int) PretrainResult {
	enc := f.Encs[table]
	opt := nn.NewAdam(enc.Params(), f.Cfg.LR)
	var running float64
	steps := 0
	for ep := 0; ep < epochs; ep++ {
		for _, q := range data {
			opt.ZeroGrad()
			pred := f.PredictLogCard(table, q.Filters)
			target := ag.Scalar(math.Log(q.Card))
			loss := ag.MeanAll(ag.Abs(ag.Sub(pred, target)))
			loss.Backward()
			opt.Step()
			running = 0.95*running + 0.05*loss.Item()
			steps++
		}
	}
	return PretrainResult{Table: table, FinalLoss: running, Steps: steps}
}

// PretrainAll trains every table encoder on freshly generated
// single-table workloads (Algorithm 1 line 4). It is the live twin of
// PretrainAllFrom: the workloads are drawn from gen (in table order,
// one rng stream) and consumed immediately instead of being loaded
// from a corpus. Encoder training consumes no randomness, so
// generate-then-train here is bitwise identical to the historical
// interleaved loop.
func (f *Featurizer) PretrainAll(gen *workload.Generator, perTable, epochs int, cfg workload.Config) []PretrainResult {
	out, err := f.PretrainAllFrom(gen.GenPretrainSet(perTable, cfg), epochs)
	if err != nil {
		// Unreachable: the set was generated from this featurizer's own
		// table list.
		panic(err)
	}
	return out
}

// PretrainAllFrom trains the table encoders on pre-generated
// single-table workloads — the corpus v2 path, where the data was
// produced once at datagen time (workload.Generator.GenPretrainSet)
// and shipped in the artifact, so a training run skips the live (F)
// generation pass entirely. Training from a stored set is bitwise
// identical to PretrainAll over the generator that produced it.
//
// The set must cover every table exactly once: an encoder a partial
// section silently skipped would serve from its random
// initialization, the failure class this module's checkpoint
// validation exists to prevent — so unknown, duplicate, and missing
// tables are all errors, and no encoder is touched before the set
// validates.
func (f *Featurizer) PretrainAllFrom(data []workload.TableWorkload, epochs int) ([]PretrainResult, error) {
	seen := make(map[string]bool, len(data))
	for _, tw := range data {
		if _, ok := f.Encs[tw.Table]; !ok {
			return nil, fmt.Errorf("featurize: pre-training data for unknown table %q", tw.Table)
		}
		if seen[tw.Table] {
			return nil, fmt.Errorf("featurize: duplicate pre-training data for table %q", tw.Table)
		}
		seen[tw.Table] = true
	}
	for _, t := range f.DB.Tables {
		if !seen[t.Name] {
			return nil, fmt.Errorf("featurize: pre-training data missing table %q (%d tables covered, database has %d)",
				t.Name, len(data), len(f.DB.Tables))
		}
	}
	out := make([]PretrainResult, 0, len(data))
	for _, tw := range data {
		out = append(out, f.PretrainEncoder(tw.Table, tw.Queries, epochs))
	}
	return out, nil
}

// Params returns all encoder parameters (the database-specific
// parameter set, excluded from cross-DB transfer).
func (f *Featurizer) Params() []*ag.Value {
	var out []*ag.Value
	for _, t := range f.DB.Tables { // stable order
		out = append(out, f.Encs[t.Name].Params()...)
	}
	return out
}

// hashString is 32-bit FNV-1a, inlined: hash/fnv's interface costs two
// allocations a call, and a LIKE pattern hashes once per trigram.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
