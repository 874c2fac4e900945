package featurize

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/datagen"
	"mtmlf/internal/metrics"
	"mtmlf/internal/nn"
	"mtmlf/internal/parallel"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

func smallDB() *sqldb.DB { return datagen.SyntheticIMDB(3, 0.05) }

func smallConfig() Config {
	c := DefaultConfig()
	c.Dim = 16
	c.Blocks = 1
	return c
}

func TestFilterTokenWidthAndSlots(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	tok := f.FilterToken(sqldb.Filter{
		Table: "title", Col: "production_year",
		Op: sqldb.OpLt, Val: sqldb.IntVal(1950),
	})
	if len(tok) != f.Cfg.TokenWidth() {
		t.Fatalf("token width %d, want %d", len(tok), f.Cfg.TokenWidth())
	}
	// Operator one-hot set at the right slot.
	opSlot := f.Cfg.MaxCols + int(sqldb.OpLt)
	if tok[opSlot] != 1 {
		t.Fatal("operator slot not set")
	}
	// Numeric flag set, value normalized to [0,1].
	vSlot := f.Cfg.MaxCols + 7
	if tok[vSlot] < 0 || tok[vSlot] > 1 || tok[vSlot+1] != 1 {
		t.Fatalf("numeric value slots wrong: %v %v", tok[vSlot], tok[vSlot+1])
	}
}

func TestFilterTokenLikeFlags(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	tok := f.FilterToken(sqldb.Filter{
		Table: "title", Col: "title",
		Op: sqldb.OpLike, Val: sqldb.StrVal("%Dark%"),
	})
	base := f.Cfg.MaxCols + 7 + 2 + f.Cfg.CharDims
	if tok[base] != 1 || tok[base+1] != 1 {
		t.Fatal("leading/trailing %% flags not set")
	}
	if tok[base+2] <= 0 {
		t.Fatal("wildcard count feature not set")
	}
	// Character bag populated and L2-normalized.
	var norm float64
	for i := 0; i < f.Cfg.CharDims; i++ {
		norm += tok[f.Cfg.MaxCols+9+i] * tok[f.Cfg.MaxCols+9+i]
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("char bag norm %g, want 1", norm)
	}
}

func TestNormalizeValueClamps(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	lo := f.normalizeValue(sqldb.Filter{Table: "title", Col: "production_year", Val: sqldb.IntVal(-10000)})
	hi := f.normalizeValue(sqldb.Filter{Table: "title", Col: "production_year", Val: sqldb.IntVal(99999)})
	if lo != 0 || hi != 1 {
		t.Fatalf("clamping wrong: %g %g", lo, hi)
	}
	if got := f.normalizeValue(sqldb.Filter{Table: "nope", Col: "x", Val: sqldb.IntVal(1)}); got != 0.5 {
		t.Fatal("unknown table must return neutral 0.5")
	}
}

func TestEncodeTableShapes(t *testing.T) {
	db := smallDB()
	f := New(db, smallConfig(), 1)
	// No filters: CLS only.
	e := f.EncodeTable("title", nil)
	if e.Rows() != 1 || e.Cols() != f.Cfg.Dim {
		t.Fatalf("encoding shape %v", e.T.Shape)
	}
	// With filters.
	e2 := f.EncodeTable("title", []sqldb.Filter{
		{Table: "title", Col: "production_year", Op: sqldb.OpGt, Val: sqldb.IntVal(1950)},
	})
	if e2.Rows() != 1 || e2.Cols() != f.Cfg.Dim {
		t.Fatalf("filtered encoding shape %v", e2.T.Shape)
	}
	// Different filters must produce different encodings.
	e3 := f.EncodeTable("title", []sqldb.Filter{
		{Table: "title", Col: "production_year", Op: sqldb.OpLt, Val: sqldb.IntVal(1900)},
	})
	diff := 0.0
	for i := range e2.T.Data {
		diff += math.Abs(e2.T.Data[i] - e3.T.Data[i])
	}
	if diff < 1e-9 {
		t.Fatal("different filters encoded identically")
	}
}

func TestEncodeUnknownTablePanics(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.EncodeTable("not_a_table", nil)
}

// TestPretrainEncoderLearns verifies the Enc_i single-table CardEst
// pre-training reduces q-error versus an untrained encoder.
func TestPretrainEncoderLearns(t *testing.T) {
	db := smallDB()
	f := New(db, smallConfig(), 2)
	gen := workload.NewGenerator(db, 3)
	cfg := workload.DefaultConfig()
	train := gen.GenSingleTable("title", 60, cfg)
	test := gen.GenSingleTable("title", 30, cfg)

	qerr := func() float64 {
		var qs []float64
		for _, q := range test {
			pred := math.Exp(f.predictLogCard(ag.Tape{}, "title", q.Filters).Item())
			qs = append(qs, metrics.QError(pred, q.Card))
		}
		return metrics.Summarize(qs).Median
	}
	before := qerr()
	res := f.PretrainEncoder("title", train, 8)
	after := qerr()
	if res.Steps != 8*60 {
		t.Fatalf("steps %d", res.Steps)
	}
	if after >= before {
		t.Fatalf("pre-training did not improve: before %g, after %g", before, after)
	}
	// A trained encoder should be decent on this easy task.
	if after > 5 {
		t.Fatalf("median q-error after training %g too high", after)
	}
}

func TestParamsStableOrder(t *testing.T) {
	db := smallDB()
	f1 := New(db, smallConfig(), 7)
	f2 := New(db, smallConfig(), 7)
	p1, p2 := f1.Params(), f2.Params()
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("param counts %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].T.Size() != p2[i].T.Size() {
			t.Fatal("param order unstable across constructions")
		}
	}
}

// TestPretrainAllFromRefusesBadSets: a single-table set must cover
// every table of the database exactly once, and a bad one is refused
// before any encoder trains — in a fleet call, before any encoder of any
// featurizer trains, the ones whose sets are good included.
func TestPretrainAllFromRefusesBadSets(t *testing.T) {
	db := smallDB()
	stored, good := New(db, smallConfig(), 9), New(db, smallConfig(), 11)
	data := workload.NewGenerator(db, 10).GenPretrainSet(6, workload.DefaultConfig())
	before, goodBefore := paramBits(stored), paramBits(good)

	if _, err := stored.PretrainAllFrom([]workload.TableWorkload{{Table: "no_such_table"}}, 1); err == nil {
		t.Fatal("expected error for unknown table")
	}
	// A partial set must fail up front — a silently skipped encoder
	// would serve from its random initialization.
	if _, err := stored.PretrainAllFrom(data[:1], 1); err == nil {
		t.Fatal("expected error for partial coverage")
	}
	dup := append(append([]workload.TableWorkload{}, data...), data[0])
	if _, err := stored.PretrainAllFrom(dup, 1); err == nil {
		t.Fatal("expected error for duplicate table")
	}
	if _, err := Pairs([]*Featurizer{good, stored}, [][]workload.TableWorkload{data, data[:1]}); err == nil {
		t.Fatal("expected error for the second set's partial coverage")
	}
	if !slices.Equal(paramBits(stored), before) || !slices.Equal(paramBits(good), goodBefore) {
		t.Fatal("a refused set trained an encoder")
	}
}

// TestPretrainMatchesSerialLoop: the fleet call over two featurizers,
// its (featurizer, table) pairs handed out over a pool of 1 and of 4,
// trains every encoder to the bits a serial PretrainEncoder loop gives.
func TestPretrainMatchesSerialLoop(t *testing.T) {
	db := smallDB()
	data := [][]workload.TableWorkload{
		workload.NewGenerator(db, 10).GenPretrainSet(5, workload.DefaultConfig()),
		workload.NewGenerator(db, 12).GenPretrainSet(4, workload.DefaultConfig()),
	}
	var want [][]uint64
	for i, set := range data {
		f := New(db, smallConfig(), int64(20+i))
		for _, tw := range set {
			f.PretrainEncoder(tw.Table, tw.Queries, 2)
		}
		want = append(want, paramBits(f))
	}
	for _, w := range []int{1, 4} {
		prev := parallel.SetWorkers(w)
		fs := []*Featurizer{New(db, smallConfig(), 20), New(db, smallConfig(), 21)}
		pairs, err := Pairs(fs, data)
		if err != nil {
			t.Fatal(err)
		}
		res := Pretrain(pairs, 2)
		parallel.SetWorkers(prev)
		for i, f := range fs {
			if !slices.Equal(paramBits(f), want[i]) {
				t.Fatalf("workers %d: featurizer %d's encoders differ from the serial loop's", w, i)
			}
		}
		for j, r := range res {
			if p := pairs[j]; r.Table != p.Set.Table || r.Steps != 2*len(p.Set.Queries) {
				t.Fatalf("workers %d: result %d is %+v for table %q", w, j, r, p.Set.Table)
			}
		}
	}
}

// paramBits returns the bits of every encoder parameter of f, in
// parameter order.
func paramBits(f *Featurizer) []uint64 {
	var out []uint64
	for _, p := range f.Params() {
		for _, x := range p.T.Data {
			out = append(out, math.Float64bits(x))
		}
	}
	return out
}

// TestFrozenFeaturizerRefusesWrites: once frozen, a featurizer refuses
// pre-training — as a set (Pairs, PretrainAllFrom) and one encoder at a
// time (PretrainEncoder panics) — with its weights untouched, and its
// memoized reference view returns the uncached rows, bit for bit.
func TestFrozenFeaturizerRefusesWrites(t *testing.T) {
	db := smallDB()
	f := New(db, smallConfig(), 9)
	data := workload.NewGenerator(db, 10).GenPretrainSet(4, workload.DefaultConfig())
	if _, err := f.PretrainAllFrom(data, 1); err != nil {
		t.Fatal(err)
	}
	uncached := Lower[float64](f, nn.PrecisionF64)
	f.Freeze()
	if !f.Frozen() || f.Memo() == nil {
		t.Fatal("Freeze left the featurizer unfrozen")
	}
	before := paramBits(f)
	if _, err := f.PretrainAllFrom(data, 1); err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Fatalf("PretrainAllFrom on a frozen featurizer: %v, want a refusal", err)
	}
	if _, err := Pairs([]*Featurizer{f}, [][]workload.TableWorkload{data}); err == nil {
		t.Fatal("Pairs accepted a frozen featurizer")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PretrainEncoder on a frozen featurizer did not panic")
			}
		}()
		f.PretrainEncoder(data[0].Table, data[0].Queries, 1)
	}()
	if !slices.Equal(paramBits(f), before) {
		t.Fatal("a refused write moved a frozen encoder")
	}
	e := ag.AcquireEval()
	defer ag.ReleaseEval(e)
	for round := range 2 {
		for _, tw := range data {
			for _, q := range tw.Queries {
				got := f.Reference().EncodeTableInfer(e, tw.Table, q.Filters)
				want := uncached.EncodeTableInfer(e, tw.Table, q.Filters)
				if !tensor.Equal(got, want, 0) {
					t.Fatalf("round %d: the memoized row of %q differs from Enc_i's", round, tw.Table)
				}
			}
		}
		e.Reset()
	}
	if m := f.Memo(); m.Hits.Load() == 0 || m.Misses.Load() == 0 {
		t.Fatalf("memo hits %d misses %d: want both", m.Hits.Load(), m.Misses.Load())
	}
}
