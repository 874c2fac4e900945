package mtmlf

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"mtmlf/internal/catalog"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// mlaFixtureOpts is the one option set every MLA equivalence test
// uses on both the live and the corpus-backed side.
func mlaFixtureOpts() MLAOptions {
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 3
	return MLAOptions{
		QueriesPerDB:        6,
		SingleTablePerTable: 4,
		EncoderEpochs:       1,
		JointEpochs:         2,
		Workload:            wcfg,
		Seed:                22,
		BatchSize:           4,
		RecordTrajectory:    true,
	}
}

// mlaFleet generates the tiny two-database fleet the equivalence
// tests pretrain over.
func mlaFleet() []*sqldb.DB {
	dgCfg := datagen.DefaultConfig()
	dgCfg.MinTables, dgCfg.MaxTables = 4, 5
	dgCfg.MinRows, dgCfg.MaxRows = 100, 250
	return datagen.GenerateFleet(21, 2, dgCfg)
}

// writeMLACorpus writes the fleet's Algorithm 1 training data to a
// corpus file: GenMLAData output per database, with the single-table
// sections when single is set. With them it is exactly what
// mtmlf-datagen -single-table produces.
func writeMLACorpus(t *testing.T, dbs []*sqldb.DB, opts MLAOptions, single bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.mtc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := corpus.NewWriter(f, corpus.Meta{Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, db := range dbs {
		st, qs := GenMLAData(catalog.NewMemory(db), opts, i)
		if err := w.BeginDB(db); err != nil {
			t.Fatal(err)
		}
		if single {
			if err := w.WriteSingleTable(st); err != nil {
				t.Fatal(err)
			}
		}
		for _, lq := range qs {
			if err := w.AppendExample(lq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMLACorpus returns every database of a corpus as the
// (catalogs, sources) pair TrainMLAStream consumes.
func openMLACorpus(t *testing.T, path string) (*corpus.Reader, []catalog.Catalog, []workload.Source) {
	t.Helper()
	r, err := corpus.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	cats := make([]catalog.Catalog, r.NumDBs())
	srcs := make([]workload.Source, r.NumDBs())
	for i := range cats {
		c, err := r.Catalog(i)
		if err != nil {
			t.Fatal(err)
		}
		cats[i] = c
		srcs[i] = c.Examples()
	}
	return r, cats, srcs
}

// assertMLAEqual compares a streamed MLA run against the in-memory
// reference: loss trajectory, final loss, step count, shared
// parameters, and every task's featurizer parameters — all bitwise.
func assertMLAEqual(t *testing.T, label string,
	refShared, gotShared *Shared, refTasks, gotTasks []*DBTask, ref, got TrainStats) {
	t.Helper()
	if got.Steps != ref.Steps {
		t.Fatalf("%s: steps %d, want %d", label, got.Steps, ref.Steps)
	}
	if len(got.Trajectory) != len(ref.Trajectory) {
		t.Fatalf("%s: trajectory length %d, want %d", label, len(got.Trajectory), len(ref.Trajectory))
	}
	for i := range ref.Trajectory {
		if math.Float64bits(got.Trajectory[i]) != math.Float64bits(ref.Trajectory[i]) {
			t.Fatalf("%s: trajectory step %d differs: %v vs %v", label, i, got.Trajectory[i], ref.Trajectory[i])
		}
	}
	if math.Float64bits(got.FinalLoss) != math.Float64bits(ref.FinalLoss) {
		t.Fatalf("%s: final loss differs", label)
	}
	pa, pb := refShared.Params(), gotShared.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].T, pb[i].T, 0) {
			t.Fatalf("%s: shared parameter %d differs from in-memory TrainMLA", label, i)
		}
	}
	if len(gotTasks) != len(refTasks) {
		t.Fatalf("%s: task count %d, want %d", label, len(gotTasks), len(refTasks))
	}
	for ti := range refTasks {
		fa, fb := refTasks[ti].Model.Feat.Params(), gotTasks[ti].Model.Feat.Params()
		if len(fa) != len(fb) {
			t.Fatalf("%s: task %d featurizer param count differs", label, ti)
		}
		for i := range fa {
			if !tensor.Equal(fa[i].T, fb[i].T, 0) {
				t.Fatalf("%s: task %d featurizer parameter %d differs", label, ti, i)
			}
		}
	}
}

// TestTrainMLAStreamMatchesInMemory is the eps=0 equivalence contract
// of corpus-backed fleet pretraining: Algorithm 1 run from a corpus
// artifact — cached single-table sections, streamed pooled
// examples — reproduces the live in-memory TrainMLA bitwise (loss
// trajectory, shared parameters, every featurizer) at workers 1 and
// 4, without ever materializing the pooled workload.
func TestTrainMLAStreamMatchesInMemory(t *testing.T) {
	dbs := mlaFleet()
	opts := mlaFixtureOpts()
	refShared := NewShared(tinyConfig(), 20)
	refTasks, refStats, err := TrainMLA(refShared, dbs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Steps != 2*6*2 { // 2 DBs x 6 queries x 2 epochs
		t.Fatalf("reference ran %d steps, want 24", refStats.Steps)
	}

	r, cats, srcs := openMLACorpus(t, writeMLACorpus(t, dbs, opts, true))
	if r.Version() != corpus.Version {
		t.Fatalf("fixture version %d", r.Version())
	}
	for _, workers := range []int{1, 4} {
		shared := NewShared(tinyConfig(), 20)
		wopts := opts
		wopts.Workers = workers
		tasks, st, err := TrainMLAStream(shared, cats, srcs, wopts)
		if err != nil {
			t.Fatal(err)
		}
		for ti, task := range tasks {
			if task.Queries != nil {
				t.Fatalf("workers=%d: task %d materialized %d queries; the stream path must not",
					workers, ti, len(task.Queries))
			}
		}
		assertMLAEqual(t, "stream", refShared, shared, refTasks, tasks, refStats, st)
	}
}

// TestTrainMLAStreamV1Fallback: a corpus without single-table
// sections (the shape of a format-v1 file, hence the name) still
// trains — the featurizers fall back to live (F) pre-training from the
// task seed, which draws the exact prefix of the rng stream the corpus
// queries were generated from, so the run STILL matches the in-memory
// reference bitwise.
func TestTrainMLAStreamV1Fallback(t *testing.T) {
	dbs := mlaFleet()
	opts := mlaFixtureOpts()
	refShared := NewShared(tinyConfig(), 20)
	refTasks, refStats, err := TrainMLA(refShared, dbs, opts)
	if err != nil {
		t.Fatal(err)
	}

	_, cats, srcs := openMLACorpus(t, writeMLACorpus(t, dbs, opts, false))
	if _, ok, err := cats[0].(*corpus.DBCatalog).SingleTable(); ok || err != nil {
		t.Fatalf("fixture has a single-table section: ok=%v err=%v", ok, err)
	}
	shared := NewShared(tinyConfig(), 20)
	tasks, st, err := TrainMLAStream(shared, cats, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertMLAEqual(t, "live (F) fallback", refShared, shared, refTasks, tasks, refStats, st)
}

// TestTrainMLAStreamPropagatesSourceErrors: an I/O failure in any
// pooled source must abort the joint loop with the error — a
// half-trained fleet model must never look like a trained one.
func TestTrainMLAStreamPropagatesSourceErrors(t *testing.T) {
	dbs := mlaFleet()
	opts := mlaFixtureOpts()
	cats := make([]catalog.Catalog, len(dbs))
	srcs := make([]workload.Source, len(dbs))
	for i, db := range dbs {
		cats[i] = catalog.NewMemory(db)
		_, qs := GenMLAData(cats[i], opts, i)
		src := workload.Source(workload.SliceSource(qs))
		if i == 1 {
			src = errSource{Source: src, bad: 2}
		}
		srcs[i] = src
	}
	shared := NewShared(tinyConfig(), 20)
	_, _, err := TrainMLAStream(shared, cats, srcs, opts)
	if err == nil {
		t.Fatal("expected the bad source's error to propagate")
	}
}

// TestTrainMLAStreamRejectsMismatchedInputs: the cats/srcs pairing is
// positional; a length mismatch is a caller bug surfaced as an error.
func TestTrainMLAStreamRejectsMismatchedInputs(t *testing.T) {
	dbs := mlaFleet()
	shared := NewShared(tinyConfig(), 20)
	_, _, err := TrainMLAStream(shared,
		[]catalog.Catalog{catalog.NewMemory(dbs[0])},
		[]workload.Source{workload.SliceSource{}, workload.SliceSource{}},
		mlaFixtureOpts())
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
}
