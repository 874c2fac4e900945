package mtmlf

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mtmlf/internal/catalog"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// mlaFixtureOpts is the one option set every MLA equivalence test
// uses on both sides.
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

// mlaCorpus labels the test fleet with opts into a corpus in memory
// and returns its databases as the (catalogs, sources) pair
// TrainMLAStream takes: the data every MLA test trains from. It panics
// on an error, which only a broken corpus package can produce. Each
// call builds private copies, so fleet ranks share nothing.
func mlaCorpus(opts MLAOptions) ([]catalog.Catalog, []workload.Source) {
	return mlaCorpusOf(opts, mlaFleet())
}

// mlaCorpusOf is mlaCorpus over the fleet dbs.
func mlaCorpusOf(opts MLAOptions, dbs []*sqldb.DB) ([]catalog.Catalog, []workload.Source) {
	r, err := corpus.InMemory(corpus.Meta{Seed: opts.Seed}, Label(opts, dbs...))
	if err != nil {
		panic(err)
	}
	cats, srcs, err := r.Fleet()
	if err != nil {
		panic(err)
	}
	return cats, srcs
}

// assertMLAEqual compares an MLA run against a reference run: loss
// trajectory, final loss, step count, shared parameters, and every
// task's featurizer parameters — all bitwise.
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
			t.Fatalf("%s: shared parameter %d differs from the reference", label, i)
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
// of the data plane's two backends: Algorithm 1 from a corpus file —
// the single-table sections and examples read back from disk —
// reproduces the run from the same corpus in memory bitwise (loss
// trajectory, shared parameters, every featurizer) at workers 1 and 4.
func TestTrainMLAStreamMatchesInMemory(t *testing.T) {
	opts := mlaFixtureOpts()
	refShared := NewShared(tinyConfig(), 20)
	cats, srcs := mlaCorpus(opts)
	refTasks, refStats, err := TrainMLAStream(refShared, cats, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Steps != 2*6*2 { // 2 DBs x 6 queries x 2 epochs
		t.Fatalf("reference ran %d steps, want 24", refStats.Steps)
	}

	path := filepath.Join(t.TempDir(), "fleet.mtc")
	if err := corpus.WriteFile(path, corpus.Meta{Seed: opts.Seed}, Label(opts, mlaFleet()...)); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if cats, srcs, err = r.Fleet(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		shared := NewShared(tinyConfig(), 20)
		wopts := opts
		wopts.Workers = workers
		tasks, st, err := TrainMLAStream(shared, cats, srcs, wopts)
		if err != nil {
			t.Fatal(err)
		}
		assertMLAEqual(t, "file corpus", refShared, shared, refTasks, tasks, refStats, st)
	}
}

// TestTrainMLAStreamWithoutSingleTableSection: a database without a
// single-table section — a corpus written without one, or a
// catalog.Memory — is refused with an error that names it, before any
// work: the shared modules take no step, and database 0's section is
// read once but no encoder of it is even built (its catalog's
// statistics, which building one reads, are never asked for), so its
// (F) parameters cannot have moved. The library never draws (F) data
// behind its caller's back.
func TestTrainMLAStreamWithoutSingleTableSection(t *testing.T) {
	opts := mlaFixtureOpts()
	dbs := Label(opts, mlaFleet()...)
	dbs[1].SingleTable = nil
	r, err := corpus.InMemory(corpus.Meta{}, dbs)
	if err != nil {
		t.Fatal(err)
	}
	cats, srcs, err := r.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	for _, second := range []catalog.Catalog{cats[1], catalog.NewMemory(dbs[1].DB)} {
		first := &watchedCatalog{DBCatalog: cats[0].(*corpus.DBCatalog)}
		shared := NewShared(tinyConfig(), 20)
		want := cloneParams(shared.Params())
		_, st, err := TrainMLAStream(shared, []catalog.Catalog{first, second}, srcs, opts)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", dbs[1].DB.Name)) {
			t.Fatalf("%T without a section: got %v, want an error naming %q", second, err, dbs[1].DB.Name)
		}
		if st.Steps != 0 {
			t.Fatalf("%T without a section: the joint loop ran %d steps", second, st.Steps)
		}
		for i, p := range shared.Params() {
			if !tensor.Equal(p.T, want[i].T, 0) {
				t.Fatalf("%T without a section: shared parameter %d moved", second, i)
			}
		}
		if first.sections != 1 || first.stats != 0 {
			t.Fatalf("%T without a section: database 0's section read %d times (want 1) and an encoder built for it %d times (want 0)",
				second, first.sections, first.stats)
		}
	}
}

// watchedCatalog counts the single-table section reads and statistics
// requests made of a corpus catalog.
type watchedCatalog struct {
	*corpus.DBCatalog
	sections, stats int
}

func (c *watchedCatalog) SingleTable() ([]workload.TableWorkload, bool, error) {
	c.sections++
	return c.DBCatalog.SingleTable()
}

func (c *watchedCatalog) Stats() *stats.DBStats {
	c.stats++
	return c.DBCatalog.Stats()
}

// TestTrainMLAStreamPropagatesSourceErrors: an I/O failure in any
// pooled source must abort the joint loop with the error — a
// half-trained fleet model must never look like a trained one.
func TestTrainMLAStreamPropagatesSourceErrors(t *testing.T) {
	opts := mlaFixtureOpts()
	cats, srcs := mlaCorpus(opts)
	srcs[1] = errSource{Source: srcs[1], bad: 2}
	shared := NewShared(tinyConfig(), 20)
	_, _, err := TrainMLAStream(shared, cats, srcs, opts)
	if err == nil {
		t.Fatal("expected the bad source's error to propagate")
	}
}

// TestTrainMLAStreamRejectsMismatchedInputs: the cats/srcs pairing is
// positional; a length mismatch is a caller bug surfaced as an error.
func TestTrainMLAStreamRejectsMismatchedInputs(t *testing.T) {
	cats, srcs := mlaCorpus(mlaFixtureOpts())
	_, _, err := TrainMLAStream(NewShared(tinyConfig(), 20), cats[:1], srcs, mlaFixtureOpts())
	if err == nil {
		t.Fatal("expected length mismatch error")
	}
}
