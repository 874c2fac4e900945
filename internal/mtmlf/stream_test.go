package mtmlf

import (
	"math"
	"path/filepath"
	"testing"

	"mtmlf/internal/catalog"
	"mtmlf/internal/corpus"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// streamFixture builds one generated database with a labeled
// workload, writes it to a corpus file, and returns the in-memory
// catalog + examples and an opened reader over the round-tripped
// copy.
func streamFixture(t *testing.T) (catalog.Catalog, []*workload.LabeledQuery, *corpus.Reader) {
	t.Helper()
	db := tinyDB()
	cat := catalog.NewMemory(db)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 3
	examples := workload.NewGeneratorFrom(cat, 33).Generate(12, wcfg)
	path := filepath.Join(t.TempDir(), "corpus.mtc")
	if err := corpus.WriteFile(path, corpus.Meta{Seed: 33}, []*corpus.Database{{DB: db, Examples: examples}}); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return cat, examples, r
}

// trainFrom builds an identically seeded model over the given catalog
// backend, pre-trains its featurizer, and trains it from the given
// source with the given worker count.
func trainFrom(t *testing.T, cat catalog.Catalog, src workload.Source, workers int) (*Model, TrainStats) {
	t.Helper()
	m := NewModelCat(tinyConfig(), cat, 7)
	gen := workload.NewGeneratorFrom(cat, 8)
	cfg := workload.DefaultConfig()
	cfg.MaxTables = 3
	if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, cfg), 1); err != nil {
		t.Fatal(err)
	}
	st, err := m.TrainJointStream(src, TrainOptions{
		Epochs: 2, Seed: 9, BatchSize: 4, Workers: workers, RecordTrajectory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

// TestTrainJointStreamMatchesInMemory is the eps=0 equivalence
// contract of the pluggable data plane: with a fixed seed, the
// TrainJointStream loss trajectory and final parameters are bitwise
// identical between a slice source over the in-memory examples and
// the streaming corpus path, at any worker count.
func TestTrainJointStreamMatchesInMemory(t *testing.T) {
	memCat, examples, r := streamFixture(t)
	refModel, ref := trainFrom(t, memCat, workload.SliceSource(examples), 1)
	if len(ref.Trajectory) != ref.Steps {
		t.Fatalf("trajectory has %d entries, want %d", len(ref.Trajectory), ref.Steps)
	}

	diskCat, err := r.Catalog(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		m, st := trainFrom(t, diskCat, diskCat.Examples(), workers)
		if st.Steps != ref.Steps {
			t.Fatalf("workers=%d: steps %d, want %d", workers, st.Steps, ref.Steps)
		}
		for i := range ref.Trajectory {
			if math.Float64bits(st.Trajectory[i]) != math.Float64bits(ref.Trajectory[i]) {
				t.Fatalf("workers=%d: trajectory step %d differs: %v vs %v",
					workers, i, st.Trajectory[i], ref.Trajectory[i])
			}
		}
		if math.Float64bits(st.FinalLoss) != math.Float64bits(ref.FinalLoss) {
			t.Fatalf("workers=%d: final loss differs", workers)
		}
		pa, pb := refModel.Params(), m.Params()
		if len(pa) != len(pb) {
			t.Fatalf("parameter counts differ: %d vs %d", len(pa), len(pb))
		}
		for i := range pa {
			if !tensor.Equal(pa[i].T, pb[i].T, 0) {
				t.Fatalf("workers=%d: parameter %d differs between memory and corpus backends", workers, i)
			}
		}
	}
}

// errSource fails on one index, exercising the streaming error path.
type errSource struct {
	workload.Source
	bad int
}

func (e errSource) Example(i int) (*workload.LabeledQuery, error) {
	if i == e.bad {
		return nil, errFake
	}
	return e.Source.Example(i)
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake I/O error" }

// TestTrainJointStreamPropagatesSourceErrors: a failing backend must
// surface its error, not train on garbage.
func TestTrainJointStreamPropagatesSourceErrors(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	m := NewModelCat(tinyConfig(), memCat, 7)
	src := errSource{Source: workload.SliceSource(examples), bad: len(examples) / 2}
	_, err := m.TrainJointStream(src, TrainOptions{Epochs: 1, Seed: 9, BatchSize: 4})
	if err == nil {
		t.Fatal("expected source error to propagate")
	}
}
