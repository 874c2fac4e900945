package mtmlf

import (
	"testing"

	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// trainWithWorkers runs an identically seeded end-to-end training
// setup with the given data-parallel settings and returns the model.
func trainWithWorkers(t *testing.T, batch, workers int) (*Model, TrainStats) {
	t.Helper()
	db := tinyDB()
	m := NewModel(tinyConfig(), db, 7)
	gen := workload.NewGenerator(db, 8)
	cfg := workload.DefaultConfig()
	cfg.MaxTables = 3
	if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, cfg), 1); err != nil {
		t.Fatal(err)
	}
	qs := gen.Generate(10, cfg)
	st, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{
		Epochs: 2, Seed: 9, BatchSize: batch, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

// TestTrainJointWorkerCountInvariant is the determinism contract of
// data-parallel training: N workers must reproduce the 1-worker loss
// trajectory and final parameters bitwise, because the per-example
// gradient buffers are reduced in example order regardless of which
// worker filled them.
func TestTrainJointWorkerCountInvariant(t *testing.T) {
	ref, refStats := trainWithWorkers(t, 4, 1)
	for _, workers := range []int{2, 3, 8} {
		m, st := trainWithWorkers(t, 4, workers)
		if st.FinalLoss != refStats.FinalLoss {
			t.Fatalf("workers=%d: final loss %v != 1-worker %v", workers, st.FinalLoss, refStats.FinalLoss)
		}
		if st.Steps != refStats.Steps {
			t.Fatalf("workers=%d: steps %d != %d", workers, st.Steps, refStats.Steps)
		}
		pa, pb := ref.Shared.Params(), m.Shared.Params()
		for i := range pa {
			if !tensor.Equal(pa[i].T, pb[i].T, 0) {
				t.Fatalf("workers=%d: parameter %d differs from 1-worker run", workers, i)
			}
		}
	}
}

// TestTrainJointBatchOneMatchesSeedSemantics: BatchSize 0/1 must be
// plain per-example SGD — Steps counts every example and identically
// seeded runs coincide (the original training contract).
func TestTrainJointBatchOneMatchesSeedSemantics(t *testing.T) {
	a, sa := trainWithWorkers(t, 1, 1)
	b, sb := trainWithWorkers(t, 0, 4) // BatchSize 0 normalizes to 1
	if sa.Steps != sb.Steps || sa.FinalLoss != sb.FinalLoss {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	pa, pb := a.Shared.Params(), b.Shared.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].T, pb[i].T, 0) {
			t.Fatalf("parameter %d differs between batch-1 runs", i)
		}
	}
}

// TestTrainMLAWorkerCountInvariant extends the determinism contract to
// the Algorithm 1 meta-learning loop, including its parallel per-DB
// task preparation.
func TestTrainMLAWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *Shared {
		opts := mlaFixtureOpts()
		opts.JointEpochs, opts.Workers = 1, workers
		cats, srcs := mlaCorpus(opts)
		shared := NewShared(tinyConfig(), 20)
		if _, _, err := TrainMLAStream(shared, cats, srcs, opts); err != nil {
			t.Fatal(err)
		}
		return shared
	}
	ref := run(1)
	par := run(4)
	pa, pb := ref.Params(), par.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].T, pb[i].T, 0) {
			t.Fatalf("MLA parameter %d differs between 1 and 4 workers", i)
		}
	}
}

// TestTrainJointSeqLevelLossParallel exercises the Equation 3
// sequence-level loss under data parallelism (beam search inside the
// loss graph) so the race detector covers that path too.
func TestTrainJointSeqLevelLossParallel(t *testing.T) {
	db := tinyDB()
	m := NewModel(tinyConfig(), db, 11)
	gen := workload.NewGenerator(db, 12)
	cfg := workload.DefaultConfig()
	cfg.MaxTables = 3
	if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(4, cfg), 1); err != nil {
		t.Fatal(err)
	}
	qs := gen.Generate(6, cfg)
	st, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{
		Epochs: 1, Seed: 13, SeqLevelLoss: true, BatchSize: 3, Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != len(qs) {
		t.Fatalf("steps %d, want %d", st.Steps, len(qs))
	}
}
