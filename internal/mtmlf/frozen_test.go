package mtmlf

import (
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/catalog"
	"mtmlf/internal/featurize"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// assertFeatFrozen fails unless every (F) parameter holds no gradient
// and exactly the weights of want.
func assertFeatFrozen(t *testing.T, label string, got, want []*ag.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d featurizer parameters, want %d", label, len(got), len(want))
	}
	for i, p := range got {
		if p.Grad != nil {
			t.Fatalf("%s: featurizer parameter %d holds a gradient", label, i)
		}
		if !tensor.Equal(p.T, want[i].T, 0) {
			t.Fatalf("%s: featurizer parameter %d moved", label, i)
		}
	}
}

// cloneParams copies the parameters' weights.
func cloneParams(ps []*ag.Value) []*ag.Value {
	out := make([]*ag.Value, len(ps))
	for i, p := range ps {
		out[i] = ag.Const(p.T.Clone())
	}
	return out
}

// TestFeaturizerFrozenDuringTraining is the (F)-is-a-constant contract
// of (S)+(T) training: TrainJoint (on the direct-Backward path and on
// the sink path) and TrainMLAStream leave every Enc_i weight bitwise
// where its pre-training put it, with no gradient on it, and a
// per-example backward pass fills sink buffers for Shared parameters
// only.
func TestFeaturizerFrozenDuringTraining(t *testing.T) {
	for _, batch := range []int{1, 4} {
		m, qs := tinySetup(t, 70, 8)
		want := cloneParams(m.Feat.Params())
		assertFeatFrozen(t, "after pre-training", m.Feat.Params(), want)
		m.TrainJoint(qs, TrainOptions{Epochs: 1, Seed: 71, BatchSize: batch, Workers: 2})
		assertFeatFrozen(t, "TrainJoint", m.Feat.Params(), want)
	}

	m, qs := tinySetup(t, 72, 1)
	inShared := map[*ag.Value]bool{}
	for _, p := range m.Shared.Params() {
		inShared[p] = true
	}
	sink := ag.Grads{}
	m.jointLoss(qs[0], false).BackwardInto(sink)
	for p := range sink {
		if !inShared[p] {
			t.Fatalf("a backward pass filled a sink buffer for a %v parameter outside Shared", p.T.Shape)
		}
	}

	dbs := mlaFleet()
	opts := mlaFixtureOpts()
	opts.BatchSize = 1
	cats := make([]catalog.Catalog, len(dbs))
	srcs := make([]workload.Source, len(dbs))
	for i, db := range dbs {
		cats[i] = catalog.NewMemory(db)
		_, qs := GenMLAData(cats[i], opts, i)
		srcs[i] = workload.SliceSource(qs)
	}
	shared := NewShared(tinyConfig(), 20)
	tasks, _, err := TrainMLAStream(shared, cats, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		// The featurizer newDBTaskFrom builds, pre-trained and nothing more.
		ref := featurize.NewFrom(cats[i], shared.Cfg.Feat, opts.Seed+7)
		st, _ := GenMLAData(cats[i], opts, i)
		if _, err := ref.PretrainAllFrom(st, opts.EncoderEpochs); err != nil {
			t.Fatal(err)
		}
		assertFeatFrozen(t, "TrainMLAStream", task.Model.Feat.Params(), ref.Params())
	}
}
