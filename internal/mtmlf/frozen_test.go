package mtmlf

import (
	"sync"
	"testing"

	"mtmlf/internal/ag"
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
// of (S)+(T) training: TrainJointStream (on the direct-Backward path and on
// the sink path) and TrainMLAStream leave every Enc_i weight bitwise
// where its pre-training put it, with no gradient on it, and a
// per-example backward pass fills sink buffers for Shared parameters
// only. So one (F) serves any number of concurrent models over its
// database: each trains as it would alone.
func TestFeaturizerFrozenDuringTraining(t *testing.T) {
	for _, batch := range []int{1, 4} {
		m, qs := tinySetup(t, 70, 8)
		want := cloneParams(m.Feat.Params())
		assertFeatFrozen(t, "after pre-training", m.Feat.Params(), want)
		if _, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{Epochs: 1, Seed: 71, BatchSize: batch, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		assertFeatFrozen(t, "TrainJointStream", m.Feat.Params(), want)
	}

	m, qs := tinySetup(t, 72, 1)
	inShared := map[*ag.Value]bool{}
	for _, p := range m.Shared.Params() {
		inShared[p] = true
	}
	sink := ag.Grads{}
	m.exampleLoss(nil, qs[0], false).BackwardInto(sink)
	for p := range sink {
		if !inShared[p] {
			t.Fatalf("a backward pass filled a sink buffer for a %v parameter outside Shared", p.T.Shape)
		}
	}

	opts := mlaFixtureOpts()
	opts.BatchSize = 1
	cats, srcs := mlaCorpus(opts)
	shared := NewShared(tinyConfig(), 20)
	tasks, _, err := TrainMLAStream(shared, cats, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		// The featurizer Attach builds, pre-trained and nothing more.
		ref, err := Attach(shared, cats[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		assertFeatFrozen(t, "TrainMLAStream", task.Model.Feat.Params(), ref.Model.Feat.Params())
	}

	// Two (S)+(T) modules from different seeds over one featurizer:
	// trained at once, each loss trajectory is its solo run's, bit for
	// bit.
	m, qs = tinySetup(t, 73, 8)
	want := cloneParams(m.Feat.Params())
	seeds := [2]int64{80, 90}
	run := func(seed int64) []float64 {
		st, err := (&Model{Shared: NewShared(tinyConfig(), seed), Feat: m.Feat}).TrainJointStream(workload.SliceSource(qs),
			TrainOptions{Epochs: 1, Seed: seed + 1, BatchSize: 2, Workers: 2, RecordTrajectory: true})
		if err != nil {
			t.Error(err)
		}
		return st.Trajectory
	}
	var solo, both [2][]float64
	for i, seed := range seeds {
		solo[i] = run(seed)
	}
	if len(solo[0]) != len(qs) || sameTrajectory(solo[0], solo[1]) {
		t.Fatalf("solo trajectories %v and %v: want %d losses each, differing by seed", solo[0], solo[1], len(qs))
	}
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[i] = run(seed)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if !sameTrajectory(both[i], solo[i]) {
			t.Fatalf("seed %d: concurrent trajectory %v, solo %v", seeds[i], both[i], solo[i])
		}
	}
	assertFeatFrozen(t, "concurrent TrainJointStream", m.Feat.Params(), want)
}
