package mtmlf

import (
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/datagen"
	"mtmlf/internal/parallel"
	"mtmlf/internal/workload"
)

// BenchmarkTrainExample times one warm Algorithm 1 training example:
// exampleLoss's graph and its backward pass into a private sink,
// through worker.example on a scratch and a slot arena — the work a
// data-parallel worker does per minibatch slot. The model is a Dim-32
// DefaultConfig one over SyntheticIMDB; the examples cycle through 8
// three-table queries. The pool is pinned to one worker, as in
// TestTrainStepAllocCeiling.
func BenchmarkTrainExample(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	db := datagen.SyntheticIMDB(5, 0.05)
	m := NewModel(DefaultConfig(), db, 1)
	cfg := workload.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 3, 3
	qs := workload.NewGenerator(db, 2).Generate(8, cfg)
	w := newMinibatch(1, 1).workers[0]
	sink := ag.Grads{}
	build := func(i int, ar *ag.Arena) *ag.Value { return m.exampleLoss(ar, qs[i%len(qs)], false) }
	pass := func(i int) {
		clear(sink)
		w.example(build, i, sink)
		w.slot.Reset()
	}
	for i := range qs {
		pass(i) // warm the arenas and the eval session
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(i)
	}
}
