package mtmlf

import (
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/datagen"
	"mtmlf/internal/parallel"
	"mtmlf/internal/workload"
)

// BenchmarkTrainExample times one warm Algorithm 1 training example:
// mlaLoss's graph and its backward pass into a private sink, the work a
// data-parallel worker does per minibatch slot. The model is a Dim-32
// DefaultConfig one over SyntheticIMDB; the examples cycle through 8
// three-table queries. The pool is pinned to one worker, as in
// TestTrainStepAllocCeiling.
func BenchmarkTrainExample(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	db := datagen.SyntheticIMDB(5, 0.05)
	task := &DBTask{Model: NewModel(DefaultConfig(), db, 1)}
	cfg := workload.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = 3, 3
	qs := workload.NewGenerator(db, 2).Generate(8, cfg)
	for _, lq := range qs {
		mlaLoss(task, lq).BackwardInto(ag.Grads{}) // warm the eval session
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mlaLoss(task, qs[i%len(qs)]).BackwardInto(ag.Grads{})
	}
}
