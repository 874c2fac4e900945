package serve

import (
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/mtmlf"
)

// The engine-overhead guard: BenchmarkEngineSolo and
// BenchmarkEngineModelOnly run the same card requests, one caller, one
// after another. One op is one pass over the test workload, after a
// warm-up pass, so -benchtime=1x (make bench-smoke) already averages
// several warm requests. Solo minus ModelOnly is what the scheduler
// adds per pass — two goroutine hand-offs, validation and a stats
// record per request, tens of µs each. A millisecond per request means
// something on the request path is sleeping again.

// benchSink keeps the compiler from discarding the measured calls.
var benchSink float64

// BenchmarkEngineSolo is a lone caller on an engine at default Options:
// no backlog ever forms, so every batch is one request.
func BenchmarkEngineSolo(b *testing.B) {
	m, qs := testModel(b)
	e, err := NewEngine(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	pass := func() {
		for _, lq := range qs {
			est, err := e.EstimateCard(lq.Q, lq.Plan)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = est.Root
		}
	}
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// BenchmarkEngineModelOnly is the model work of BenchmarkEngineSolo
// with no engine around it: per request, one evaluator session running
// the representation and the card head, as runBatch does for a batch
// of one.
func BenchmarkEngineModelOnly(b *testing.B) {
	m, qs := testModel(b)
	pass := func() {
		for _, lq := range qs {
			ev := ag.AcquireEval()
			rep := m.RepresentInfer(ev, lq.Q, lq.Plan)
			nodes := mtmlf.ExpClamp(m.PredictLogCardsInfer(ev, rep).Data)
			ag.ReleaseEval(ev)
			benchSink = nodes[len(nodes)-1]
		}
	}
	pass()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
