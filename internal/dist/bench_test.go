package dist

import (
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// BenchmarkAllReduceTCP is one gradient round of the benchmark's
// fleet shape: 2 ranks over loopback, 4 owned slots each, a model-sized
// parameter list. Bytes are what the round puts on the wire, allocs
// are both workers' and the coordinator's.
func BenchmarkAllReduceTCP(b *testing.B) {
	f := newLoopFleet(b, modelShapes, 8)
	defer f.close(b)
	// The first round allocates what every later one reuses.
	if err := f.round(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(f.wireBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.round(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllReduceLocal is the same minibatch through Local(): what
// the reduction itself costs with no wire under it.
func BenchmarkAllReduceLocal(b *testing.B) {
	params := make([]*ag.Value, len(modelShapes))
	for k, shape := range modelShapes {
		params[k] = ag.Param(tensor.New(shape...))
	}
	slots, losses := make([]ag.Grads, 8), make([]float64, 8)
	for i := range slots {
		slots[i] = ag.Grads{}
		for k, p := range params {
			slots[i][p] = slotGrad(1, i, k, p)
		}
	}
	ex := Local()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			p.Grad = nil
		}
		if err := ex.AllReduce(params, slots, losses, 1.0/8); err != nil {
			b.Fatal(err)
		}
	}
}
