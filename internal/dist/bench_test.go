package dist

import (
	"fmt"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// BenchmarkAllReduceTCP is one gradient round of the benchmark's
// fleet shape — 8 slots, a model-sized parameter list, over loopback —
// at 2 ranks, and at 3, the smallest fleet with a middle rank that both
// receives and forwards a prefix. Bytes are what the round puts on the
// wire, allocs are every worker's (the coordinator takes no part in a
// round).
func BenchmarkAllReduceTCP(b *testing.B) {
	for _, world := range []int{2, 3} {
		b.Run(fmt.Sprintf("world%d", world), func(b *testing.B) {
			f := newLoopFleetOf(b, world, modelShapes, 8)
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
		})
	}
}

// BenchmarkAllReduceLocal is the same minibatch through Local(): what
// the reduction itself costs with no wire under it (0 allocs/op warm).
func BenchmarkAllReduceLocal(b *testing.B) {
	round := localRound(b)
	round() // the first round allocates the fold's accumulators
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// localRound returns one Local() round of the benchmark's minibatch — 8
// slots over a model-sized parameter list — with the parameters' Grad
// cleared first, as the trainer's ZeroGrad does.
func localRound(tb testing.TB) func() {
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
	return func() {
		for _, p := range params {
			p.Grad = nil
		}
		if err := ex.AllReduce(params, slots, losses, 1.0/8); err != nil {
			tb.Fatal(err)
		}
	}
}
