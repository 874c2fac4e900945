package nn_test

import (
	"math/rand"
	"testing"

	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/tensor"
)

// BenchmarkAdamStep times one Adam step over the transferable (S)+(T)
// parameters of a DefaultConfig model, every gradient set — the step
// Algorithm 1's joint loop takes once per minibatch. ns/elem is per
// parameter element, GradNorm's sum included.
func BenchmarkAdamStep(b *testing.B) {
	params := mtmlf.NewShared(mtmlf.DefaultConfig(), 1).Params()
	rng := rand.New(rand.NewSource(2))
	elems := 0
	for _, p := range params {
		p.Grad = tensor.New(p.T.Shape...)
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
		elems += len(p.T.Data)
	}
	opt := nn.NewAdam(params, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}
