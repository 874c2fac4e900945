package tensor

import "math"

// AdamCoeffs are the scalars one Adam step applies to every element of
// every parameter: the gradient clip factor (1 when unclipped), the
// learning rate, the two moment decays, their bias corrections
// 1−β1^t and 1−β2^t, and ε.
type AdamCoeffs struct {
	Scale, LR, Beta1, Beta2, B1C, B2C, Eps float64
}

// AdamUpdate takes one Adam step on parameter p from its gradient g,
// updating the first and second moment estimates m and v in place. g, m
// and v must be at least as long as p. On amd64 with AVX2 it runs in
// assembly with the same bits as adamUpdate.
func AdamUpdate(p, g, m, v []float64, c AdamCoeffs) { adamUpdateF64(p, g, m, v, c) }

// adamUpdate is AdamUpdate's definition, the fallback and the oracle
// the assembly is tested against.
func adamUpdate(p, g, m, v []float64, c AdamCoeffs) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	for j := range p {
		gj := g[j] * c.Scale
		m[j] = float64(c.Beta1*m[j]) + float64((1-c.Beta1)*gj)
		v[j] = float64(c.Beta2*v[j]) + float64((1-c.Beta2)*gj*gj)
		mhat := m[j] / c.B1C
		vhat := v[j] / c.B2C
		p[j] -= c.LR * mhat / (math.Sqrt(vhat) + c.Eps)
	}
}
