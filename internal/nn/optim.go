package nn

import (
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba), the optimizer the
// paper trains MTMLF-QO with (learning rate 1e-4 in Section 6.1).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	// ClipNorm, when > 0, rescales the global gradient norm to at most
	// this value before each step, which keeps small-batch transformer
	// training stable.
	ClipNorm float64
	// Steps counts the updates taken; bias correction reads it. With
	// Moments it is all of the optimizer's mutable state, which a
	// training snapshot must persist: resuming without it restarts the
	// bias correction and the moment history, and the trajectory leaves
	// the uninterrupted run's on the very first step.
	Steps int

	params []*ag.Value
	// moments holds every parameter's first-moment estimate, then every
	// second-moment estimate, each of its parameter's shape.
	moments []*ag.Value
}

// NewAdam creates an optimizer over params with standard betas.
func NewAdam(params []*ag.Value, lr float64) *Adam {
	a := &Adam{
		LR:       lr,
		Beta1:    0.9,
		Beta2:    0.999,
		Eps:      1e-8,
		ClipNorm: 1.0,
		params:   params,
		moments:  make([]*ag.Value, 2*len(params)),
	}
	for i, p := range params {
		a.moments[i] = ag.Const(tensor.New(p.T.Shape...))
		a.moments[len(params)+i] = ag.Const(tensor.New(p.T.Shape...))
	}
	return a
}

// Moments returns the moment tensors themselves, not copies: every
// parameter's first-moment estimate, then every second-moment estimate.
// A snapshot writes them out and a restore reads into them.
func (a *Adam) Moments() []*ag.Value { return a.moments }

// ZeroGrad clears accumulated gradients; call before each backward pass.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.Grad = nil
	}
}

// GradNorm returns the global L2 norm of all current gradients.
func (a *Adam) GradNorm() float64 {
	var s float64
	for _, p := range a.params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			s += float64(g * g)
		}
	}
	return math.Sqrt(s)
}

// Step applies one Adam update using the gradients accumulated on the
// parameters. Parameters with nil gradients are skipped.
func (a *Adam) Step() {
	a.Steps++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / (n + 1e-12)
		}
	}
	c := tensor.AdamCoeffs{
		Scale: scale, LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps,
		B1C: 1 - math.Pow(a.Beta1, float64(a.Steps)),
		B2C: 1 - math.Pow(a.Beta2, float64(a.Steps)),
	}
	n := len(a.params)
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.moments[i].T, a.moments[n+i].T
		tensor.AdamUpdate(p.T.Data, p.Grad.Data, m.Data, v.Data, c)
	}
}
