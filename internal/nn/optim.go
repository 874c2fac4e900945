package nn

import (
	"fmt"
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

	params []*ag.Value
	m, v   []*tensor.Tensor
	t      int
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
	}
	for _, p := range params {
		a.m = append(a.m, tensor.New(p.T.Shape...))
		a.v = append(a.v, tensor.New(p.T.Shape...))
	}
	return a
}

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
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// Step applies one Adam update using the gradients accumulated on the
// parameters. Parameters with nil gradients are skipped.
func (a *Adam) Step() {
	a.t++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / (n + 1e-12)
		}
	}
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j := range p.T.Data {
			g := p.Grad.Data[j] * scale
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*g
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*g*g
			mhat := m.Data[j] / b1c
			vhat := v.Data[j] / b2c
			p.T.Data[j] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// AdamState is the optimizer's complete mutable state — the step
// count and both moment accumulators — in parameter order. Training
// snapshots persist it alongside the parameters: resuming Adam
// without m/v/t restarts the bias correction and moment history, so
// the post-resume trajectory would diverge from the uninterrupted run
// on the very first step.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State deep-copies the optimizer state (the snapshot must not alias
// tensors the next Step mutates).
func (a *Adam) State() AdamState {
	s := AdamState{T: a.t, M: make([][]float64, len(a.m)), V: make([][]float64, len(a.v))}
	for i := range a.m {
		s.M[i] = append([]float64(nil), a.m[i].Data...)
		s.V[i] = append([]float64(nil), a.v[i].Data...)
	}
	return s
}

// SetState restores a snapshot taken by State into an optimizer built
// over the same parameter list, validating every moment buffer's size
// against its parameter first.
func (a *Adam) SetState(s AdamState) error {
	if len(s.M) != len(a.params) || len(s.V) != len(a.params) {
		return fmt.Errorf("nn: Adam state has %d/%d moment buffers, optimizer has %d parameters",
			len(s.M), len(s.V), len(a.params))
	}
	for i, p := range a.params {
		if len(s.M[i]) != p.T.Size() || len(s.V[i]) != p.T.Size() {
			return fmt.Errorf("nn: Adam state buffer %d has %d/%d elements, parameter has %d",
				i, len(s.M[i]), len(s.V[i]), p.T.Size())
		}
	}
	a.t = s.T
	for i := range a.params {
		copy(a.m[i].Data, s.M[i])
		copy(a.v[i].Data, s.V[i])
	}
	return nil
}

// SGD is a plain stochastic-gradient-descent optimizer, used by tests
// and ablations as a reference point.
type SGD struct {
	LR     float64
	params []*ag.Value
}

// NewSGD creates the optimizer.
func NewSGD(params []*ag.Value, lr float64) *SGD {
	return &SGD{LR: lr, params: params}
}

// ZeroGrad clears accumulated gradients.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.Grad = nil
	}
}

// Step applies one descent update.
func (s *SGD) Step() {
	for _, p := range s.params {
		if p.Grad == nil {
			continue
		}
		for j := range p.T.Data {
			p.T.Data[j] -= s.LR * p.Grad.Data[j]
		}
	}
}
