package tensor

// The float32 spellings of generic kernels, kept because the frozen
// benchmark (bench/kernels.go, which no change may edit) calls them by
// these names. Each is a one-line forward to the generic kernel; new
// code calls the generic name and lets the argument types pick T.

// MatMulF32Into is MatMulInto at float32.
func MatMulF32Into(a, b, out *F32) { MatMulInto(a, b, out) }

// MatMulTransBF32Into is MatMulTransBInto at float32.
func MatMulTransBF32Into(a, b, out *F32) { MatMulTransBInto(a, b, out) }

// GELUF32Into is GELUInto at float32.
func GELUF32Into(a, out *F32) { GELUInto(a, out) }

// SoftmaxRowsF32Into is SoftmaxRowsInto at float32.
func SoftmaxRowsF32Into(a, out *F32) { SoftmaxRowsInto(a, out) }

// LayerNormRowsF32Into is LayerNormRowsInto at float32.
func LayerNormRowsF32Into(a, gamma, beta *F32, eps float64, out *F32) {
	LayerNormRowsInto(a, gamma, beta, eps, out)
}

// AddBiasF32Into is AddBiasInto at float32.
func AddBiasF32Into(a, bias, out *F32) { AddBiasInto(a, bias, out) }
