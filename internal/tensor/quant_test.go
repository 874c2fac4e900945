package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantizeRowInt8RoundTripBound is the lowering property test: the
// dequantized row never deviates from the original by more than
// scale/2 per element (tiny slack for the float32 scale rounding).
func TestQuantizeRowInt8RoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := make([]int8, 512)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(512)
		row := make([]float32, n)
		scalePow := math.Pow(10, float64(rng.Intn(9)-4)) // magnitudes 1e-4 .. 1e4
		for i := range row {
			row[i] = float32(rng.NormFloat64() * scalePow)
		}
		scale := float64(QuantizeRowInt8(row, q))
		bound := scale/2 + scale*1e-6
		for i, v := range row {
			deq := float64(q[i]) * scale
			if math.Abs(float64(v)-deq) > bound {
				t.Fatalf("trial %d elem %d: |%v - %v| = %v > scale/2 = %v",
					trial, i, v, deq, math.Abs(float64(v)-deq), scale/2)
			}
		}
	}
	// All-zero row: scale 1, zero codes.
	zero := make([]float32, 16)
	if s := QuantizeRowInt8(zero, q); s != 1 {
		t.Fatalf("zero-row scale = %v, want 1", s)
	}
	for i := 0; i < 16; i++ {
		if q[i] != 0 {
			t.Fatal("zero row quantized to non-zero code")
		}
	}
}

func TestQuantizeLinearRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := Xavier(rng, 48, 32)
	qw := QuantizeLinear(w)
	deq := qw.Dequantize()
	for j := 0; j < 32; j++ {
		scale := float64(qw.Scales[j])
		for l := 0; l < 48; l++ {
			if d := math.Abs(w.At(l, j) - deq.At(l, j)); d > scale/2+scale*1e-6 {
				t.Fatalf("w[%d,%d]: error %v > scale/2 %v", l, j, d, scale/2)
			}
		}
	}
	if got, want := qw.Bytes(), 48*32+4*32; got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestMatMulInt8ParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range []struct{ m, k, n int }{{3, 5, 7}, {64, 64, 64}, {130, 140, 150}, {190, 170, 180}} {
		a := Convert[float32](RandNorm(rng, sh.m, sh.k, 1))
		w := QuantizeLinear(Xavier(rng, sh.k, sh.n))
		bias := Convert[float32](RandNorm(rng, 1, sh.n, 1))
		qbuf := make([]int8, sh.m*sh.k)
		serial := NewF32(sh.m, sh.n)
		par := NewF32(sh.m, sh.n)
		SetParallelism(1)
		MatMulInt8Into(a, w, bias, serial, qbuf)
		SetParallelism(8)
		MatMulInt8Into(a, w, bias, par, qbuf)
		SetParallelism(0)
		if !Equal(serial, par, 0) {
			t.Fatalf("[%dx%dx%d] parallel int8 result differs from serial", sh.m, sh.k, sh.n)
		}
	}
}

// TestMatMulInt8NearFloat64 bounds the int8 kernel against the exact
// float64 product: with per-row symmetric scales on both operands the
// per-element error is bounded by the two quantization steps times the
// operand magnitudes, loose but deterministic.
func TestMatMulInt8NearFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, k, n := 16, 64, 32
	a64 := RandNorm(rng, m, k, 1)
	w64 := Xavier(rng, k, n)
	bias64 := RandNorm(rng, 1, n, 0.5)

	ref := mm(a64, w64)
	AddBiasInto(ref, bias64, ref)

	out := NewF32(m, n)
	MatMulInt8Into(Convert[float32](a64), QuantizeLinear(w64), Convert[float32](bias64), out, make([]int8, m*k))

	for i := range ref.Data {
		if d := math.Abs(float64(out.Data[i]) - ref.Data[i]); d > 0.05 {
			t.Fatalf("element %d: int8 %v vs f64 %v (|d| = %v)", i, out.Data[i], ref.Data[i], d)
		}
	}
}
