package main

import (
	"time"

	"mtmlf/internal/tensor"
)

// kernelTime is how long each kernel is looped for.
const kernelTime = 40 * time.Millisecond

// perSecond loops f for at least kernelTime and returns calls per second.
func perSecond(f func()) float64 {
	f() // first touch of the buffers
	start := time.Now()
	n := 0
	for time.Since(start) < kernelTime {
		f()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// fill writes a fixed, well-conditioned pattern in roughly [-1, 1].
func fill[T float32 | float64](d []T) {
	s := uint64(0x9e3779b97f4a7c15)
	for i := range d {
		s = s*6364136223846793005 + 1442695040888963407
		d[i] = T(float64(int64(s>>33))/float64(1<<30) - 1)
	}
}

// traceKernels measures the tensor kernels the wide model spends its
// time in, serially, at two shapes: m8 = [8,128]x[128,512], the wide
// model's feed-forward layer at a typical plan size, and 256x256 as in
// BENCH_PR9. Rates are computed from the shapes (2mkn flops per matmul,
// one element per element-wise output), not measured by a counter.
func (r *run) traceKernels() {
	restore := tensor.Parallelism()
	tensor.SetParallelism(1)
	defer tensor.SetParallelism(restore)

	for _, sh := range []struct {
		name    string
		m, k, n int
	}{{"m8", 8, 128, 512}, {"sq256", 256, 256, 256}} {
		gflop := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n) / 1e9
		a64, b64, o64 := tensor.New(sh.m, sh.k), tensor.New(sh.k, sh.n), tensor.New(sh.m, sh.n)
		a32, b32, o32 := tensor.NewF32(sh.m, sh.k), tensor.NewF32(sh.k, sh.n), tensor.NewF32(sh.m, sh.n)
		fill(a64.Data)
		fill(b64.Data)
		fill(a32.Data)
		fill(b32.Data)
		r.set("tensor.matmul_gflops.f64."+sh.name, gflop*perSecond(func() {
			clear(o64.Data)
			tensor.MatMulInto(a64, b64, o64)
		}))
		r.set("tensor.matmul_gflops.f32."+sh.name, gflop*perSecond(func() {
			clear(o32.Data)
			tensor.MatMulF32Into(a32, b32, o32)
		}))
		// The dynamic quantization of the activation rows is part of the
		// call, as it is in serving.
		w8 := tensor.QuantizeLinear(b64)
		bias, qbuf := tensor.NewF32(1, sh.n), make([]int8, sh.m*sh.k)
		r.set("tensor.matmul_gflops.int8."+sh.name, gflop*perSecond(func() {
			tensor.MatMulInt8Into(a32, w8, bias, o32, qbuf)
		}))
		if sh.name == "m8" {
			bt64, bt32 := tensor.New(sh.n, sh.k), tensor.NewF32(sh.n, sh.k)
			fill(bt64.Data)
			fill(bt32.Data)
			r.set("tensor.transb_gflops.f64.m8", gflop*perSecond(func() { tensor.MatMulTransBInto(a64, bt64, o64) }))
			r.set("tensor.transb_gflops.f32.m8", gflop*perSecond(func() { tensor.MatMulTransBF32Into(a32, bt32, o32) }))
		}
	}

	const n = 256
	melem := float64(n*n) / 1e6
	a64, g64, z64, o64 := tensor.New(n, n), tensor.New(1, n), tensor.New(1, n), tensor.New(n, n)
	a32, g32, z32, o32 := tensor.NewF32(n, n), tensor.NewF32(1, n), tensor.NewF32(1, n), tensor.NewF32(n, n)
	fill(a64.Data)
	fill(g64.Data)
	fill(a32.Data)
	fill(g32.Data)
	for name, f := range map[string][2]func(){
		"gelu":      {func() { tensor.GELUInto(a64, o64) }, func() { tensor.GELUF32Into(a32, o32) }},
		"softmax":   {func() { tensor.SoftmaxRowsInto(a64, o64) }, func() { tensor.SoftmaxRowsF32Into(a32, o32) }},
		"layernorm": {func() { tensor.LayerNormRowsInto(a64, g64, z64, 1e-5, o64) }, func() { tensor.LayerNormRowsF32Into(a32, g32, z32, 1e-5, o32) }},
		"addbias":   {func() { tensor.AddBiasInto(a64, g64, o64) }, func() { tensor.AddBiasF32Into(a32, g32, o32) }},
	} {
		r.set("tensor."+name+"_melem_s.f64", melem*perSecond(f[0]))
		r.set("tensor."+name+"_melem_s.f32", melem*perSecond(f[1]))
	}

	// Copy bandwidth, the ceiling for the element-wise kernels: bytes
	// read plus bytes written per second over 64 MiB.
	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	r.set("tensor.membw_gb_s", 2*float64(len(src))/1e9*perSecond(func() { copy(dst, src) }))
}
