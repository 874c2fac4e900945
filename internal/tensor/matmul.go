// Matrix-multiply kernels: the hot path of the whole substrate.
//
// # DESIGN — parallelism model
//
// All three kernels (MatMul, MatMulTransA, MatMulTransB) share one
// structure: a cache-blocked inner kernel that computes a contiguous
// range of OUTPUT rows, and a dispatcher that either calls it once
// (serial fast path, for small problems) or shards the output rows
// across the package worker pool (internal/parallel). Output rows are
// disjoint between shards, so no synchronization is needed beyond the
// final join, and — because each output element is always accumulated
// in the same k-order no matter how the rows are sharded — the result
// is BITWISE IDENTICAL at every parallelism level, including the
// serial path. Tests assert this exactly (eps = 0).
//
// SetParallelism(n) bounds the worker count (default GOMAXPROCS); it
// is the single knob the -workers flags of every binary wire to.
// Problems of up to serialFlops multiply-adds never leave the calling
// goroutine: at transformer-layer sizes a goroutine handoff costs more
// than the arithmetic it saves.
//
// Element types: the dispatchers are written once over T. The only
// type-specialised product code in the package is the pair of inner row
// kernels they pick between by looking at the element type
// (matMulRowsOf, matMulTransBRowsOf): matMulRows/matMulTransBRows for
// float64, whose one-term-at-a-time accumulation order (and, in a @ b,
// zero skip) the training bitwise contracts rest on, and the
// 4x4-unrolled matMulF32Rows/matMulTransBF32Rows of matmul_f32.go for
// float32.
//
// These pure-Go kernels are the definition of every product. On amd64
// with AVX2 the a @ b, a^T @ b, float64 a @ b^T and int8 products run
// instead on the row loops of simd_amd64.go, whose inner loops are
// assembly (simd_amd64.s): output columns in the vector lanes — for
// a @ b^T four B rows transposed in registers — a separate multiply
// and add per term in the same ascending-l order, never an FMA — so
// every element is rounded exactly as here and no golden moves
// (TestSIMDMatchesPureGo, eps = 0 down to the sign of zero). The
// choice is one CPUID check at init; the kernels in this file are the
// fallback everywhere else and the oracle the assembly is tested
// against. DESIGN.md §9 has the numbers.
//
// Cache blocking: the B operand is walked in kcBlock-row slabs
// (MatMul) or jcBlock-row slabs (MatMulTransB) sized to stay resident
// in L2 while every output row in the shard streams over them.
// Blocking only reorders which (i, l) pairs are visited when — each
// out[i,j] still accumulates its k products in ascending l order, the
// invariant the bitwise-equality guarantee rests on.
package tensor

import (
	"fmt"

	"mtmlf/internal/parallel"
)

// SetParallelism sets the worker-pool size used by large tensor
// kernels (and everything else built on internal/parallel) and
// returns the previous value. n <= 0 resets to runtime.GOMAXPROCS.
func SetParallelism(n int) int { return parallel.SetWorkers(n) }

// Parallelism returns the current worker-pool size.
func Parallelism() int { return parallel.Workers() }

const (
	// serialFlops is the multiply-add count up to which a matmul runs
	// entirely on the calling goroutine. Measured with the AVX2 row
	// kernels (PR 24, 2 vCPUs; µs per [m,128]x[128,512] product, one
	// goroutine -> two, f64 then f32):
	//
	//	m=8   (2^19)   46 -> 63     23 -> 30
	//	m=32  (2^21)  190 -> 205    94 -> 126
	//	m=64  (2^22)  390 -> 408   200 -> 215
	//	m=128 (2^23)  800 -> 510   400 -> 320
	//	256^3 (2^24) 1600 -> 950   840 -> 550
	//
	// At -cpu 1 the two coincide. The crossover sits 32x above the
	// 1<<17 measured against the scalar kernels: the arithmetic got
	// about 5x cheaper, waking a second thread did not. Sharding never
	// changes bits, so this is a speed constant and nothing to configure.
	serialFlops = 1 << 22
	// kcBlock is the k-dimension block: a kcBlock x n slab of B is
	// reused across every output row of a shard before moving on.
	kcBlock = 128
	// jcBlock bounds the B-row slab of MatMulTransB (jcBlock rows of
	// length k) so repeated dot products hit cache.
	jcBlock = 64
)

// rowGrain returns the minimum output rows per shard so that each
// spawned chunk carries at least ~serialFlops of work.
func rowGrain(flopsPerRow int) int {
	if flopsPerRow <= 0 {
		return 1
	}
	g := serialFlops / flopsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul returns a @ b for matrices a [m,k] and b [k,n].
func MatMul(a, b *Tensor) *Tensor {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %v @ %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	matMulInto(a.Data, b.Data, out.Data, m, k, n)
	return out
}

// matMulInto accumulates a @ b into out (which must be zeroed),
// serially below serialFlops and sharded by output row above it.
func matMulInto[T Float](a, b, out []T, m, k, n int) {
	if m*k*n < serialFlops {
		matMulRowsOf(a, b, out, k, n, 0, m)
		return
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulRowsOf(a, b, out, k, n, i0, i1)
	})
}

// matMulTransBInto overwrites out with a @ b^T; see matMulInto.
func matMulTransBInto[T Float](a, b, out []T, m, k, n int) {
	if m*k*n < serialFlops {
		matMulTransBRowsOf(a, b, out, k, n, 0, m)
		return
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulTransBRowsOf(a, b, out, k, n, i0, i1)
	})
}

// matMulRowsOf runs the a @ b row kernel specialised for the element
// type. This, matMulTransBRowsOf and addInPlaceOf are the only places
// the package branches on it. (The boxed slices must not reach the panic: that
// would make them escape and cost every call an allocation.)
func matMulRowsOf[T Float](a, b, out []T, k, n, i0, i1 int) {
	switch a := any(a).(type) {
	case []float64:
		matMulRowsF64(a, any(b).([]float64), any(out).([]float64), k, n, i0, i1)
	case []float32:
		matMulRowsF32(a, any(b).([]float32), any(out).([]float32), k, n, i0, i1)
	default:
		panic(fmt.Sprintf("tensor: no matmul kernel for %T", *new(T)))
	}
}

// matMulTransBRowsOf runs the a @ b^T row kernel specialised for the
// element type.
func matMulTransBRowsOf[T Float](a, b, out []T, k, n, i0, i1 int) {
	switch a := any(a).(type) {
	case []float64:
		matMulTransBRowsF64(a, any(b).([]float64), any(out).([]float64), k, n, i0, i1)
	case []float32:
		matMulTransBF32Rows(a, any(b).([]float32), any(out).([]float32), k, n, i0, i1)
	default:
		panic(fmt.Sprintf("tensor: no matmul kernel for %T", *new(T)))
	}
}

// matMulRows computes output rows [i0, i1) of a @ b. The k loop is
// blocked so the active B slab stays cache-resident; within a block
// the (i, l, j) order matches the classic kernel, streaming both B
// and out rows sequentially. Zero entries of A are skipped — plan
// feature rows are sparse one-hots, so this pays off well beyond its
// cost on dense inputs.
func matMulRows(a, b, out []float64, k, n, i0, i1 int) {
	for l0 := 0; l0 < k; l0 += kcBlock {
		l1 := l0 + kcBlock
		if l1 > k {
			l1 = k
		}
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			for l := l0; l < l1; l++ {
				av := arow[l]
				if av == 0 {
					continue
				}
				brow := b[l*n : (l+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	}
}

// MatMulTransB returns a @ b^T for a [m,k], b [n,k]. It avoids
// materializing the transpose, which the attention kernels rely on.
func MatMulTransB(a, b *Tensor) *Tensor {
	a.mustMatrix()
	b.mustMatrix()
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dim mismatch %v @ %v^T", a.Shape, b.Shape))
	}
	out := New(m, n)
	matMulTransBInto(a.Data, b.Data, out.Data, m, k, n)
	return out
}

// matMulTransBRows computes output rows [i0, i1) of a @ b^T as dot
// products, visiting B in jcBlock-row slabs so each slab is reused
// across all rows of the shard while hot.
func matMulTransBRows(a, b, out []float64, k, n, i0, i1 int) {
	for j0 := 0; j0 < n; j0 += jcBlock {
		j1 := j0 + jcBlock
		if j1 > n {
			j1 = n
		}
		for i := i0; i < i1; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			for j := j0; j < j1; j++ {
				brow := b[j*k : (j+1)*k]
				var s float64
				for l, av := range arow {
					s += av * brow[l]
				}
				orow[j] = s
			}
		}
	}
}

// MatMulTransA returns a^T @ b for a [k,m], b [k,n].
func MatMulTransA(a, b *Tensor) *Tensor {
	a.mustMatrix()
	b.mustMatrix()
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dim mismatch %v^T @ %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	if m*k*n < serialFlops {
		matMulTransARowsF64(a.Data, b.Data, out.Data, k, m, n, 0, m)
		return out
	}
	parallel.For(m, rowGrain(k*n), func(i0, i1 int) {
		matMulTransARowsF64(a.Data, b.Data, out.Data, k, m, n, i0, i1)
	})
	return out
}

// matMulTransARows computes output rows [i0, i1) of a^T @ b, i.e. the
// rows indexed by columns i of a. The l (row of a and b) loop stays
// outermost so both inputs stream sequentially; out rows for the shard
// are revisited per l, which stays cheap because shards are sized by
// rowGrain. Gradient matrices are often sparse, hence the zero skip.
func matMulTransARows(a, b, out []float64, k, m, n, i0, i1 int) {
	for l := 0; l < k; l++ {
		arow := a[l*m : (l+1)*m]
		brow := b[l*n : (l+1)*n]
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := out[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulBatch computes as[i] @ bs[i] for every pair, fanning the batch
// out over the worker pool. It exists so callers with many small
// independent products — per-head attention, per-token projections —
// can use the pool even when each single product is below the
// parallel threshold. Results are identical to calling MatMul in a
// loop.
func MatMulBatch(as, bs []*Tensor) []*Tensor {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("tensor: MatMulBatch length mismatch %d vs %d", len(as), len(bs)))
	}
	out := make([]*Tensor, len(as))
	parallel.For(len(as), 1, func(s, e int) {
		for i := s; i < e; i++ {
			out[i] = MatMul(as[i], bs[i])
		}
	})
	return out
}

// MatMulTransBBatch computes as[i] @ bs[i]^T for every pair on the
// worker pool; see MatMulBatch.
func MatMulTransBBatch(as, bs []*Tensor) []*Tensor {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("tensor: MatMulTransBBatch length mismatch %d vs %d", len(as), len(bs)))
	}
	out := make([]*Tensor, len(as))
	parallel.For(len(as), 1, func(s, e int) {
		for i := s; i < e; i++ {
			out[i] = MatMulTransB(as[i], bs[i])
		}
	})
	return out
}
