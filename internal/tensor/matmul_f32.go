// The float32 row kernels of the reduced-precision inference tier —
// with matMulRows/matMulTransBRows, the only type-specialised code in
// the package (matmul.go's matMulRowsOf and matMulTransBRowsOf pick
// between them).
//
// They plug into the same dispatchers as the float64 kernels — serial
// below serialFlops, output rows sharded across the worker pool above
// it — so they inherit the same bitwise guarantee WITHIN the f32 tier:
// every output element is accumulated in the same order no matter how
// rows are sharded, and tests assert serial == sharded with eps = 0.
//
// Two deliberate differences from the float64 kernels, both because
// this tier serves dense post-projection activations rather than
// sparse one-hot feature rows:
//
//   - no zero-skip: the `if av == 0` branch pays off on sparse A but
//     is pure overhead (and a per-element unpredictable branch) on the
//     dense matrices this tier exists for;
//   - restructured inner loops: bounds-check-free slice windows
//     (full-slice expressions re-sliced to a constant 4 length) and
//     4x-unrolled accumulation — the most gc does for a scalar loop:
//     no bounds checks, four independent dependency chains. The 4-deep
//     l grouping is also the shape the AVX2 kernel takes over: where
//     the CPU has AVX2, matMulF32Rows's j loop runs in assembly
//     (simd_amd64.go, axpy4F32) with the same per-element order, and
//     this file is the fallback and the oracle it is tested against.
//
// The j-unrolled axpy updates each output element exactly once per l,
// so the per-element k-accumulation order is still ascending l — the
// invariant the bitwise within-tier contract rests on. The TransB dot
// product uses four partial sums reduced in a fixed tree; that order
// is part of the f32 kernel definition and identical on every path.
package tensor

// matMulF32Rows computes output rows [i0, i1) of a @ b, k-blocked so
// the active B slab stays cache-resident. The axpy update is unrolled
// 4-deep over l and 4-wide over j: four B rows stream at once, so each
// output element is loaded and stored once per four l's instead of
// once per l (a 4x cut in out-row traffic), over constant-length slice
// windows that make every index provably in-bounds.
//
// The per-element accumulation order is unchanged: each output element
// receives its four contributions as a chained sum in ascending-l
// order, the same sequence the one-l-at-a-time axpy produces — so the
// bitwise within-tier contract is preserved.
func matMulF32Rows(a, b, out []float32, k, n, i0, i1 int) {
	for l0 := 0; l0 < k; l0 += kcBlock {
		l1 := l0 + kcBlock
		if l1 > k {
			l1 = k
		}
		for i := i0; i < i1; i++ {
			orow := out[i*n : i*n+n : i*n+n]
			l := l0
			for ; l+4 <= l1; l += 4 {
				aw := a[i*k+l : i*k+l+4 : i*k+l+4]
				av0, av1, av2, av3 := aw[0], aw[1], aw[2], aw[3]
				b0 := b[l*n : l*n+n : l*n+n]
				b1 := b[(l+1)*n : (l+1)*n+n : (l+1)*n+n]
				b2 := b[(l+2)*n : (l+2)*n+n : (l+2)*n+n]
				b3 := b[(l+3)*n : (l+3)*n+n : (l+3)*n+n]
				j := 0
				for ; j+4 <= n; j += 4 {
					b0w := b0[j : j+4 : j+4]
					b1w := b1[j : j+4 : j+4]
					b2w := b2[j : j+4 : j+4]
					b3w := b3[j : j+4 : j+4]
					ow := orow[j : j+4 : j+4]
					o0 := ow[0] + av0*b0w[0]
					o1 := ow[1] + av0*b0w[1]
					o2 := ow[2] + av0*b0w[2]
					o3 := ow[3] + av0*b0w[3]
					o0 += av1 * b1w[0]
					o1 += av1 * b1w[1]
					o2 += av1 * b1w[2]
					o3 += av1 * b1w[3]
					o0 += av2 * b2w[0]
					o1 += av2 * b2w[1]
					o2 += av2 * b2w[2]
					o3 += av2 * b2w[3]
					o0 += av3 * b3w[0]
					o1 += av3 * b3w[1]
					o2 += av3 * b3w[2]
					o3 += av3 * b3w[3]
					ow[0] = o0
					ow[1] = o1
					ow[2] = o2
					ow[3] = o3
				}
				for ; j < n; j++ {
					s := orow[j] + av0*b0[j]
					s += av1 * b1[j]
					s += av2 * b2[j]
					s += av3 * b3[j]
					orow[j] = s
				}
			}
			for ; l < l1; l++ {
				av := a[i*k+l]
				brow := b[l*n : l*n+n : l*n+n]
				j := 0
				for ; j+4 <= n; j += 4 {
					bw := brow[j : j+4 : j+4]
					ow := orow[j : j+4 : j+4]
					ow[0] += av * bw[0]
					ow[1] += av * bw[1]
					ow[2] += av * bw[2]
					ow[3] += av * bw[3]
				}
				for ; j < n; j++ {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}

// matMulTransBF32Rows computes output rows [i0, i1) of a @ b^T as dot
// products over jcBlock-row B slabs. Each dot runs four independent
// partial sums over constant-length windows, reduced as
// (s0+s1)+(s2+s3) — a fixed tree, identical on every shard.
func matMulTransBF32Rows(a, b, out []float32, k, n, i0, i1 int) {
	for j0 := 0; j0 < n; j0 += jcBlock {
		j1 := j0 + jcBlock
		if j1 > n {
			j1 = n
		}
		for i := i0; i < i1; i++ {
			arow := a[i*k : i*k+k : i*k+k]
			orow := out[i*n : i*n+n : i*n+n]
			for j := j0; j < j1; j++ {
				brow := b[j*k : j*k+k : j*k+k]
				var s0, s1, s2, s3 float32
				l := 0
				for ; l+4 <= k; l += 4 {
					aw := arow[l : l+4 : l+4]
					bw := brow[l : l+4 : l+4]
					s0 += aw[0] * bw[0]
					s1 += aw[1] * bw[1]
					s2 += aw[2] * bw[2]
					s3 += aw[3] * bw[3]
				}
				s := (s0 + s1) + (s2 + s3)
				for ; l < k; l++ {
					s += arow[l] * brow[l]
				}
				orow[j] = s
			}
		}
	}
}
