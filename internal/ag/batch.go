// Batched linear-algebra ops: many independent products computed in
// one fan-out over the worker pool. The nn attention layers use these
// to fuse their per-head projections — each head's product is far too
// small to shard internally, but the batch as a whole parallelizes.
package ag

import (
	"fmt"

	"mtmlf/internal/tensor"
)

// MatMulBatch returns nodes for as[i] @ bs[i], computing every forward
// product in one parallel batch. Each returned node carries the same
// backward rule as MatMul, so gradients are identical to the unbatched
// form.
func MatMulBatch(as, bs []*Value) []*Value {
	return batch(as, bs, false)
}

// MatMulTransBBatch returns nodes for as[i] @ bs[i]^T computed in one
// parallel batch; gradients match MatMulTransB.
func MatMulTransBBatch(as, bs []*Value) []*Value {
	return batch(as, bs, true)
}

// batch makes every node — its Value and result from its arena, which
// is single-goroutine — before the products fan out.
func batch(as, bs []*Value, transB bool) []*Value {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("ag: batched matmul length mismatch %d vs %d", len(as), len(bs)))
	}
	n := len(as)
	nodes := make([]*Value, n)
	ts := make([]*tensor.Tensor, 3*n)
	for i := range as {
		a, b := as[i], bs[i]
		var out *Value
		if transB {
			out = newNode("matmulTB", a, b)
			out.T = out.ar.uninit(a.T.Rows(), b.T.Rows())
			out.backward = matMulTransBBack
		} else {
			out = newNode("matmul", a, b)
			out.T = out.ar.zeros(a.T.Rows(), b.T.Cols())
			out.backward = matMulBack
		}
		nodes[i] = out
		ts[i], ts[n+i], ts[2*n+i] = a.T, b.T, out.T
	}
	if transB {
		tensor.MatMulTransBBatchInto(ts[:n], ts[n:2*n], ts[2*n:])
	} else {
		tensor.MatMulBatchInto(ts[:n], ts[n:2*n], ts[2*n:])
	}
	return nodes
}
