package nn

import (
	"math/rand"
	"sync"

	"mtmlf/internal/ag"
)

// TreePath is a root-to-node path in a binary tree: 0 = left child,
// 1 = right child. The root has an empty path.
type TreePath []int

// TreePositionalEncoder implements the tree positional embedding of
// Shiv & Quirk (NeurIPS 2019) that the paper's serializer (F.iii) uses
// to flatten plan trees: each node's root path is encoded as a fixed
// binary feature vector (one slot pair per depth level) and projected
// into the model dimension by a learned linear layer.
type TreePositionalEncoder[V Tensor] struct {
	MaxDepth int
	Proj     *Linear[V]
	// raw memoizes RawFeature; a lowered encoder shares its source's.
	raw *rawFeatures
}

// rawFeatures memoizes RawFeature by path: plan shapes repeat heavily
// across a workload, and the rows were rebuilt on every forward.
// Guarded because inference runs concurrently with the experiment
// trial fan-out.
type rawFeatures struct {
	mu   sync.RWMutex
	rows map[string][]float64
}

// NewTreePositionalEncoder creates an encoder for trees of depth up to
// maxDepth producing dim-wide encodings.
func NewTreePositionalEncoder(rng *rand.Rand, maxDepth, dim int) *TreePositionalEncoder[*ag.Value] {
	return &TreePositionalEncoder[*ag.Value]{
		MaxDepth: maxDepth,
		Proj:     NewLinear(rng, 2*maxDepth, dim),
		raw:      &rawFeatures{rows: map[string][]float64{}},
	}
}

// RawFeature returns the fixed 2*MaxDepth-wide binary feature for a
// path: slot 2d holds "went left at depth d", slot 2d+1 "went right".
// Paths deeper than MaxDepth are truncated (the prefix dominates plan
// positions, matching the paper's complete-binary-tree view). The
// returned slice is memoized and shared: treat it as read-only.
func (t *TreePositionalEncoder[V]) RawFeature(p TreePath) []float64 {
	key := pathKey(p)
	t.raw.mu.RLock()
	f := t.raw.rows[key]
	t.raw.mu.RUnlock()
	if f != nil {
		return f
	}
	f = make([]float64, 2*t.MaxDepth)
	for d, dir := range p {
		if d >= t.MaxDepth {
			break
		}
		if dir == 0 {
			f[2*d] = 1
		} else {
			f[2*d+1] = 1
		}
	}
	t.raw.mu.Lock()
	if prev, ok := t.raw.rows[key]; ok {
		f = prev
	} else {
		t.raw.rows[key] = f
	}
	t.raw.mu.Unlock()
	return f
}

// pathKey packs a 0/1 path into a compact map key.
func pathKey(p TreePath) string {
	b := make([]byte, len(p))
	for i, dir := range p {
		b[i] = byte('0' + dir)
	}
	return string(b)
}

// Forward encodes a batch of paths into a [len(paths), dim] matrix.
func (t *TreePositionalEncoder[V]) Forward(o ag.Ops[V], paths []TreePath) V {
	raw := o.Input(len(paths), 2*t.MaxDepth)
	for i, p := range paths {
		copy(raw.Row(i), t.RawFeature(p))
	}
	return t.Proj.Forward(o, o.Const(raw))
}

// Params implements Module.
func (t *TreePositionalEncoder[V]) Params() []V { return t.Proj.Params() }

// Bytes returns the resident bytes of the projection.
func (t *TreePositionalEncoder[V]) Bytes() int { return t.Proj.Bytes() }
