package nn

import (
	"math"
	"math/rand"
	"sync"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// sinCache memoizes SinusoidalPositions by (seq, dim); like the causal
// mask, positional rows were rebuilt on every forward before the
// inference fast path landed. Guarded for concurrent inference.
var (
	sinMu    sync.RWMutex
	sinCache = map[[2]int]*tensor.Tensor{}
)

// SinusoidalPositions returns the standard [seq, dim] sinusoidal
// positional encoding of Vaswani et al. The result is memoized and
// shared: callers must treat it as read-only.
func SinusoidalPositions(seq, dim int) *tensor.Tensor {
	key := [2]int{seq, dim}
	sinMu.RLock()
	pe := sinCache[key]
	sinMu.RUnlock()
	if pe != nil {
		return pe
	}
	pe = sinusoidalPositions(seq, dim)
	sinMu.Lock()
	if prev, ok := sinCache[key]; ok {
		pe = prev
	} else {
		sinCache[key] = pe
	}
	sinMu.Unlock()
	return pe
}

func sinusoidalPositions(seq, dim int) *tensor.Tensor {
	pe := tensor.New(seq, dim)
	for pos := 0; pos < seq; pos++ {
		row := pe.Row(pos)
		for i := 0; i < dim; i += 2 {
			freq := math.Pow(10000, -float64(i)/float64(dim))
			row[i] = math.Sin(float64(pos) * freq)
			if i+1 < dim {
				row[i+1] = math.Cos(float64(pos) * freq)
			}
		}
	}
	return pe
}

// TreePath is a root-to-node path in a binary tree: 0 = left child,
// 1 = right child. The root has an empty path.
type TreePath []int

// TreePositionalEncoder implements the tree positional embedding of
// Shiv & Quirk (NeurIPS 2019) that the paper's serializer (F.iii) uses
// to flatten plan trees: each node's root path is encoded as a fixed
// binary feature vector (one slot pair per depth level) and projected
// into the model dimension by a learned linear layer.
type TreePositionalEncoder struct {
	MaxDepth int
	Proj     *Linear

	// raw memoizes RawFeature by path: plan shapes repeat heavily
	// across a workload, and the rows were rebuilt on every forward.
	// Guarded because inference runs concurrently with the experiment
	// trial fan-out.
	rawMu sync.RWMutex
	raw   map[string][]float64
}

// NewTreePositionalEncoder creates an encoder for trees of depth up to
// maxDepth producing dim-wide encodings.
func NewTreePositionalEncoder(rng *rand.Rand, maxDepth, dim int) *TreePositionalEncoder {
	return &TreePositionalEncoder{
		MaxDepth: maxDepth,
		Proj:     NewLinear(rng, 2*maxDepth, dim),
	}
}

// RawFeature returns the fixed 2*MaxDepth-wide binary feature for a
// path: slot 2d holds "went left at depth d", slot 2d+1 "went right".
// Paths deeper than MaxDepth are truncated (the prefix dominates plan
// positions, matching the paper's complete-binary-tree view). The
// returned slice is memoized and shared: treat it as read-only.
func (t *TreePositionalEncoder) RawFeature(p TreePath) []float64 {
	key := pathKey(p)
	t.rawMu.RLock()
	f := t.raw[key]
	t.rawMu.RUnlock()
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
	t.rawMu.Lock()
	if t.raw == nil {
		t.raw = map[string][]float64{}
	}
	if prev, ok := t.raw[key]; ok {
		f = prev
	} else {
		t.raw[key] = f
	}
	t.rawMu.Unlock()
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
func (t *TreePositionalEncoder) Forward(paths []TreePath) *ag.Value {
	raw := tensor.New(len(paths), 2*t.MaxDepth)
	for i, p := range paths {
		copy(raw.Row(i), t.RawFeature(p))
	}
	return t.Proj.Forward(ag.Const(raw))
}

// Params implements Module.
func (t *TreePositionalEncoder) Params() []*ag.Value { return t.Proj.Params() }
