package ag

import "mtmlf/internal/tensor"

// Arena is the memory training graphs are built in: the Values, the
// forward results and the gradients of every node that takes it (see
// the package comment), drawn from a size-indexed tensor.Pool and
// slabs of Values, and all reclaimed at once by Reset. A warm arena
// makes a graph and its backward pass almost allocation-free.
//
// An Arena is single-goroutine: one per data-parallel worker. Nothing
// it handed out may be used after its Reset — not a node, not a
// result, not a gradient — so whoever resets it must have read what
// it needs first (a loss's Item, a sink's buffers). In a race build
// Reset fills every released buffer with NaN, so a read after Reset
// shows in the goldens instead of passing by luck. A nil *Arena is the
// heap: every method then allocates, and nothing is reclaimed.
type Arena struct {
	pool  *tensor.Pool[float64]
	vals  []*[valueSlab]Value
	nvals int
	// idx backs Gather's index copies.
	idx []int
	// order is topoSort's scratch, kept for the next backward pass.
	order []*Value
}

const valueSlab = 256

// poison, set in race builds (poison_race.go), fills what Reset
// releases with values no computation survives.
var poison func(*Arena)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{pool: tensor.NewPool[float64]()} }

// Reset reclaims everything the arena handed out since the last Reset.
func (a *Arena) Reset() {
	if poison != nil {
		poison(a)
	}
	a.pool.Reset()
	for i := 0; i < a.nvals; i += valueSlab {
		clear(a.vals[i/valueSlab][:min(valueSlab, a.nvals-i)])
	}
	a.nvals = 0
	a.idx = a.idx[:0]
}

// value returns a zero Value whose memory is a's.
func (a *Arena) value() *Value {
	if a == nil {
		return new(Value)
	}
	s, i := a.nvals/valueSlab, a.nvals%valueSlab
	if s == len(a.vals) {
		a.vals = append(a.vals, new([valueSlab]Value))
	}
	a.nvals++
	v := &a.vals[s][i]
	v.ar = a
	return v
}

// constant is Const on a.
func (a *Arena) constant(t *tensor.Tensor) *Value {
	v := a.value()
	v.T, v.op = t, "const"
	return v
}

// zeros returns a zeroed tensor: for kernels that accumulate.
func (a *Arena) zeros(shape ...int) *tensor.Tensor {
	if a == nil {
		return tensor.New(shape...)
	}
	return a.pool.Get(shape...)
}

// uninit returns a tensor whose contents are garbage: only for code
// that writes every element before reading any.
func (a *Arena) uninit(shape ...int) *tensor.Tensor {
	if a == nil {
		return tensor.New(shape...)
	}
	return a.pool.GetUninit(shape...)
}

// clone returns a copy of t.
func (a *Arena) clone(t *tensor.Tensor) *tensor.Tensor {
	out := a.uninit(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// ints returns a copy of idx.
func (a *Arena) ints(idx []int) []int {
	if a == nil {
		return append([]int(nil), idx...)
	}
	n := len(a.idx)
	a.idx = append(a.idx, idx...)
	return a.idx[n:len(a.idx):len(a.idx)]
}

// orderBuf and keepOrder lend topoSort the arena's scratch slice.
func (a *Arena) orderBuf() []*Value {
	if a == nil {
		return nil
	}
	return a.order[:0]
}

func (a *Arena) keepOrder(order []*Value) {
	if a != nil {
		clear(order)
		a.order = order[:0]
	}
}
