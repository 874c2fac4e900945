// Buffer pooling for the inference fast path and for training graphs
// (ag.Arena).
//
// A Pool is an arena of reusable tensors of one element type, indexed
// by element count:
// Get hands out a zeroed tensor of the requested shape, and Reset
// makes every tensor handed out since the last Reset reusable again
// without freeing it. At steady state (after the first generation has
// populated each size class) a forward pass served from a Pool
// allocates nothing.
//
// Ownership rules (see README "Inference path"):
//
//   - A pooled tensor is valid from its Get until the next Reset of
//     the pool that produced it. Nothing that must outlive the Reset
//     may point into a pooled tensor — copy it out (Clone) first.
//   - Pools are NOT safe for concurrent use. Each inference session
//     (one ag.Session) and each training arena (one ag.Arena) owns one
//     Pool; concurrent sessions and workers get their own.
//     DESIGN.md "Session ownership" records the full lifetime rules
//     the serving layer builds on.
package tensor

import "sync/atomic"

// Process-wide pool telemetry: every Get increments poolGets, and the
// ones that could not reuse a free buffer also increment poolAllocs.
// The serving layer's /statsz surfaces the reuse rate (1 - allocs/gets)
// as its "is the arena warm" signal. Atomic adds cost ~ns against the
// O(d^2..d^3) kernel work each pooled buffer feeds.
var (
	poolGets   atomic.Uint64
	poolAllocs atomic.Uint64
)

// PoolCounters reports the cumulative pooled-tensor Gets and the
// subset that had to allocate, across every Pool of every element type
// in the process.
func PoolCounters() (gets, allocs uint64) {
	return poolGets.Load(), poolAllocs.Load()
}

// Pool is a size-indexed tensor arena. The zero value is not usable;
// construct with NewPool.
type Pool[T Float] struct {
	classes map[int]*poolClass[T]
}

// poolClass is the arena for one element count: bufs[:next] are handed
// out, bufs[next:] are free.
type poolClass[T Float] struct {
	bufs []*Dense[T]
	next int
}

// NewPool creates an empty pool.
func NewPool[T Float]() *Pool[T] {
	return &Pool[T]{classes: map[int]*poolClass[T]{}}
}

// Get returns a zeroed tensor of the given shape, reusing a free
// buffer of the same element count when one exists. The tensor is
// owned by the pool: it becomes invalid at the next Reset.
func (p *Pool[T]) Get(shape ...int) *Dense[T] {
	t, reused := p.get(shape)
	if reused {
		clear(t.Data)
	}
	return t
}

// GetUninit is Get without the zeroing pass: the contents of a reused
// buffer are whatever its previous user left there. Only for callers
// that overwrite every element before reading any (all the Into
// kernels except the accumulating matmuls qualify) — it saves one
// full memory walk per op on the hot serving path.
func (p *Pool[T]) GetUninit(shape ...int) *Dense[T] {
	t, _ := p.get(shape)
	return t
}

// get hands out a buffer and reports whether it was reused (and so
// may hold stale data).
func (p *Pool[T]) get(shape []int) (t *Dense[T], reused bool) {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic("tensor: Pool.Get negative dimension")
		}
		n *= s
	}
	poolGets.Add(1)
	c := p.classes[n]
	if c == nil {
		c = &poolClass[T]{}
		p.classes[n] = c
	}
	if c.next < len(c.bufs) {
		t = c.bufs[c.next]
		c.next++
		t.setShape(shape)
		return t, true
	}
	poolAllocs.Add(1)
	t = NewOf[T](shape...)
	c.bufs = append(c.bufs, t)
	c.next++
	return t, false
}

// setShape points t at a new shape without allocating when the rank
// matches the previous use of the buffer.
func (t *Dense[T]) setShape(shape []int) {
	if len(t.Shape) == len(shape) {
		copy(t.Shape, shape)
		return
	}
	t.Shape = append([]int(nil), shape...)
}

// Reset returns every tensor handed out since the last Reset to the
// free state. Previously returned tensors must no longer be used.
func (p *Pool[T]) Reset() {
	for _, c := range p.classes {
		c.next = 0
	}
}

// Fill sets every element of every tensor handed out since the last
// Reset to v: how a race build's ag.Arena poisons what it releases.
func (p *Pool[T]) Fill(v T) {
	for _, c := range p.classes {
		for _, t := range c.bufs[:c.next] {
			t.Fill(v)
		}
	}
}
