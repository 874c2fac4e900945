//go:build !race

// (The race detector's instrumentation allocates on its own account.)

package mtmlf

import (
	"runtime"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/parallel"
)

// TestTrainStepAllocCeiling pins what one warm training example costs
// the allocator: Algorithm 1's per-example loss graph (exampleLoss) and
// its backward pass into a private sink, through worker.example on a
// scratch and a slot arena — exactly what every data-parallel worker
// runs per slot — summed over 8 queries. The slot arena is reset after
// each example, as the next minibatch would. Lower the ceilings when
// something moves more of the example off the heap, never raise them.
// The pool is pinned to one worker so the count does not depend on the
// machine's core count.
//
// History (go1.24, amd64; the ceilings are the last counts plus 3 %):
// 30,445 allocations and 5.52 MB while the tape still ran back through
// every Enc_i and copied each first gradient; 13,891 and 2.14 MB after
// that; 13,765 and 2.13 MB once LayerNorm's backward stopped making a
// scratch row per input row, every op still allocating its *Value,
// result tensor and backward closure and every gradient its own
// tensor (about 13,400 and 2.10 MB by then). With the graph on arenas and
// each backward rule a plain function instead of a closure: 946 and
// 48,800 bytes.
func TestTrainStepAllocCeiling(t *testing.T) {
	const (
		allocCeiling = 975    // allocations summed over the 8 queries below
		byteCeiling  = 50_250 // bytes summed over the same
	)
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	// One P from the warm-up on: the eval session Represent draws from
	// sits in a per-P sync.Pool, and a warm-up on a P that allocsPerRun
	// then takes away would leave the measured passes a cold session.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, qs := tinySetup(t, 80, 8)
	w := newMinibatch(1, 1).workers[0]
	sink := ag.Grads{}
	var allocs, bytes float64
	for _, lq := range qs {
		build := func(_ int, ar *ag.Arena) *ag.Value { return m.exampleLoss(ar, lq, false) }
		pass := func() {
			clear(sink)
			w.example(build, 0, sink)
			w.slot.Reset()
		}
		pass() // warm the arenas and the eval session Represent draws from
		a, b := allocsPerRun(20, pass)
		allocs += a
		bytes += b
	}
	t.Logf("8 warm worker.example passes: %.0f allocations, %.0f bytes (ceilings %d, %d)",
		allocs, bytes, allocCeiling, byteCeiling)
	if allocs > allocCeiling {
		t.Errorf("8 warm training examples allocate %.0f times, ceiling %d", allocs, allocCeiling)
	}
	if bytes > byteCeiling {
		t.Errorf("8 warm training examples allocate %.0f bytes, ceiling %d", bytes, byteCeiling)
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports bytes: the
// mean mallocs and heap bytes of one call of f, single-threaded.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
