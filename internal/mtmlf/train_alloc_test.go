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
// the allocator: Algorithm 1's per-example loss graph (mlaLoss) and its
// backward pass into a private sink, the work every data-parallel
// worker does per slot, summed over 8 queries. Every op still allocates
// its *Value, result tensor and backward closure, and every gradient
// its own tensor; moving those onto the session's pool is what the
// ceiling is there to show. Lower it when that lands, never raise it.
// The pool is pinned to one worker so the count does not depend on the
// machine's core count.
//
// Measured when the test was written (go1.24, amd64): 13,891
// allocations and 2.14 MB, down from 30,445 and 5.52 MB while the tape
// still ran back through every Enc_i and copied each first gradient.
// LayerNorm's backward then stopped making a scratch row per input row:
// 13,765 and 2.13 MB. The ceilings are those counts plus 3 %.
func TestTrainStepAllocCeiling(t *testing.T) {
	const (
		allocCeiling = 14_180    // allocations summed over the 8 queries below
		byteCeiling  = 2_190_000 // bytes summed over the same
	)
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	m, qs := tinySetup(t, 80, 8)
	task := &DBTask{Model: m}
	var allocs, bytes float64
	for _, lq := range qs {
		pass := func() { mlaLoss(task, lq).BackwardInto(ag.Grads{}) }
		pass() // warm the eval session Represent draws from
		a, b := allocsPerRun(20, pass)
		allocs += a
		bytes += b
	}
	t.Logf("8 warm mlaLoss + BackwardInto passes: %.0f allocations, %.0f bytes (ceilings %d, %d)",
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
