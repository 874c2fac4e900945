//go:build !race

// (The race detector's instrumentation allocates on its own account.)

package mtmlf

import (
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/featurize"
	"mtmlf/internal/workload"
)

// TestWarmRepresentInferAllocCeiling pins how often a warm Dim-128
// RepresentInfer allocates — pool warm, every table encoding a memo
// hit, which is what a served request runs. What is left is per-node
// bookkeeping (plan.Node.Tables/Nodes/Paths, Query.FiltersFor and
// JoinsAmong under EstimateSubplanCard, attention head slices), none of
// it arithmetic. The ceiling is the count when the test was written
// (PR 24): lower it when one of those goes, never raise it.
func TestWarmRepresentInferAllocCeiling(t *testing.T) {
	const ceiling = 451 // allocations summed over the 8 queries below
	cfg := tinyConfig()
	cfg.Dim, cfg.Feat.Dim = 128, 128
	db := tinyDB()
	lm := NewModel(cfg, db, 46).Reference().Memoized(new(featurize.MemoCounters))
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	e := ag.NewEval()
	var total float64
	for _, lq := range workload.NewGenerator(db, 47).Generate(8, wcfg) {
		pass := func() {
			lm.RepresentInfer(e, lq.Q, lq.Plan)
			e.Reset()
		}
		pass() // fill the pool and the memo
		total += testing.AllocsPerRun(10, pass)
	}
	if total > ceiling {
		t.Fatalf("8 warm RepresentInfer passes allocate %v times, ceiling %d", total, ceiling)
	}
	t.Logf("8 warm RepresentInfer passes allocate %v times (ceiling %d)", total, ceiling)
}
