package mtmlf

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"mtmlf/internal/nn"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// TestBeamSearchWideBeamFindsBestLegal verifies that with a beam wide
// enough to hold every hypothesis, constrained beam search returns the
// same best sequence as exhaustive enumeration over legal orders.
func TestBeamSearchWideBeamFindsBestLegal(t *testing.T) {
	m, qs := tinySetup(t, 40, 6)
	for _, lq := range qs {
		n := len(lq.Q.Tables)
		if n > 4 {
			continue
		}
		rep := m.Represent(lq.Q, lq.Plan)
		jo := m.Shared.JO
		res := jo.BeamSearch(rep.Memory, lq.Q, 1000, true)
		if len(res) == 0 {
			t.Fatal("no candidates")
		}
		best := res[0]
		for _, r := range res[1:] {
			if r.LogProb > best.LogProb {
				best = r
			}
		}
		// Exhaustive: enumerate all legal permutations and score them
		// with the same per-step candidate normalization.
		adj := positionAdjacency(lq.Q)
		var bestExh float64 = math.Inf(-1)
		perm := make([]int, 0, n)
		used := make([]bool, n)
		var rec func(logp float64)
		rec = func(logp float64) {
			if len(perm) == n {
				if logp > bestExh {
					bestExh = logp
				}
				return
			}
			step := len(perm)
			cands := legalNext(adj, used, step)
			if len(cands) == 0 {
				return
			}
			logits := jo.Logits(rep.Memory, perm)
			row := logits.T.Row(step)
			lse := math.Inf(-1)
			for _, c := range cands {
				lse = logAdd(lse, row[c])
			}
			for _, c := range cands {
				used[c] = true
				perm = append(perm, c)
				rec(logp + row[c] - lse)
				perm = perm[:len(perm)-1]
				used[c] = false
			}
		}
		rec(0)
		if math.Abs(best.LogProb-bestExh) > 1e-9 {
			t.Fatalf("wide beam %g != exhaustive best %g", best.LogProb, bestExh)
		}
	}
}

// TestBeamProbabilitiesNormalized checks that for a full-width beam the
// first-step candidate probabilities sum to 1 (they are normalized over
// the legal candidate set).
func TestBeamProbabilitiesNormalized(t *testing.T) {
	m, qs := tinySetup(t, 41, 3)
	lq := qs[0]
	rep := m.Represent(lq.Q, lq.Plan)
	res := m.Shared.JO.BeamSearch(rep.Memory, lq.Q, 10000, true)
	// Group by first position; each complete sequence's probability is
	// a product of step conditionals, so the total over all sequences
	// must be 1.
	var total float64
	for _, r := range res {
		total += math.Exp(r.LogProb)
	}
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("sequence probabilities sum to %g, want 1", total)
	}
}

// TestSharedRoundtripThroughCheckpoint saves a trained Shared as the
// transfer artifact and restores it into a new model, verifying
// identical predictions — the provider→user flow of Section 2.3.
func TestSharedRoundtripThroughCheckpoint(t *testing.T) {
	m, qs := tinySetup(t, 42, 8)
	m.TrainJoint(qs, TrainOptions{Epochs: 1, Seed: 43})

	var buf bytes.Buffer
	if err := SaveShared(&buf, m); err != nil {
		t.Fatal(err)
	}
	restored := &Model{Shared: NewShared(m.Shared.Cfg, 999), Feat: m.Feat}
	if _, err := Load(&buf, restored); err != nil {
		t.Fatal(err)
	}
	lq := qs[0]
	a := m.EstimateNodeCards(lq)
	b := restored.EstimateNodeCards(lq)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("restored shared module predicts differently")
		}
	}
	ra := m.Represent(lq.Q, lq.Plan)
	rb := restored.Represent(lq.Q, lq.Plan)
	oa := m.JoinOrderFor(lq.Q, ra)
	ob := restored.JoinOrderFor(lq.Q, rb)
	if len(oa) != len(ob) {
		t.Fatal("restored join order length differs")
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("restored join order differs")
		}
	}
}

// TestRepresentationDeterministic verifies inference is deterministic:
// the same query yields bit-identical representations across calls.
func TestRepresentationDeterministic(t *testing.T) {
	m, qs := tinySetup(t, 44, 2)
	lq := qs[0]
	r1 := m.Represent(lq.Q, lq.Plan)
	r2 := m.Represent(lq.Q, lq.Plan)
	if !tensor.Equal(r1.S.T, r2.S.T, 0) {
		t.Fatal("representation not deterministic")
	}
}

// TestTrainingIsSeedReproducible verifies two identically seeded
// training runs produce identical parameters.
func TestTrainingIsSeedReproducible(t *testing.T) {
	build := func() *Model {
		db := tinyDB()
		m := NewModel(tinyConfig(), db, 7)
		gen := workload.NewGenerator(db, 8)
		cfg := workload.DefaultConfig()
		cfg.MaxTables = 3
		m.Feat.PretrainAll(gen, 5, 1, cfg)
		qs := gen.Generate(5, cfg)
		m.TrainJoint(qs, TrainOptions{Epochs: 2, Seed: 9})
		return m
	}
	a, b := build(), build()
	pa, pb := a.Shared.Params(), b.Shared.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].T, pb[i].T, 0) {
			t.Fatalf("parameter %d differs between identically seeded runs", i)
		}
	}
}

// TestSequenceLossPrefersOptimal sanity-checks Equation 3: training a
// few steps on the sequence loss raises the optimal order's score.
func TestSequenceLossPrefersOptimal(t *testing.T) {
	m, qs := tinySetup(t, 45, 10)
	var lq *workload.LabeledQuery
	for _, q := range qs {
		if len(q.OptimalOrder) >= 3 {
			lq = q
			break
		}
	}
	if lq == nil {
		t.Skip("no suitable query")
	}
	score := func() float64 {
		rep := m.Represent(lq.Q, lq.Plan)
		return m.Shared.JO.ScoreSequence(rep.Memory, orderPositions(rep, lq.OptimalOrder)).Item()
	}
	before := score()
	opt := nn.NewAdam(m.Shared.Params(), 1e-3)
	for i := 0; i < 20; i++ {
		opt.ZeroGrad()
		rep := m.Represent(lq.Q, lq.Plan)
		loss := m.JoinOrderSequenceLoss(rep, lq.Q, lq.OptimalOrder)
		loss.Backward()
		opt.Step()
	}
	after := score()
	if after <= before {
		t.Fatalf("sequence loss did not raise optimal-order score: %g -> %g", before, after)
	}
}

// TestOrderPositionsSorted ensures position mapping covers the query's
// tables exactly once.
func TestOrderPositionsSorted(t *testing.T) {
	m, qs := tinySetup(t, 46, 3)
	for _, lq := range qs {
		if lq.OptimalOrder == nil {
			continue
		}
		rep := m.Represent(lq.Q, lq.Plan)
		pos := orderPositions(rep, lq.OptimalOrder)
		sorted := append([]int{}, pos...)
		sort.Ints(sorted)
		for i, p := range sorted {
			if p != i {
				t.Fatalf("positions %v are not a permutation", pos)
			}
		}
	}
}
