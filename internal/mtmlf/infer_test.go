package mtmlf

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// beamSearchLegacy is the reference the cached BeamSearch is held to:
// the original search, in which every beam re-runs training's Logits
// over its entire prefix at every step.
func beamSearchLegacy(j *JoinOrder, memory *ag.Value, q *sqldb.Query, k int, constrained bool) []BeamSearchResult {
	type beamState struct {
		seq  []int
		logp float64
	}
	mTabs := memory.Rows()
	adj := positionAdjacency(q)
	beams := []beamState{{}}
	for step := 0; step < mTabs; step++ {
		var next []beamState
		for _, b := range beams {
			used := make([]bool, mTabs)
			for _, p := range b.seq {
				used[p] = true
			}
			var candidates []int
			if constrained {
				candidates = legalNext(adj, used, step)
			} else {
				for i := 0; i < mTabs; i++ {
					if !used[i] {
						candidates = append(candidates, i)
					}
				}
			}
			if len(candidates) == 0 {
				continue
			}
			row := j.Logits(memory, b.seq).T.Row(step)
			// Normalize over the candidate set.
			lse := math.Inf(-1)
			for _, c := range candidates {
				lse = logAdd(lse, row[c])
			}
			for _, c := range candidates {
				next = append(next, beamState{
					seq:  append(append([]int{}, b.seq...), c),
					logp: b.logp + row[c] - lse,
				})
			}
		}
		if len(next) == 0 {
			return nil
		}
		sort.Slice(next, func(a, b int) bool { return next[a].logp > next[b].logp })
		if len(next) > k {
			next = next[:k]
		}
		beams = next
	}
	out := make([]BeamSearchResult, 0, len(beams))
	for _, b := range beams {
		out = append(out, BeamSearchResult{
			Positions: b.seq,
			LogProb:   b.logp,
			Legal:     isLegalOrder(adj, b.seq),
		})
	}
	return out
}

// TestBeamSearchCachedMatchesLegacy is the tentpole equivalence test:
// KV-cached incremental beam search must return the same beams with
// the same log-probs (eps = 0, bitwise) as the full-prefix recompute,
// at every beam width, constrained and unconstrained.
func TestBeamSearchCachedMatchesLegacy(t *testing.T) {
	m, qs := tinySetup(t, 41, 4)
	for _, k := range []int{1, 2, 5} {
		for _, constrained := range []bool{true, false} {
			t.Run(fmt.Sprintf("k=%d/constrained=%v", k, constrained), func(t *testing.T) {
				for _, lq := range qs {
					rep := m.Represent(lq.Q, lq.Plan)
					legacy := beamSearchLegacy(m.Shared.JO, rep.Memory, lq.Q, k, constrained)
					cached := m.Shared.JO.BeamSearch(rep.Memory, lq.Q, k, constrained)
					if len(legacy) != len(cached) {
						t.Fatalf("beam count: legacy %d, cached %d", len(legacy), len(cached))
					}
					for i := range legacy {
						if legacy[i].LogProb != cached[i].LogProb {
							t.Fatalf("beam %d logprob: legacy %v, cached %v (diff %g)",
								i, legacy[i].LogProb, cached[i].LogProb,
								legacy[i].LogProb-cached[i].LogProb)
						}
						if legacy[i].Legal != cached[i].Legal {
							t.Fatalf("beam %d legality differs", i)
						}
						if len(legacy[i].Positions) != len(cached[i].Positions) {
							t.Fatalf("beam %d length differs", i)
						}
						for j := range legacy[i].Positions {
							if legacy[i].Positions[j] != cached[i].Positions[j] {
								t.Fatalf("beam %d position %d: legacy %d, cached %d",
									i, j, legacy[i].Positions[j], cached[i].Positions[j])
							}
						}
					}
				}
			})
		}
	}
}

// TestRepresentInferMatchesGrad asserts the no-grad representation and
// both task heads are bitwise identical to the grad-tracked pipeline —
// encoder, decoder memory, and heads (the satellite no-grad coverage).
func TestRepresentInferMatchesGrad(t *testing.T) {
	m, qs := tinySetup(t, 43, 3)
	e := ag.NewEval()
	defer e.Reset()
	for _, lq := range qs {
		grad := m.Represent(lq.Q, lq.Plan)
		fast := m.RepresentInfer(e, lq.Q, lq.Plan)
		if !tensor.Equal(grad.S.T, fast.S, 0) {
			t.Fatal("S differs between grad and no-grad paths")
		}
		if !tensor.Equal(grad.Memory.T, fast.Memory, 0) {
			t.Fatal("Memory differs between grad and no-grad paths")
		}
		if !tensor.Equal(m.PredictLogCards(grad).T, m.PredictLogCardsInfer(e, fast), 0) {
			t.Fatal("card head differs between grad and no-grad paths")
		}
		if !tensor.Equal(m.PredictLogCosts(grad).T, m.PredictLogCostsInfer(e, fast), 0) {
			t.Fatal("cost head differs between grad and no-grad paths")
		}
		e.Reset()
	}
}

// TestBareModelIsUncached: only a serve bundle memoizes table encodings
// (featurize/memo.go). A bare Model that takes one more Adam step —
// encoder weights included — after answering must answer with the new
// weights, through Reference() and through a replica lowered afterwards,
// and so stays an independent check on every memoized answer.
func TestBareModelIsUncached(t *testing.T) {
	m, qs := tinySetup(t, 45, 3)
	opt := nn.NewAdam(m.Params(), 1e-2)
	for _, lq := range qs {
		before := m.EstimateNodeCards(lq)
		before32 := m.Lower(nn.PrecisionF32).EstimateNodeCards(lq)

		opt.ZeroGrad()
		m.CardLoss(m.Represent(lq.Q, lq.Plan), lq).Backward()
		opt.Step()

		want := ExpClamp(m.PredictLogCards(m.Represent(lq.Q, lq.Plan)).T.Data)
		after := m.EstimateNodeCards(lq)
		for i := range want {
			if after[i] != want[i] {
				t.Fatalf("node %d after the step: %v, grad path %v (a stale encoding?)", i, after[i], want[i])
			}
		}
		same := func(a, b []float64) bool {
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		if same(after, before) || same(m.Lower(nn.PrecisionF32).EstimateNodeCards(lq), before32) {
			t.Fatal("an Adam step over every parameter left the estimates unchanged")
		}
	}
}

// TestInferJoinOrderMatchesGradPath asserts the one-call serving entry
// point returns the same order as the grad-path Represent+JoinOrderFor.
func TestInferJoinOrderMatchesGradPath(t *testing.T) {
	m, qs := tinySetup(t, 44, 4)
	for _, lq := range qs {
		rep := m.Represent(lq.Q, lq.Plan)
		want := m.JoinOrderFor(lq.Q, rep)
		got := m.InferJoinOrder(lq.Q, lq.Plan)
		if len(want) != len(got) {
			t.Fatalf("order length: grad %v, infer %v", want, got)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("order differs: grad %v, infer %v", want, got)
			}
		}
	}
}

// qerr returns the q-error max(a/b, b/a) of two positive estimates.
func qerr(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return a / b
}

// tier is the serial serving surface every instantiation of Lowered
// answers from.
type tier interface {
	EstimateRoot(*workload.LabeledQuery) (card, cost float64)
	InferJoinOrder(*sqldb.Query, *plan.Node) []string
}

// TestTiersTrackReference bounds the end-to-end model-level q-error of
// each tier against the float64 model — the per-model precursor of the
// corpus-level calibration harness — and asserts the decode-at-f64
// design holds up: every tier returns the identical argmax join order.
// The f64 row is the one generic stack at T = float64: budget 1, i.e.
// exactly the Model methods' numbers.
func TestTiersTrackReference(t *testing.T) {
	m, qs := tinySetup(t, 51, 4)
	for _, tc := range []struct {
		p      nn.Precision
		tier   tier
		budget float64
	}{
		{nn.PrecisionF64, m.Reference(), 1},
		{nn.PrecisionF32, m.Lower(nn.PrecisionF32), 1.01},
		{nn.PrecisionInt8, m.Lower(nn.PrecisionInt8), 1.5},
	} {
		for _, lq := range qs {
			refCard, refCost := m.EstimateRoot(lq)
			gotCard, gotCost := tc.tier.EstimateRoot(lq)
			if q := qerr(gotCard, refCard); q > tc.budget {
				t.Fatalf("%v card q-error %.4f exceeds %.2f (got %g, ref %g)", tc.p, q, tc.budget, gotCard, refCard)
			}
			if q := qerr(gotCost, refCost); q > tc.budget {
				t.Fatalf("%v cost q-error %.4f exceeds %.2f (got %g, ref %g)", tc.p, q, tc.budget, gotCost, refCost)
			}
			if len(lq.Q.Tables) < 2 {
				continue
			}
			ref := m.InferJoinOrder(lq.Q, lq.Plan)
			got := tc.tier.InferJoinOrder(lq.Q, lq.Plan)
			if strings.Join(ref, ",") != strings.Join(got, ",") {
				t.Fatalf("%v join order %v differs from reference %v", tc.p, got, ref)
			}
		}
	}
}

// TestLoweredParamBytes pins the memory-sizing claims: f32 halves the
// resident model bytes apart from the f64 decoder, and int8 is at most
// half of the float64 model overall (the PR's acceptance criterion).
func TestLoweredParamBytes(t *testing.T) {
	m, _ := tinySetup(t, 53, 1)
	f64Bytes := m.ParamBytes()
	f32Bytes := m.Lower(nn.PrecisionF32).ParamBytes()
	int8Bytes := m.Lower(nn.PrecisionInt8).ParamBytes()
	if f32Bytes >= f64Bytes {
		t.Fatalf("f32 replica %d bytes not smaller than f64 %d", f32Bytes, f64Bytes)
	}
	if 2*int8Bytes > f64Bytes {
		t.Fatalf("int8 replica %d bytes more than half of f64 %d", int8Bytes, f64Bytes)
	}
	if int8Bytes >= f32Bytes {
		t.Fatalf("int8 replica %d bytes not smaller than f32 %d", int8Bytes, f32Bytes)
	}
}

// TestExpClampSameAtBothElementTypes asserts the clamp gives the same
// estimates for the same (f32-representable) logs at either type.
func TestExpClampSameAtBothElementTypes(t *testing.T) {
	in32 := []float32{-5, 0, 0.5, 39.5, 41, 100}
	in64 := make([]float64, len(in32))
	for i, v := range in32 {
		in64[i] = float64(v)
	}
	got := ExpClamp(in32)
	want := ExpClamp(in64)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d: ExpClamp at float32 %v, at float64 %v", i, got[i], want[i])
		}
	}
}
