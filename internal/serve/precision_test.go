package serve

import (
	"testing"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

// TestEnginePrecisionTiers: a reduced-precision engine must answer
// bitwise identically to the lowered model's serial fast path (the
// within-tier determinism contract), and its join orders must equal
// the float64 reference orders (the cross-tier calibration contract —
// identity, not closeness, because the decoder runs at f64 in every
// tier).
func TestEnginePrecisionTiers(t *testing.T) {
	m, qs := testModel(t)
	ref := serialExpected(m, qs)
	for _, p := range []nn.Precision{nn.PrecisionF32, nn.PrecisionInt8} {
		t.Run(p.String(), func(t *testing.T) {
			lm := m.Lower(p)
			e, err := NewEngine(m, Options{Sessions: 2, MaxBatch: 4, Precision: p})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := e.Stats().Precision; got != p.String() {
				t.Fatalf("statsz precision = %q, want %q", got, p)
			}
			// Twice: cold, then with every table encoding memoized.
			for pass := 0; pass < 2; pass++ {
				for i, lq := range qs {
					card, err := e.EstimateCard(lq.Q, lq.Plan)
					if err != nil {
						t.Fatal(err)
					}
					sameFloats(t, "card", card.Nodes, lm.EstimateNodeCards(lq))
					cost, err := e.EstimateCost(lq.Q, lq.Plan)
					if err != nil {
						t.Fatal(err)
					}
					sameFloats(t, "cost", cost.Nodes, lm.EstimateNodeCosts(lq))
					jo, err := e.JoinOrder(lq.Q, lq.Plan)
					if err != nil {
						t.Fatal(err)
					}
					sameStrings(t, "order vs lowered", jo.Order, lm.InferJoinOrder(lq.Q, lq.Plan))
					sameStrings(t, "order vs f64", jo.Order, ref[i].order)
					if !jo.Legal {
						t.Fatal("constrained search returned illegal order")
					}
				}
			}
			if fm := e.Stats().FeatMemo; fm.Hits <= fm.Misses {
				t.Fatalf("feat_memo %+v: the second pass did not come from the memo", fm)
			}
		})
	}
}

// TestEngineReloadReLowers: a Reload into a reduced-precision engine
// must serve the NEW weights lowered — answers after the swap must
// match the new model's lowered serial path, not the old replica.
func TestEngineReloadReLowers(t *testing.T) {
	db := datagen.SyntheticIMDB(5, 0.05)
	build := func(modelSeed, genSeed int64) *mtmlf.Model {
		cfg := mtmlf.DefaultConfig()
		cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
		cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
		m := mtmlf.NewModel(cfg, db, modelSeed)
		gen := workload.NewGenerator(db, genSeed)
		wcfg := workload.DefaultConfig()
		wcfg.MaxTables = 4
		m.Feat.PretrainAll(gen, 5, 1, wcfg)
		return m
	}
	m1 := build(11, 12)
	m2 := build(21, 22)
	gen := workload.NewGenerator(db, 12)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	qs := gen.Generate(3, wcfg)

	e, err := NewEngine(m1, Options{Sessions: 1, Precision: nn.PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Warm the old bundle's memo first: none of its rows may answer
	// after the swap.
	for _, lq := range qs {
		if _, err := e.EstimateCard(lq.Q, lq.Plan); err != nil {
			t.Fatal(err)
		}
	}
	if rows := e.Stats().FeatMemo.Rows; rows == 0 {
		t.Fatal("served requests left the memo empty")
	}
	if err := e.Reload(m2); err != nil {
		t.Fatal(err)
	}
	if rows := e.Stats().FeatMemo.Rows; rows != 0 {
		t.Fatalf("the reloaded bundle starts with %d memoized rows", rows)
	}
	lm2 := m2.Lower(nn.PrecisionF32)
	for _, lq := range qs {
		card, err := e.EstimateCard(lq.Q, lq.Plan)
		if err != nil {
			t.Fatal(err)
		}
		sameFloats(t, "card after reload", card.Nodes, lm2.EstimateNodeCards(lq))
	}
}
