package serve

import (
	"bytes"
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
		if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, wcfg), 1); err != nil {
			t.Fatal(err)
		}
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

// TestOpenServesTheStreamedReplica: an engine booted from a checkpoint
// stream (the way mtmlf-serve boots) answers exactly what an engine
// built from the in-memory model answers, at every tier; /statsz says
// what the load read and what the bundle keeps; and a reload from a
// file that goes bad at some tensor — after the loader has already
// accepted the ones before it — leaves the old bundle serving, while a
// good file swaps in through the same call.
func TestOpenServesTheStreamedReplica(t *testing.T) {
	m1, qs := testModel(t)
	db := m1.Feat.DB
	m2 := mtmlf.NewModel(m1.Shared.Cfg, db, 21)
	var ckpt1, ckpt2 bytes.Buffer
	if err := mtmlf.Save(&ckpt1, m1); err != nil {
		t.Fatal(err)
	}
	if err := mtmlf.Save(&ckpt2, m2); err != nil {
		t.Fatal(err)
	}
	// Rot in the last quarter of the file: deep in the per-table
	// encoders, hundreds of verified tensors in.
	rotten := bytes.Clone(ckpt2.Bytes())
	rotten[len(rotten)*3/4] ^= 0x04

	for _, p := range []nn.Precision{nn.PrecisionF64, nn.PrecisionF32, nn.PrecisionInt8} {
		t.Run(p.String(), func(t *testing.T) {
			answers := func(e *Engine) (out []expected) {
				t.Helper()
				for _, lq := range qs {
					card, err := e.EstimateCard(lq.Q, lq.Plan)
					if err != nil {
						t.Fatal(err)
					}
					cost, err := e.EstimateCost(lq.Q, lq.Plan)
					if err != nil {
						t.Fatal(err)
					}
					jo, err := e.JoinOrder(lq.Q, lq.Plan)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, expected{cards: card.Nodes, costs: cost.Nodes, order: jo.Order})
				}
				return out
			}
			same := func(what string, got, want []expected) {
				t.Helper()
				for i := range want {
					sameFloats(t, what+" card", got[i].cards, want[i].cards)
					sameFloats(t, what+" cost", got[i].costs, want[i].costs)
					sameStrings(t, what+" order", got[i].order, want[i].order)
				}
			}
			var want [2][]expected
			for i, m := range []*mtmlf.Model{m1, m2} {
				ref, err := NewEngine(m, Options{Sessions: 1, Precision: p})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = answers(ref)
				ref.Close()
			}

			e, info, err := Open(bytes.NewReader(ckpt1.Bytes()), db, Options{Sessions: 2, Precision: p})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			same("booted", answers(e), want[0])
			ck := e.Stats().Checkpoint
			if ck.Version != mtmlf.CheckpointVersion || ck.Tensors != len(m1.Params()) || ck.Bytes != int64(ckpt1.Len()) ||
				ck.ParamBytes <= 0 || ck.ParamBytes > info.ParamBytes {
				t.Fatalf("statsz checkpoint %+v does not describe a %d-tensor, %d-byte file behind a bundle of at most %d bytes",
					ck, len(m1.Params()), ckpt1.Len(), info.ParamBytes)
			}
			if (ck.LowerMs > 0) != (p != nn.PrecisionF64) {
				t.Fatalf("lower_ms = %v at %v", ck.LowerMs, p)
			}

			if _, err := e.ReloadFrom(bytes.NewReader(rotten)); err == nil {
				t.Fatal("ReloadFrom accepted a checkpoint with a rotten tensor")
			}
			if e.Reloads() != 0 {
				t.Fatal("a failed reload was counted")
			}
			same("after a failed reload", answers(e), want[0])

			if _, err := e.ReloadFrom(bytes.NewReader(ckpt2.Bytes())); err != nil {
				t.Fatal(err)
			}
			if e.Reloads() != 1 {
				t.Fatalf("reloads = %d after one good reload", e.Reloads())
			}
			same("reloaded", answers(e), want[1])
		})
	}
}
