package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

var allTiers = []nn.Precision{nn.PrecisionF64, nn.PrecisionF32, nn.PrecisionInt8}

// uncachedExpected is the serial answer of m at tier p from code that
// holds no memo: the bare Model, or a replica lowered for the occasion.
func uncachedExpected(m *mtmlf.Model, p nn.Precision, qs []*workload.LabeledQuery) []expected {
	if p == nn.PrecisionF64 {
		return serialExpected(m, qs)
	}
	lm := m.Lower(p)
	out := make([]expected, len(qs))
	for i, lq := range qs {
		out[i] = expected{
			cards: lm.EstimateNodeCards(lq),
			costs: lm.EstimateNodeCosts(lq),
			order: lm.InferJoinOrder(lq.Q, lq.Plan),
		}
	}
	return out
}

// ask sends request number n of a caller's rotation over qs and
// compares the answer, bit for bit, with each of wants; one must match.
func ask(e *Engine, qs []*workload.LabeledQuery, n int, wants ...[]expected) error {
	i := n % len(qs)
	lq := qs[i]
	var what, got string
	var ref func(expected) string
	switch n % 3 {
	case 0:
		res, err := e.EstimateCard(lq.Q, lq.Plan)
		if err != nil {
			return err
		}
		what, got, ref = "card", hexFloats(res.Nodes), func(w expected) string { return hexFloats(w.cards) }
	case 1:
		res, err := e.EstimateCost(lq.Q, lq.Plan)
		if err != nil {
			return err
		}
		what, got, ref = "cost", hexFloats(res.Nodes), func(w expected) string { return hexFloats(w.costs) }
	default:
		res, err := e.JoinOrder(lq.Q, lq.Plan)
		if err != nil {
			return err
		}
		what, got, ref = "order", fmt.Sprint(res.Order), func(w expected) string { return fmt.Sprint(w.order) }
	}
	for _, want := range wants {
		if got == ref(want[i]) {
			return nil
		}
	}
	return fmt.Errorf("query %d %s: served %s, uncached serial answer %s", i, what, got, ref(wants[len(wants)-1][i]))
}

// hexFloats prints floats exactly, so string equality is bit equality.
func hexFloats(v []float64) string { return fmt.Sprintf("%x", v) }

// TestMemoWarmEngineBitwiseAllTiers: at f64, f32 and int8, 8 concurrent
// callers on a cold engine — racing each other to fill the bundle's
// memo, then living off it — get the uncached serial answer every time.
func TestMemoWarmEngineBitwiseAllTiers(t *testing.T) {
	m, qs := testModel(t)
	for _, p := range allTiers {
		t.Run(p.String(), func(t *testing.T) {
			want := uncachedExpected(m, p, qs)
			e, err := NewEngine(m, Options{Sessions: 4, MaxBatch: 4, Precision: p})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			const callers, iters = 8, 18
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						if err := ask(e, qs, g+it, want); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			fm := e.Stats().FeatMemo
			if fm.Hits <= fm.Misses || fm.Rows == 0 || uint64(fm.Rows) > fm.Misses || fm.Bypassed+fm.Resets != 0 {
				t.Fatalf("feat_memo %+v after %d requests over %d queries", fm, callers*iters, len(qs))
			}
		})
	}
}

// TestMemoReloadMidTraffic is the staleness drill. m2 is m1 with only
// its table encoders trained differently, so a row of m1's memo that
// survived the swap would be the one thing making an answer wrong.
// Callers hammer a warm engine; every request submitted after Reload
// returned must equal m2's uncached serial answer, and every one before
// it m1's or m2's.
func TestMemoReloadMidTraffic(t *testing.T) {
	db := datagen.SyntheticIMDB(5, 0.05)
	build := func(pretrainSeed int64) *mtmlf.Model {
		cfg := mtmlf.DefaultConfig()
		cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
		cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
		m := mtmlf.NewModel(cfg, db, 11)
		wcfg := workload.DefaultConfig()
		wcfg.MaxTables = 4
		if _, err := m.Feat.PretrainAllFrom(workload.NewGenerator(db, pretrainSeed).GenPretrainSet(5, wcfg), 1); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := build(12), build(22)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	qs := workload.NewGenerator(db, 12).Generate(6, wcfg)

	for _, p := range allTiers {
		t.Run(p.String(), func(t *testing.T) {
			want1, want2 := uncachedExpected(m1, p, qs), uncachedExpected(m2, p, qs)
			differ := false
			for i := range qs {
				differ = differ || fmt.Sprint(want1[i].cards) != fmt.Sprint(want2[i].cards)
			}
			if !differ {
				t.Fatal("the two checkpoints answer alike; the drill would prove nothing")
			}
			e, err := NewEngine(m1, Options{Sessions: 4, MaxBatch: 4, Precision: p})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for n := 0; n < 3*len(qs); n++ { // fill m1's memo
				if err := ask(e, qs, n, want1); err != nil {
					t.Fatal(err)
				}
			}

			const callers, iters = 8, 24
			var swapped atomic.Bool
			var served atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < iters; it++ {
						// A request sent once Reload has returned may only
						// be answered by m2; an earlier one by either.
						wants := [][]expected{want1, want2}
						if swapped.Load() {
							wants = wants[1:]
						}
						if err := ask(e, qs, g+it, wants...); err != nil {
							errs <- fmt.Errorf("%d checkpoints allowed: %w", len(wants), err)
							return
						}
						served.Add(1)
					}
				}(g)
			}
			waitFor(t, func() bool { return served.Load() >= callers*iters/4 })
			if err := e.Reload(m2); err != nil {
				t.Fatal(err)
			}
			swapped.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			// Idle now: the bundle in place holds m2's rows only.
			for n := 0; n < 3*len(qs); n++ {
				if err := ask(e, qs, n, want2); err != nil {
					t.Fatalf("idle after reload: %v", err)
				}
			}
		})
	}
}
