package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// testModel builds a small pretrained model and workload (mirrors
// mtmlf's tinySetup; untrained task heads are fine — the serving
// tests assert numeric identity, not quality).
func testModel(t testing.TB) (*mtmlf.Model, []*workload.LabeledQuery) {
	t.Helper()
	db := datagen.SyntheticIMDB(5, 0.05)
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	m := mtmlf.NewModel(cfg, db, 11)
	gen := workload.NewGenerator(db, 12)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, wcfg), 1); err != nil {
		t.Fatal(err)
	}
	return m, gen.Generate(6, wcfg)
}

type expected struct {
	cards []float64
	costs []float64
	order []string
}

func serialExpected(m *mtmlf.Model, qs []*workload.LabeledQuery) []expected {
	out := make([]expected, len(qs))
	for i, lq := range qs {
		out[i] = expected{
			cards: m.EstimateNodeCards(lq),
			costs: m.EstimateNodeCosts(lq),
			order: m.InferJoinOrder(lq.Q, lq.Plan),
		}
	}
	return out
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: %v != %v (not bitwise)", what, i, got[i], want[i])
		}
	}
}

func sameStrings(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
}

// TestEngineMatchesSerialBitwise: every engine answer must equal the
// single-threaded, uncached fast path exactly — the first time (the
// bundle's memo is cold and Enc_i runs) and the second (every table
// encoding comes out of the memo).
func TestEngineMatchesSerialBitwise(t *testing.T) {
	m, qs := testModel(t)
	want := serialExpected(m, qs)
	e, err := NewEngine(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for pass := 0; pass < 2; pass++ {
		for i, lq := range qs {
			card, err := e.EstimateCard(lq.Q, lq.Plan)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "card", card.Nodes, want[i].cards)
			if card.Root != want[i].cards[len(want[i].cards)-1] {
				t.Fatal("root misaligned")
			}
			cost, err := e.EstimateCost(lq.Q, lq.Plan)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, "cost", cost.Nodes, want[i].costs)
			jo, err := e.JoinOrder(lq.Q, lq.Plan)
			if err != nil {
				t.Fatal(err)
			}
			sameStrings(t, "order", jo.Order, want[i].order)
			if !jo.Legal {
				t.Fatal("constrained search returned illegal order")
			}
		}
	}
	// One caller, so each distinct (table, filters) missed exactly once;
	// the other five of its six encodings per query were hits.
	leaves := 0
	for _, lq := range qs {
		leaves += len(lq.Q.Tables)
	}
	fm := e.Stats().FeatMemo
	if fm.Misses != uint64(fm.Rows) || fm.Rows == 0 || fm.Hits+fm.Misses != uint64(6*leaves) || fm.Bypassed+fm.Resets != 0 {
		t.Fatalf("feat_memo %+v after 6 requests over each of %d leaves", fm, leaves)
	}
}

// TestEngineConcurrentBitwise is the -race test of the ISSUE: many
// goroutines hammer one engine (and so one shared model) with mixed
// requests; every answer must be bitwise identical to the serial fast
// path.
func TestEngineConcurrentBitwise(t *testing.T) {
	m, qs := testModel(t)
	want := serialExpected(m, qs)
	e, err := NewEngine(m, Options{Sessions: 4, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const goroutines, iters = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(qs)
				lq := qs[i]
				switch (g + it) % 3 {
				case 0:
					res, err := e.EstimateCard(lq.Q, lq.Plan)
					if err != nil {
						errs <- err
						return
					}
					for j := range res.Nodes {
						if res.Nodes[j] != want[i].cards[j] {
							errs <- errors.New("concurrent card diverged from serial")
							return
						}
					}
				case 1:
					res, err := e.EstimateCost(lq.Q, lq.Plan)
					if err != nil {
						errs <- err
						return
					}
					for j := range res.Nodes {
						if res.Nodes[j] != want[i].costs[j] {
							errs <- errors.New("concurrent cost diverged from serial")
							return
						}
					}
				default:
					res, err := e.JoinOrder(lq.Q, lq.Plan)
					if err != nil {
						errs <- err
						return
					}
					if len(res.Order) != len(want[i].order) {
						errs <- errors.New("concurrent order length diverged")
						return
					}
					for j := range res.Order {
						if res.Order[j] != want[i].order[j] {
							errs <- errors.New("concurrent order diverged from serial")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := e.Stats()
	if got := snap.Requests; got != goroutines*iters {
		t.Fatalf("stats counted %d requests, want %d", got, goroutines*iters)
	}
	// 96 requests over 6 queries: most encodings came from the memo, and
	// the answers above were bitwise the uncached ones regardless.
	if fm := snap.FeatMemo; fm.Hits <= fm.Misses || fm.Rows == 0 {
		t.Fatalf("feat_memo %+v: the concurrent callers never hit a warm memo", fm)
	}
}

// TestNoGradAndBeamSearchConcurrentDirect drives the raw fast-path
// primitives (NoGrad sessions + BeamSearchTensor) from many
// goroutines on one shared model, without the engine in between —
// the layer-below race test.
func TestNoGradAndBeamSearchConcurrentDirect(t *testing.T) {
	m, qs := testModel(t)
	want := serialExpected(m, qs)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, lq := range qs {
				var cards []float64
				ag.NoGrad(func(e *ag.Eval) {
					rep := m.RepresentInfer(e, lq.Q, lq.Plan)
					cards = mtmlf.ExpClamp(m.PredictLogCardsInfer(e, rep).Data)
				})
				for j := range cards {
					if cards[j] != want[i].cards[j] {
						errs <- errors.New("direct NoGrad cards diverged")
						return
					}
				}
				order := m.InferJoinOrder(lq.Q, lq.Plan)
				for j := range order {
					if order[j] != want[i].order[j] {
						errs <- errors.New("direct beam search diverged")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineMicroBatching drives one session's worth of scheduling by
// hand over a pre-filled queue (no workers, so nothing depends on
// arrival timing) and checks that (a) the backlog fuses into full
// batches and (b) fused answers stay bitwise identical.
func TestEngineMicroBatching(t *testing.T) {
	m, qs := testModel(t)
	want := serialExpected(m, qs)
	const n, maxBatch = 16, 8
	e := newIdleEngine(t, m, Options{Sessions: 1, MaxBatch: maxBatch, QueueDepth: n})

	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = liveRequest(qs[i%len(qs)])
		e.reqs <- reqs[i]
	}
	for len(e.reqs) > 0 {
		batch := e.fill(<-e.reqs)
		if len(batch) != maxBatch {
			t.Fatalf("fill took %d of a %d-deep backlog, want %d", len(batch), n, maxBatch)
		}
		e.cur.Load().run(e, batch)
	}
	for i, r := range reqs {
		res := <-r.done
		if res.err != nil {
			t.Fatal(res.err)
		}
		sameFloats(t, "batched card", res.nodes, want[i%len(qs)].cards)
	}
	snap := e.Stats()
	if snap.Batches != n/maxBatch || snap.FusedRequests != n {
		t.Fatalf("got %d batches fusing %d requests, want %d fusing %d",
			snap.Batches, snap.FusedRequests, n/maxBatch, n)
	}
}

// TestEngineTypedErrors covers the error boundary: every malformed
// request maps onto its sentinel without crashing the engine.
func TestEngineTypedErrors(t *testing.T) {
	m, qs := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db := m.Feat.DB
	t0 := db.Tables[0].Name
	t1 := db.Tables[1].Name
	goodPlan := func(ts ...string) *plan.Node {
		return plan.LeftDeepFromOrder(ts, plan.SeqScan, plan.HashJoin)
	}
	var strCol, intCol string
	for _, c := range db.Tables[0].Columns {
		if c.Kind == sqldb.KindString && strCol == "" {
			strCol = c.Name
		}
		if c.Kind == sqldb.KindInt && intCol == "" {
			intCol = c.Name
		}
	}

	cases := []struct {
		name string
		q    *sqldb.Query
		p    *plan.Node
		want error
	}{
		{"nil query", nil, goodPlan(t0), ErrBadRequest},
		{"nil plan", &sqldb.Query{Tables: []string{t0}}, nil, ErrBadRequest},
		{"no tables", &sqldb.Query{}, goodPlan(t0), ErrBadRequest},
		{"unknown query table", &sqldb.Query{Tables: []string{"nope"}}, goodPlan("nope"), ErrUnknownTable},
		{"duplicate query table", &sqldb.Query{Tables: []string{t0, t0}}, goodPlan(t0, t0), ErrBadRequest},
		{"plan misses query table", &sqldb.Query{Tables: []string{t0, t1}}, goodPlan(t0), ErrPlanMismatch},
		{"plan scans extra table", &sqldb.Query{Tables: []string{t0}}, goodPlan(t0, t1), ErrPlanMismatch},
		{"plan scans table twice", &sqldb.Query{Tables: []string{t0, t1}}, goodPlan(t0, t1, t0), ErrPlanMismatch},
		{"unknown plan table", &sqldb.Query{Tables: []string{t0}}, goodPlan("nope2"), ErrUnknownTable},
		{"filter on non-query table", &sqldb.Query{
			Tables:  []string{t0},
			Filters: []sqldb.Filter{{Table: t1, Col: intCol, Op: sqldb.OpEq, Val: sqldb.IntVal(1)}},
		}, goodPlan(t0), ErrBadRequest},
		{"filter on unknown table", &sqldb.Query{
			Tables:  []string{t0},
			Filters: []sqldb.Filter{{Table: "nope", Col: intCol, Op: sqldb.OpEq, Val: sqldb.IntVal(1)}},
		}, goodPlan(t0), ErrUnknownTable},
		{"unknown filter column", &sqldb.Query{
			Tables:  []string{t0},
			Filters: []sqldb.Filter{{Table: t0, Col: "no_col", Op: sqldb.OpEq, Val: sqldb.IntVal(1)}},
		}, goodPlan(t0), ErrUnknownColumn},
		{"kind-mismatched filter", &sqldb.Query{
			Tables:  []string{t0},
			Filters: []sqldb.Filter{{Table: t0, Col: intCol, Op: sqldb.OpEq, Val: sqldb.StrVal("x")}},
		}, goodPlan(t0), ErrBadRequest},
		{"join on foreign table", &sqldb.Query{
			Tables: []string{t0},
			Joins:  []sqldb.JoinEdge{{T1: t0, C1: intCol, T2: "nope", C2: "id"}},
		}, goodPlan(t0), ErrUnknownTable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.EstimateCard(tc.q, tc.p); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("disconnected join graph", func(t *testing.T) {
		var lq *workload.LabeledQuery
		for _, c := range qs {
			if len(c.Q.Tables) >= 2 {
				lq = c
				break
			}
		}
		if lq == nil {
			t.Skip("no multi-table query generated")
		}
		q := &sqldb.Query{Tables: lq.Q.Tables} // joins dropped
		if _, err := e.JoinOrder(q, plan.LeftDeepFromOrder(q.Tables, plan.SeqScan, plan.HashJoin)); !errors.Is(err, ErrNoJoinOrder) {
			t.Fatalf("got %v, want ErrNoJoinOrder", err)
		}
		// The same query is still estimable (a cross product is a
		// valid plan shape for the heads).
		if _, err := e.EstimateCard(q, plan.LeftDeepFromOrder(q.Tables, plan.SeqScan, plan.HashJoin)); err != nil {
			t.Fatalf("estimate after join-order failure: %v", err)
		}
	})

	// The engine survives all of the above: a good request still works.
	lq := qs[0]
	if _, err := e.EstimateCard(lq.Q, lq.Plan); err != nil {
		t.Fatalf("engine broken after error barrage: %v", err)
	}
}

// TestEngineRejectsOversizedDB: a model whose architecture cannot fit
// the database is refused at construction, not at the first panic.
func TestEngineRejectsOversizedDB(t *testing.T) {
	db := datagen.SyntheticIMDB(5, 0.05)
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	cfg.MaxTables = 2
	m := mtmlf.NewModel(cfg, db, 1)
	if _, err := NewEngine(m, Options{}); !errors.Is(err, ErrModelLimit) {
		t.Fatalf("got %v, want ErrModelLimit", err)
	}
}

// TestEngineClose: requests after Close fail with ErrClosed.
func TestEngineClose(t *testing.T) {
	m, qs := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.EstimateCard(qs[0].Q, qs[0].Plan); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestStatsSnapshotConcurrentWithRecord polls snapshot while several
// goroutines record: snapshot copies the rings under the lock and
// sorts outside it, so (under -race) no sort may touch memory record
// is writing, and every snapshot must still be internally consistent —
// percentiles ordered and inside the recorded range, counts monotonic.
func TestStatsSnapshotConcurrentWithRecord(t *testing.T) {
	const writers, perWriter = 4, 3000
	s := newStats(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := time.Duration(1+(i+w)%50) * time.Millisecond
				s.record(Endpoint(i%int(numEndpoints)), d, d/2)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last uint64
	for polling := true; polling; {
		select {
		case <-done:
			polling = false // one final snapshot after the last record
		default:
		}
		snap := s.snapshot(0, 8)
		if snap.Requests < last {
			t.Fatalf("requests went backwards: %d after %d", snap.Requests, last)
		}
		last = snap.Requests
		for _, es := range []EndpointStats{snap.Card, snap.Cost, snap.JoinOrder} {
			if es.Requests == 0 {
				continue
			}
			if es.P50Ms < 1 || es.P99Ms > 50 || es.P50Ms > es.P95Ms || es.P95Ms > es.P99Ms {
				t.Fatalf("inconsistent percentiles under concurrent record: %+v", es)
			}
		}
		if snap.QueueWaitP50Ms > snap.QueueWaitP99Ms || snap.QueueWaitP99Ms > 25 {
			t.Fatalf("inconsistent queue-wait percentiles: p50 %v p99 %v", snap.QueueWaitP50Ms, snap.QueueWaitP99Ms)
		}
	}
	if last != writers*perWriter {
		t.Fatalf("final snapshot counted %d requests, want %d", last, writers*perWriter)
	}
}
