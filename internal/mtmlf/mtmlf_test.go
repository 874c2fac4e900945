package mtmlf

import (
	"math"
	"math/rand"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/metrics"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

func tinyConfig() Config {
	c := DefaultConfig()
	c.Dim = 16
	c.Blocks = 1
	c.DecBlocks = 1
	c.Feat.Dim = 16
	c.Feat.Blocks = 1
	return c
}

func tinyDB() *sqldb.DB { return datagen.SyntheticIMDB(5, 0.05) }

func tinySetup(t *testing.T, seed int64, n int) (*Model, []*workload.LabeledQuery) {
	t.Helper()
	db := tinyDB()
	m := NewModel(tinyConfig(), db, seed)
	gen := workload.NewGenerator(db, seed+1)
	cfg := workload.DefaultConfig()
	cfg.MaxTables = 4
	if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(10, cfg), 1); err != nil {
		t.Fatal(err)
	}
	return m, gen.Generate(n, cfg)
}

func TestRepresentShapes(t *testing.T) {
	m, qs := tinySetup(t, 1, 3)
	for _, lq := range qs {
		rep := m.Represent(lq.Q, lq.Plan)
		nNodes := len(lq.Plan.Nodes())
		if rep.S.Rows() != nNodes || rep.S.Cols() != m.Shared.Cfg.Dim {
			t.Fatalf("S shape %v, want [%d, %d]", rep.S.T.Shape, nNodes, m.Shared.Cfg.Dim)
		}
		if rep.Memory.Rows() != len(lq.Q.Tables) {
			t.Fatalf("memory rows %d, want %d", rep.Memory.Rows(), len(lq.Q.Tables))
		}
		cards := m.PredictLogCards(rep)
		costs := m.PredictLogCosts(rep)
		if cards.Rows() != nNodes || costs.Rows() != nNodes || cards.Cols() != 1 {
			t.Fatal("head output shapes wrong")
		}
	}
}

func TestEstimateClampsAndAligns(t *testing.T) {
	m, qs := tinySetup(t, 2, 2)
	lq := qs[0]
	cards := m.EstimateNodeCards(lq)
	costs := m.EstimateNodeCosts(lq)
	if len(cards) != len(lq.Plan.Nodes()) || len(costs) != len(cards) {
		t.Fatal("estimate lengths wrong")
	}
	for _, c := range cards {
		if c < 1 || math.IsInf(c, 0) || math.IsNaN(c) {
			t.Fatalf("card estimate %g invalid", c)
		}
	}
	rc, rcost := m.EstimateRoot(lq)
	if rc != cards[len(cards)-1] || rcost != costs[len(costs)-1] {
		t.Fatal("EstimateRoot must match the last post-order node")
	}
}

func TestLossesFiniteAndDifferentiable(t *testing.T) {
	m, qs := tinySetup(t, 3, 2)
	for _, lq := range qs {
		rep := m.Represent(lq.Q, lq.Plan)
		cl := m.CardLoss(rep, lq)
		co := m.CostLoss(rep, lq)
		if math.IsNaN(cl.Item()) || math.IsNaN(co.Item()) {
			t.Fatal("NaN loss")
		}
		loss := ag.Add(cl, co)
		if len(lq.OptimalOrder) >= 2 {
			loss = ag.Add(loss, m.JoinOrderTokenLoss(rep, lq.OptimalOrder))
		}
		loss.Backward()
		// Some shared parameter must receive gradient.
		got := false
		for _, p := range m.Shared.Params() {
			if p.Grad != nil {
				got = true
				break
			}
		}
		if !got {
			t.Fatal("no gradients reached shared parameters")
		}
		for _, p := range m.Shared.Params() {
			p.Grad = nil
		}
	}
}

func TestBeamSearchLegality(t *testing.T) {
	m, qs := tinySetup(t, 4, 5)
	for _, lq := range qs {
		rep := m.Represent(lq.Q, lq.Plan)
		res := m.Shared.JO.BeamSearch(rep.Memory, lq.Q, 3, true)
		if len(res) == 0 {
			t.Fatal("beam search returned nothing")
		}
		adj := positionAdjacency(lq.Q)
		for _, r := range res {
			if !r.Legal {
				t.Fatal("constrained beam search emitted an illegal order")
			}
			if len(r.Positions) != len(lq.Q.Tables) {
				t.Fatal("incomplete order")
			}
			if !isLegalOrder(adj, r.Positions) {
				t.Fatal("legality check inconsistent")
			}
			// All positions distinct.
			seen := map[int]bool{}
			for _, p := range r.Positions {
				if seen[p] {
					t.Fatal("position repeated")
				}
				seen[p] = true
			}
		}
	}
}

func TestJoinOrderForAlwaysExecutable(t *testing.T) {
	m, qs := tinySetup(t, 5, 5)
	for _, lq := range qs {
		rep := m.Represent(lq.Q, lq.Plan)
		order := m.JoinOrderFor(lq.Q, rep)
		if len(order) != len(lq.Q.Tables) {
			t.Fatalf("order %v incomplete", order)
		}
		// Every prefix connected under the query's joins.
		for i := 2; i <= len(order); i++ {
			sub := &sqldb.Query{Tables: order[:i], Joins: lq.Q.JoinsAmong(order[:i])}
			if !sub.IsConnected() {
				t.Fatalf("predicted order %v has disconnected prefix", order)
			}
		}
	}
}

func TestScoreSequenceIsLogProb(t *testing.T) {
	m, qs := tinySetup(t, 6, 3)
	for _, lq := range qs {
		if len(lq.OptimalOrder) < 2 {
			continue
		}
		rep := m.Represent(lq.Q, lq.Plan)
		seq := orderPositions(rep, lq.OptimalOrder)
		s := m.Shared.JO.ScoreSequence(rep.Memory, seq)
		if s.Item() > 1e-9 {
			t.Fatalf("log-prob %g > 0", s.Item())
		}
	}
}

func TestSequenceLossFinite(t *testing.T) {
	m, qs := tinySetup(t, 7, 4)
	for _, lq := range qs {
		if len(lq.OptimalOrder) < 2 {
			continue
		}
		rep := m.Represent(lq.Q, lq.Plan)
		loss := m.JoinOrderSequenceLoss(rep, lq.Q, lq.OptimalOrder)
		if math.IsNaN(loss.Item()) || math.IsInf(loss.Item(), 0) {
			t.Fatalf("sequence loss %g", loss.Item())
		}
		loss.Backward()
		for _, p := range m.Shared.Params() {
			p.Grad = nil
		}
	}
}

// TestTrainJointImproves is the core learning smoke test: joint
// training must reduce card q-error and raise join-order quality on
// the training distribution.
func TestTrainJointImproves(t *testing.T) {
	m, qs := tinySetup(t, 8, 40)
	train, _, test := workload.Split(qs, 0.75, 0)

	// Evaluate mean q-error over all node cards AND costs: costs are
	// large, so the untrained model (predicting ~1) starts far off and
	// improvement is unambiguous.
	evalCard := func() float64 {
		var errs []float64
		for _, lq := range test {
			cards := m.EstimateNodeCards(lq)
			costs := m.EstimateNodeCosts(lq)
			for i := range cards {
				errs = append(errs, metrics.QError(cards[i], lq.NodeCards[i]))
				errs = append(errs, metrics.QError(costs[i], lq.NodeCosts[i]))
			}
		}
		return metrics.Summarize(errs).Mean
	}
	// Join-order learning is measured by the token-level loss on the
	// training set (beam-search JOEU on a handful of held-out queries
	// is too high-variance for a unit test; the experiment harness
	// covers it at scale).
	evalJOLoss := func() float64 {
		var sum float64
		n := 0
		for _, lq := range train {
			if len(lq.OptimalOrder) < 2 {
				continue
			}
			rep := m.Represent(lq.Q, lq.Plan)
			sum += m.JoinOrderTokenLoss(rep, lq.OptimalOrder).Item()
			n++
		}
		return sum / float64(n)
	}

	beforeCard := evalCard()
	beforeJO := evalJOLoss()
	st, err := m.TrainJointStream(workload.SliceSource(train), TrainOptions{Epochs: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 6*len(train) {
		t.Fatalf("steps %d", st.Steps)
	}
	afterCard := evalCard()
	afterJO := evalJOLoss()
	if afterCard >= beforeCard {
		t.Fatalf("card q-error did not improve: %g -> %g", beforeCard, afterCard)
	}
	if afterJO >= beforeJO {
		t.Fatalf("join-order token loss did not improve: %g -> %g", beforeJO, afterJO)
	}
}

func TestSharedParamsSerializableAndTransferable(t *testing.T) {
	db := tinyDB()
	cfg := tinyConfig()
	a := NewModel(cfg, db, 10)
	b := NewModel(cfg, db, 99)
	if err := nn.CopyParams(b.Shared.Params(), a.Shared.Params()); err != nil {
		t.Fatal(err)
	}
	// Same featurizer + same shared weights => same outputs.
	b.Feat = a.Feat
	gen := workload.NewGenerator(db, 11)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 3
	lq := gen.Generate(1, wcfg)[0]
	ra := a.Represent(lq.Q, lq.Plan)
	rb := b.Represent(lq.Q, lq.Plan)
	for i := range ra.S.T.Data {
		if math.Abs(ra.S.T.Data[i]-rb.S.T.Data[i]) > 1e-12 {
			t.Fatal("copied shared params produce different representations")
		}
	}
}

func TestMLARunsAndTransfers(t *testing.T) {
	opts := mlaFixtureOpts()
	opts.QueriesPerDB, opts.SingleTablePerTable, opts.JointEpochs, opts.BatchSize = 8, 5, 1, 1
	cats, srcs := mlaCorpus(opts)
	shared := NewShared(tinyConfig(), 20)
	tasks, st, err := TrainMLAStream(shared, cats, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatal("task count wrong")
	}
	if st.Steps != 16 { // 2 DBs x 8 queries x 1 epoch
		t.Fatalf("MLA joint loop ran %d steps, want 16", st.Steps)
	}
	if st.FinalLoss == 0 {
		t.Fatal("MLA stats did not surface a final loss")
	}
	// Attach a new DB and fine-tune briefly; must not crash and must
	// produce estimates.
	dgCfg := datagen.DefaultConfig()
	dgCfg.MinTables, dgCfg.MaxTables = 4, 5
	dgCfg.MinRows, dgCfg.MaxRows = 100, 250
	newDB := datagen.GenerateDB(rand.New(rand.NewSource(23)), "D-new", dgCfg)
	newOpts := opts
	newOpts.QueriesPerDB, newOpts.Seed = 4, 24
	r, err := corpus.InMemory(corpus.Meta{}, Label(newOpts, newDB))
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Catalog(0)
	if err != nil {
		t.Fatal(err)
	}
	task, err := Attach(shared, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.Materialize(c.Examples())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.Model.TrainJointStream(workload.SliceSource(queries), TrainOptions{Epochs: 1, Seed: 25, LR: 1e-3}); err != nil {
		t.Fatal(err)
	}
	cards := task.Model.EstimateNodeCards(queries[0])
	if len(cards) == 0 || cards[0] < 1 {
		t.Fatal("transferred model produced no estimates")
	}
}

func TestSingleTaskAblationConfigs(t *testing.T) {
	// MTMLF-CardEst: only the card head receives training signal.
	m, qs := tinySetup(t, 30, 6)
	m.Shared.Cfg.WCost = 0
	m.Shared.Cfg.WJo = 0
	st, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{Epochs: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != len(qs) {
		t.Fatal("training did not run")
	}
}

func TestPositionAdjacency(t *testing.T) {
	q := &sqldb.Query{
		Tables: []string{"a", "b", "c"},
		Joins:  []sqldb.JoinEdge{{T1: "a", C1: "x", T2: "b", C2: "y"}},
	}
	adj := positionAdjacency(q)
	if !adj[0][1] || !adj[1][0] || adj[0][2] || adj[2][1] {
		t.Fatal("adjacency wrong")
	}
	if !isLegalOrder(adj, []int{0, 1}) || isLegalOrder(adj, []int{0, 2}) {
		t.Fatal("legality wrong")
	}
}

func TestLegalNext(t *testing.T) {
	adj := [][]bool{
		{false, true, false},
		{true, false, true},
		{false, true, false},
	}
	// Step 0: everything legal.
	if got := legalNext(adj, []bool{false, false, false}, 0); len(got) != 3 {
		t.Fatalf("step 0 candidates %v", got)
	}
	// After joining 0: only 1 is adjacent.
	if got := legalNext(adj, []bool{true, false, false}, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("step 1 candidates %v", got)
	}
}
