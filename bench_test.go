// Package bench is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §3 for the
// experiment index):
//
//	BenchmarkTable1QErrors        — Table 1 (card/cost q-errors on JOB-like workload)
//	BenchmarkTable2JoinOrder      — Table 2 (simulated time per join-order source)
//	BenchmarkTable3Transfer       — Table 3 (cross-DB transfer via MLA)
//	BenchmarkFigure2Pipeline      — Figure 2 (one I→F→S→T forward pass)
//	BenchmarkFigure4Decoding      — Figure 4 (tree↔seq decoding embeddings)
//	BenchmarkSequenceLossAblation — Section 5 (token-level vs Eq. 3 sequence loss)
//	BenchmarkBeamWidth            — Section 4.3 (beam width sweep)
//	BenchmarkMLAShuffling         — Section 3.3 ablation (MLA vs per-DB training)
//
// plus micro-benchmarks of the substrates. Each table bench prints the
// paper-style rows once; run with:
//
//	go test -bench=. -benchmem
package bench

import (
	"fmt"
	"sync"
	"testing"

	randpkg "math/rand"
	"mtmlf/internal/ag"
	"mtmlf/internal/cost"
	"mtmlf/internal/datagen"
	"mtmlf/internal/experiments"
	"mtmlf/internal/metrics"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/optimizer"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// benchConfig is the experiment scale for the table benches: the same
// QuickConfig the mtmlf-bench CLI uses, so bench output and CLI output
// agree (each table takes tens of seconds).
func benchConfig() experiments.Config {
	return experiments.QuickConfig()
}

var printOnce sync.Map

func printTable(b *testing.B, key, s string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		b.Logf("\n%s", s)
	}
}

// BenchmarkTable1QErrors regenerates Table 1: q-errors (median/max/
// mean) of PostgreSQL, Tree-LSTM, MTMLF-QO and single-task ablations.
func BenchmarkTable1QErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "table1", res.String())
	}
}

// BenchmarkTable2JoinOrder regenerates Table 2: total simulated
// execution time under PostgreSQL, optimal, MTMLF-QO and
// MTMLF-JoinSel join orders.
func BenchmarkTable2JoinOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "table2", res.String())
	}
}

// BenchmarkTable3Transfer regenerates Table 3: MLA pre-training on a
// generated fleet, transfer to a held-out database.
func BenchmarkTable3Transfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		printTable(b, "table3", res.String())
	}
}

// figure2Setup builds a small model and a 4-table labeled query for
// the pipeline benchmarks.
func figure2Setup(b *testing.B) (*mtmlf.Model, *workload.LabeledQuery) {
	b.Helper()
	db := datagen.SyntheticIMDB(1, 0.05)
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	m := mtmlf.NewModel(cfg, db, 1)
	gen := workload.NewGenerator(db, 2)
	wcfg := workload.DefaultConfig()
	wcfg.MinTables, wcfg.MaxTables = 4, 4
	return m, gen.Generate(1, wcfg)[0]
}

// BenchmarkFigure2Pipeline times one full I→F→S→T forward pass (all
// three task heads) for a 4-table query, the dataflow of Figure 2.
func BenchmarkFigure2Pipeline(b *testing.B) {
	m, lq := figure2Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := m.Represent(lq.Q, lq.Plan)
		_ = m.PredictLogCards(rep)
		_ = m.PredictLogCosts(rep)
		_ = m.JoinOrderFor(lq.Q, rep)
	}
}

// BenchmarkFigure4Decoding times the Section 4.1 tree↔sequence
// roundtrip on the paper's Figure 4 left-deep example.
func BenchmarkFigure4Decoding(b *testing.B) {
	tree := plan.NewJoin(plan.HashJoin,
		plan.NewJoin(plan.HashJoin,
			plan.NewJoin(plan.HashJoin, plan.Leaf("T1", plan.SeqScan), plan.Leaf("T2", plan.SeqScan)),
			plan.Leaf("T3", plan.SeqScan)),
		plan.Leaf("T4", plan.SeqScan))
	for i := 0; i < b.N; i++ {
		emb, err := plan.DecodingEmbeddings(tree, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.TreeFromEmbeddings(emb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequenceLossAblation compares token-level training against
// the Equation 3 sequence-level loss on identical data, reporting the
// resulting mean JOEU of each (the Section 5 design choice).
func BenchmarkSequenceLossAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := datagen.SyntheticIMDB(17, 0.05)
		gen := workload.NewGenerator(db, 18)
		wcfg := workload.DefaultConfig()
		wcfg.MaxTables = 4
		qs := gen.Generate(60, wcfg)
		train, _, test := workload.Split(qs, 0.8, 0.05)

		run := func(seqLevel bool) float64 {
			cfg := mtmlf.DefaultConfig()
			cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
			cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
			m := mtmlf.NewModel(cfg, db, 19)
			m.Feat.PretrainAll(gen, 15, 1, wcfg)
			m.TrainJoint(train, mtmlf.TrainOptions{Epochs: 4, Seed: 20, SeqLevelLoss: seqLevel})
			var joeus []float64
			for _, lq := range test {
				if len(lq.OptimalOrder) < 2 {
					continue
				}
				rep := m.Represent(lq.Q, lq.Plan)
				joeus = append(joeus, metrics.JOEU(m.JoinOrderFor(lq.Q, rep), lq.OptimalOrder))
			}
			return metrics.Summarize(joeus).Mean
		}
		tok := run(false)
		seq := run(true)
		printTable(b, "seqloss", fmt.Sprintf(
			"Section 5 ablation — mean JOEU:\n  token-level loss:    %.3f\n  sequence-level loss: %.3f\n", tok, seq))
	}
}

// BenchmarkBeamWidth sweeps the Section 4.3 beam width k and reports
// the decode latency scaling; the quality effect is reported once.
func BenchmarkBeamWidth(b *testing.B) {
	m, lq := figure2Setup(b)
	rep := m.Represent(lq.Q, lq.Plan)
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := m.Shared.JO.BeamSearch(rep.Memory, lq.Q, k, true); len(res) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// BenchmarkMLAShuffling ablates Algorithm 1's cross-DB shuffling
// (Section 3.3): MLA-shuffled training vs training the same shared
// modules on each DB sequentially, measured by held-out join time.
func BenchmarkMLAShuffling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dgCfg := datagen.DefaultConfig()
		dgCfg.MinTables, dgCfg.MaxTables = 4, 5
		dgCfg.MinRows, dgCfg.MaxRows = 100, 300
		fleet := datagen.GenerateFleet(31, 3, dgCfg)
		trainDBs, testDB := fleet[:2], fleet[2]
		wcfg := workload.DefaultConfig()
		wcfg.MaxTables = 3
		opts := mtmlf.MLAOptions{
			QueriesPerDB: 15, SingleTablePerTable: 10, EncoderEpochs: 1,
			JointEpochs: 2, Workload: wcfg, Seed: 32,
		}
		cfg := mtmlf.DefaultConfig()
		cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
		cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1

		evalOn := func(shared *mtmlf.Shared) float64 {
			task := mtmlf.NewDBTask(shared, testDB, opts, 33)
			var t float64
			for _, lq := range task.Queries {
				if len(lq.OptimalOrder) < 2 {
					continue
				}
				ex := sqldb.NewExecutor(testDB, lq.Q)
				rep := task.Model.Represent(lq.Q, lq.Plan)
				t += cost.SimulatedTimeOrder(ex, task.Model.JoinOrderFor(lq.Q, rep))
			}
			return t
		}

		// Shuffled MLA.
		sharedA := mtmlf.NewShared(cfg, 34)
		if _, _, err := mtmlf.TrainMLA(sharedA, trainDBs, opts); err != nil {
			b.Fatal(err)
		}
		shuffled := evalOn(sharedA)

		// Sequential per-DB training (no cross-DB shuffling).
		sharedB := mtmlf.NewShared(cfg, 34)
		for di, db := range trainDBs {
			task := mtmlf.NewDBTask(sharedB, db, opts, 35+int64(di))
			task.Model.TrainJoint(task.Queries, mtmlf.TrainOptions{Epochs: opts.JointEpochs, Seed: 36})
		}
		sequential := evalOn(sharedB)
		printTable(b, "mla-shuffle", fmt.Sprintf(
			"Section 3.3 ablation — held-out join time (lower is better):\n  MLA shuffled:   %.0f\n  per-DB sequential: %.0f\n", shuffled, sequential))
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks
// ---------------------------------------------------------------------------

// BenchmarkMatMul64 times the hot tensor kernel at transformer scale
// (below the parallel threshold: this is the serial fast path).
func BenchmarkMatMul64(b *testing.B) {
	rng := randpkg.New(randpkg.NewSource(1))
	x := tensor.Rand(rng, 64, 64, 1)
	y := tensor.Rand(rng, 64, 64, 1)
	out := tensor.New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out.Data)
		tensor.MatMulInto(x, y, out)
	}
}

// benchMatMulN compares the serial and worker-pool kernels at one
// square size; the two must produce bitwise-equal outputs (asserted
// in internal/tensor tests), so this measures pure speedup.
func benchMatMulN(b *testing.B, n int) {
	rng := randpkg.New(randpkg.NewSource(1))
	x := tensor.Rand(rng, n, n, 1)
	y := tensor.Rand(rng, n, n, 1)
	out := tensor.New(n, n)
	b.Run("serial", func(b *testing.B) {
		defer tensor.SetParallelism(tensor.SetParallelism(1))
		for i := 0; i < b.N; i++ {
			clear(out.Data)
			tensor.MatMulInto(x, y, out)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		defer tensor.SetParallelism(tensor.SetParallelism(0))
		for i := 0; i < b.N; i++ {
			clear(out.Data)
			tensor.MatMulInto(x, y, out)
		}
	})
}

// BenchmarkMatMul256 is the headline multi-core kernel benchmark:
// 256x256x256 is large enough for row-sharding to pay for itself.
func BenchmarkMatMul256(b *testing.B) { benchMatMulN(b, 256) }

// BenchmarkMatMul512 shows kernel scaling one size up.
func BenchmarkMatMul512(b *testing.B) { benchMatMulN(b, 512) }

// BenchmarkMatMulBatchHeads times the fused per-head products the
// attention layers issue: many small matmuls in one pool dispatch.
func BenchmarkMatMulBatchHeads(b *testing.B) {
	rng := randpkg.New(randpkg.NewSource(1))
	const heads = 8
	var as, bs, outs []*tensor.Tensor
	for h := 0; h < heads; h++ {
		as = append(as, tensor.Rand(rng, 64, 32, 1))
		bs = append(bs, tensor.Rand(rng, 32, 64, 1))
		outs = append(outs, tensor.New(64, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range outs {
			clear(o.Data)
		}
		tensor.MatMulBatchInto(as, bs, outs)
	}
}

// BenchmarkTrainJointStep times one data-parallel minibatch step
// (forward+backward on every example plus the ordered reduction and
// Adam update) at 1 worker vs the full pool.
func BenchmarkTrainJointStep(b *testing.B) {
	db := datagen.SyntheticIMDB(1, 0.05)
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	gen := workload.NewGenerator(db, 2)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	qs := gen.Generate(8, wcfg)
	for _, workers := range []int{1, 0} {
		name := "workers=all"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			m := mtmlf.NewModel(cfg, db, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TrainJoint(qs, mtmlf.TrainOptions{
					Epochs: 1, Seed: 3, BatchSize: len(qs), Workers: workers,
				})
			}
		})
	}
}

// BenchmarkEncoderForward times one Trans_Share-sized encoder pass.
func BenchmarkEncoderForward(b *testing.B) {
	rng := randpkg.New(randpkg.NewSource(2))
	enc := nn.NewEncoder(rng, 32, 4, 3)
	x := ag.Const(tensor.Rand(rng, 12, 32, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.Forward(ag.Tape{}, x, nil)
	}
}

// BenchmarkEncoderTrainStep times a full forward+backward+Adam step.
func BenchmarkEncoderTrainStep(b *testing.B) {
	rng := randpkg.New(randpkg.NewSource(3))
	enc := nn.NewEncoder(rng, 32, 4, 3)
	head := nn.NewLinear(rng, 32, 1)
	params := nn.CollectParams(enc, head)
	opt := nn.NewAdam(params, 1e-3)
	x := ag.Const(tensor.Rand(rng, 12, 32, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.ZeroGrad()
		out := head.Forward(ag.Tape{}, enc.Forward(ag.Tape{}, x, nil))
		loss := ag.MeanAll(ag.Mul(out, out))
		loss.Backward()
		opt.Step()
	}
}

// BenchmarkExecutorJoin times exact multi-way join counting on the
// synthetic IMDB, the labeling oracle of every experiment.
func BenchmarkExecutorJoin(b *testing.B) {
	db := datagen.SyntheticIMDB(4, 0.1)
	q := &sqldb.Query{
		Tables: []string{"title", "cast_info", "name"},
		Joins: []sqldb.JoinEdge{
			{T1: "title", C1: "id", T2: "cast_info", C2: "movie_id"},
			{T1: "name", C1: "id", T2: "cast_info", C2: "person_id"},
		},
		Filters: []sqldb.Filter{
			{Table: "title", Col: "production_year", Op: sqldb.OpGt, Val: sqldb.IntVal(1950)},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := sqldb.NewExecutor(db, q)
		_ = ex.Cardinality()
	}
}

// BenchmarkExactDP times the ECQO-substitute exact optimizer on a
// 6-table query (the expensive label of the JoinSel task).
func BenchmarkExactDP(b *testing.B) {
	db := datagen.SyntheticIMDB(5, 0.05)
	gen := workload.NewGenerator(db, 6)
	wcfg := workload.DefaultConfig()
	wcfg.MinTables, wcfg.MaxTables = 6, 6
	wcfg.WithOptimal = false
	q := gen.GenQuery(wcfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := sqldb.NewExecutor(db, q)
		if _, err := optimizer.BestLeftDeep(q, optimizer.TrueCards{Ex: ex}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadLabeling times end-to-end query generation +
// ground-truth labeling (the data pipeline of Section 6.1).
func BenchmarkWorkloadLabeling(b *testing.B) {
	db := datagen.SyntheticIMDB(7, 0.05)
	gen := workload.NewGenerator(db, 8)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Generate(1, wcfg)
	}
}

// BenchmarkDataGeneration times the Section 6.2 pipeline.
func BenchmarkDataGeneration(b *testing.B) {
	cfg := datagen.DefaultConfig()
	cfg.MinRows, cfg.MaxRows = 200, 600
	for i := 0; i < b.N; i++ {
		rng := randpkg.New(randpkg.NewSource(int64(i)))
		_ = datagen.GenerateDB(rng, "bench", cfg)
	}
}
