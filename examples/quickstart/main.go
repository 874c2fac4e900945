// Quickstart walks the full MTMLF-QO dataflow of Figure 2 on a small
// synthetic database: inputs (I) → featurization (F) → shared
// representation (S) → task-specific heads (T), then prints the
// model's cardinality, cost, and join-order predictions next to the
// ground truth.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"slices"

	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/metrics"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/serve"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

func main() {
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores)")
	flag.Parse()
	tensor.SetParallelism(*workers)

	// (I.i) Data tables: a scaled-down synthetic IMDB (21 tables).
	db := datagen.SyntheticIMDB(7, 0.05)
	fmt.Printf("database %q: %d tables, %d PK-FK edges\n\n", db.Name, len(db.Tables), len(db.Edges))

	// (I.ii) Queries with initial plans and ground-truth labels, plus
	// labelled single-table queries for the (F) module: the database's
	// corpus (Algorithm 1's artifact), here in memory.
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	fmt.Println("labeling the workload and the single-table queries...")
	r, err := corpus.InMemory(corpus.Meta{Seed: 2}, mtmlf.Label(mtmlf.MLAOptions{
		QueriesPerDB: 80, SingleTablePerTable: 25, Workload: wcfg, Seed: 2,
	}, db))
	check(err)
	cats, srcs, err := r.Fleet()
	check(err)
	qs, err := workload.Materialize(srcs[0])
	check(err)
	train, _, test := workload.Split(qs, 0.8, 0.1)

	// Build the model: Trans_Share (S) + M_CardEst / M_CostEst /
	// Trans_JO (T), attached to the per-table encoders (F). Attaching
	// pre-trains (F): each Enc_i learns its table's data distribution
	// from single-table cardinalities (the paper's ANALYZE-like local
	// step).
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	fmt.Println("pre-training single-table encoders (Enc_i)...")
	task, err := mtmlf.Attach(mtmlf.NewShared(cfg, 1), cats[0], mtmlf.MLAOptions{Seed: 2, EncoderEpochs: 2})
	check(err)
	model := task.Model

	// (L) Joint training on all three tasks (Equation 1).
	fmt.Println("joint training on CardEst + CostEst + JoinSel...")
	stats, err := model.TrainJointStream(workload.SliceSource(train), mtmlf.TrainOptions{Epochs: 6, Seed: 3})
	check(err)
	fmt.Printf("trained %d steps (final loss %.3f)\n\n", stats.Steps, stats.FinalLoss)

	// Inference on one held-out query.
	lq := test[0]
	fmt.Println("query:", lq.Q)
	fmt.Println("initial plan:")
	fmt.Print(lq.Plan.Pretty())

	cardHat, costHat := model.EstimateRoot(lq)
	fmt.Printf("\nCardEst: predicted %8.1f   true %8.1f   q-error %.2f\n",
		cardHat, lq.Card, metrics.QError(cardHat, lq.Card))
	fmt.Printf("CostEst: predicted %8.1f   true %8.1f   q-error %.2f\n",
		costHat, lq.Cost, metrics.QError(costHat, lq.Cost))

	rep := model.Represent(lq.Q, lq.Plan)
	order := model.JoinOrderFor(lq.Q, rep)
	fmt.Printf("JoinSel: predicted order %v\n", order)
	if lq.OptimalOrder != nil {
		fmt.Printf("         optimal order   %v   (JOEU %.2f)\n",
			lq.OptimalOrder, metrics.JOEU(order, lq.OptimalOrder))
	}

	// Aggregate quality over the whole test split.
	var cq []float64
	for _, q := range test {
		c, _ := model.EstimateRoot(q)
		cq = append(cq, metrics.QError(c, q.Card))
	}
	s := metrics.Summarize(cq)
	fmt.Printf("\ntest-set card q-error: median %.2f, mean %.2f over %d queries\n", s.Median, s.Mean, s.N)
	if s.N == 0 {
		log.Fatal("no test queries")
	}

	// Ship the model: a full checkpoint (shared stack + heads +
	// join-order decoder + featurizer) round-trips bitwise, and the
	// concurrent serving engine answers from the restored copy with
	// the exact same numbers.
	fmt.Println("\nsaving full-model checkpoint and serving from the restored copy...")
	var ckpt bytes.Buffer
	check(mtmlf.Save(&ckpt, model))
	restored, info, err := mtmlf.LoadModel(bytes.NewReader(ckpt.Bytes()), db)
	check(err)
	fmt.Printf("checkpoint: v%d, %d bytes, db %q\n", info.Version, ckpt.Len(), info.DBName)

	engine, err := serve.NewEngine(restored, serve.Options{})
	check(err)
	defer engine.Close()
	est, err := engine.EstimateCard(lq.Q, lq.Plan)
	check(err)
	if est.Root != cardHat {
		log.Fatalf("served estimate %v != in-memory estimate %v", est.Root, cardHat)
	}
	served, err := engine.JoinOrder(lq.Q, lq.Plan)
	check(err)
	if !slices.Equal(served.Order, order) {
		log.Fatalf("served join order %v != in-memory order %v", served.Order, order)
	}
	fmt.Printf("served CardEst %.1f and join order %v — bitwise identical to the in-memory model\n",
		est.Root, served.Order)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
