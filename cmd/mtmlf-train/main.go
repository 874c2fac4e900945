// Command mtmlf-train trains an MTMLF-QO model, reports held-out
// q-errors and join-order quality, and can save / load model
// checkpoints — the artifact the paper's cloud provider would ship to
// users (Section 2.3).
//
// Data always comes from a corpus (internal/corpus):
//
//   - default: the synthetic IMDB database is generated, and its
//     single-table queries and -queries labeled examples are labelled
//     (mtmlf.Label) into a one-database corpus in memory;
//   - -corpus: a pre-labeled corpus file written by
//     mtmlf-datagen -out is opened and training examples are
//     STREAMED from disk, one minibatch at a time, so the corpus may
//     exceed RAM. -db picks the corpus database (default: the first)
//     and is refused without -corpus.
//
// From there both take the same path. The database attaches its (F)
// encoders through mtmlf.Attach, as every database of -mla does: they
// are initialized from the corpus seed (its Meta record; -seed + 1 for
// the in-memory corpus) and pre-train from the database's single-table
// section for -encoder-epochs (a database without one is refused; a
// loaded full checkpoint skips this). -seed seeds the (S)+(T) modules
// and the shuffle. The examples split 85/5/10 into train, validation
// and test.
//
// Usage:
//
//	mtmlf-train [-queries 200] [-epochs 6] [-scale 0.06] [-seed 1]
//	            [-save model.ckpt] [-load model.ckpt] [-shared-only]
//	            [-seqloss] [-workers 0] [-batch 1]
//	            [-corpus corpus.mtc] [-db name]
//	            [-loss-out losses.txt]
//	            [-mla] [-encoder-epochs 2]
//	            [-resume state.snap] [-snapshot-every 0]
//	            [-dist-coordinator :0 | -dist-worker addr]
//	            [-dist-rank 0] [-dist-world 1] [-debug-addr host:port]
//
// -resume makes the run durable: training state (parameters, Adam
// moments, shuffle position, running stats) is snapshotted atomically
// to the given file — on SIGINT/SIGTERM (the run then exits 0) and,
// with -snapshot-every N, after every N optimizer steps as crash
// insurance against kill -9. When the file already exists the run
// resumes from it mid-epoch; a missing file is a fresh start, so a
// supervisor can always pass -resume and rerun until the process
// exits 0 with the training complete. The resumed trajectory and
// final model are bitwise identical to an uninterrupted run — the
// property `make resume-smoke` asserts with a kill -9 drill.
//
// -mla switches to fleet pretraining (Algorithm 1) over EVERY
// database of a -corpus artifact: per-DB featurizers pre-train from
// the corpus's cached single-table sections, then the shared (S)+(T)
// modules train on the pooled example stream (mtmlf.TrainMLAStream)
// without ever materializing the fleet workload. The MLA seed, the
// single-table count and the workload config come from the corpus
// Meta record. The run is bitwise identical at any -workers, which
// `make mla-smoke` asserts at 1 and 4. -save then writes the
// shared-only transfer checkpoint — the paper's cloud artifact.
//
// -save writes a versioned FULL-model checkpoint: the shared stack,
// both task heads, the join-order decoder, and the per-database
// featurizer — everything mtmlf-serve needs. -shared-only restricts
// the save to the transferable (S)+(T) modules, the paper's
// cross-database transfer artifact (the featurizer of a new database
// pretrains locally). -load accepts either kind and loads what the
// file holds.
//
// -dist-coordinator / -dist-worker run one training job as a
// distributed data-parallel fleet over the gradient-exchange plane
// (internal/dist): one coordinator process plus -dist-world worker
// ranks, every worker launched with identical training flags plus its
// own -dist-rank. Each rank fetches and backwards only the minibatch
// slots it owns (a contiguous block per rank) — for a corpus job that
// means each rank reads only its slice of the stream — and the ranks
// fold the example-ordered sum from rank to rank over direct links (the
// coordinator only admits the fleet and hands out the ranks'
// addresses), so the trajectory and every artifact are bitwise identical to the single-process run at the same seed,
// batch, and example set, for any fleet size. Rank 0 owns all
// artifacts (-save, -loss-out, -resume); with -resume, rank 0's
// snapshot is broadcast at startup so a supervisor can kill -9 any
// process and restart the whole fleet, which `make dist-smoke` drills.
//
// -workers sizes the shared worker pool (0 = all cores) used by the
// tensor kernels, the data-parallel training loop, and corpus example
// decoding; -batch sets the minibatch size (examples per Adam step).
// The training trajectory depends on -batch but is bitwise identical
// for every -workers. -loss-out writes every example's loss as a hex
// float64 per line — the bitwise trajectory probe the corpus smoke
// test compares across backends.
//
// -debug-addr serves net/http/pprof and expvar on a listener of their
// own (internal/debugsrv) for as long as the process runs; port 0
// picks a free port, logged, so several ranks can share a host.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	rtmetrics "runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/debugsrv"
	"mtmlf/internal/dist"
	"mtmlf/internal/featurize"
	"mtmlf/internal/metrics"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// The command line, registered in main.
var queries, epochs, workers, batch, encEpochs, snapEvery, distRank, distWorld int
var scale float64
var seed int64
var savePath, loadPath, corpusPath, dbName, lossOut, resumePath, distCoord, distWorker, debugAddr string
var sharedOnly, seqLoss, mla bool

// job is where a training job's time went, for the closing line: setup
// (flags, fleet handshake, corpus open) up to the attach, the attach's
// own (F) phases, the joint loop, and writing the artifacts; and the
// frozen featurizers' memos, whose hit share is the part of the joint
// loop's table encodings that ran no Enc_i.
type job struct {
	setup, joint, save time.Duration
	attach             mtmlf.AttachStats
	memos              []*featurize.MemoCounters
}

// attached records the attach that began at start and the memos of its
// tasks' featurizers.
func (j *job) attached(start time.Time, as mtmlf.AttachStats, tasks []*mtmlf.DBTask) {
	j.setup, j.attach = start.Sub(begun), as
	for _, t := range tasks {
		j.memos = append(j.memos, t.Model.Feat.Memo())
	}
}

// String is the phase split of the closing line.
func (j *job) String() string {
	var hits, all uint64
	for _, m := range j.memos {
		hits += m.Hits.Load()
		all += m.Hits.Load() + m.Misses.Load() + m.Bypassed.Load()
	}
	ms := func(d time.Duration) string { return d.Round(time.Millisecond).String() }
	return fmt.Sprintf("setup %s, (F) %s on %d of %d pairs + gather %s, joint %s (memo %.1f%% hits of %d encodings), save %s",
		ms(j.setup), ms(j.attach.Pretrain), j.attach.Own, j.attach.Pairs, ms(j.attach.Gather),
		ms(j.joint), 100*float64(hits)/float64(max(all, 1)), all, ms(j.save))
}

// begun is when the process started its work: the origin of job's
// setup phase and of the closing line's total.
var begun time.Time

func main() {
	flag.IntVar(&queries, "queries", 200, "labelled workload size (without -corpus)")
	flag.IntVar(&epochs, "epochs", 6, "joint training epochs")
	flag.Float64Var(&scale, "scale", 0.06, "synthetic IMDB scale factor (without -corpus)")
	flag.Int64Var(&seed, "seed", 1, "random seed")
	flag.StringVar(&savePath, "save", "", "save a trained model checkpoint to this file")
	flag.StringVar(&loadPath, "load", "", "load a checkpoint (full or shared-only) before training")
	flag.BoolVar(&sharedOnly, "shared-only", false, "save only the transferable (S)+(T) modules (cross-DB transfer artifact)")
	flag.BoolVar(&seqLoss, "seqloss", false, "use the Equation 3 sequence-level join-order loss")
	flag.IntVar(&workers, "workers", 0, "worker pool size for kernels and data-parallel training (0 = all cores)")
	flag.IntVar(&batch, "batch", 1, "minibatch size (examples averaged per Adam step)")
	flag.StringVar(&corpusPath, "corpus", "", "train from this corpus file (written by mtmlf-datagen -out)")
	flag.StringVar(&dbName, "db", "", "corpus database to train on (default: first)")
	flag.StringVar(&lossOut, "loss-out", "", "write the per-example loss trajectory (hex float64 per line) to this file")
	flag.BoolVar(&mla, "mla", false, "fleet pretraining: run Algorithm 1 over every database of the -corpus artifact")
	flag.IntVar(&encEpochs, "encoder-epochs", 2, "per-table encoder pre-training epochs")
	flag.StringVar(&resumePath, "resume", "", "training-state snapshot file: resumed from when present, written on SIGINT/SIGTERM (then exit 0) and every -snapshot-every steps")
	flag.IntVar(&snapEvery, "snapshot-every", 0, "with -resume: also snapshot after every N optimizer steps (0 = only on interruption)")
	flag.StringVar(&distCoord, "dist-coordinator", "", "listen address (host:port): serve as the gradient-exchange coordinator for a -dist-world rank fleet, then exit")
	flag.StringVar(&distWorker, "dist-worker", "", "coordinator address (host:port): train as one rank of a distributed fleet")
	flag.IntVar(&distRank, "dist-rank", 0, "this process's rank (0-based) in the -dist-worker fleet")
	flag.IntVar(&distWorld, "dist-world", 1, "number of worker ranks in the distributed fleet")
	flag.StringVar(&debugAddr, "debug-addr", "", "listen address for /debug/pprof/ and /debug/vars (empty = none; port 0 picks a free port)")
	flag.Parse()

	tensor.SetParallelism(workers)
	if _, err := debugsrv.Start(debugAddr); err != nil {
		log.Fatal(err)
	}
	begun = time.Now()

	if distCoord != "" {
		if distWorker != "" {
			log.Fatal("-dist-coordinator and -dist-worker are different processes; pick one")
		}
		runCoordinator(distCoord, distWorld)
		printDone(nil)
		return
	}
	var ex dist.Exchanger
	if distWorker != "" {
		// The fingerprint is every trajectory-relevant flag: the
		// coordinator refuses a fleet whose ranks disagree on it, so a
		// mislaunched rank (wrong seed, wrong corpus, wrong batch, a
		// different -load, -resume on some ranks only) dies at the
		// handshake instead of poisoning the run.
		fp := fmt.Sprintf("mla=%v corpus=%s db=%s queries=%d epochs=%d encoder-epochs=%d batch=%d seed=%d scale=%v seqloss=%v loss=%v load=%s resume=%v world=%d",
			mla, corpusPath, dbName, queries, epochs, encEpochs, batch, seed, scale, seqLoss, lossOut != "", loadPath, resumePath != "", distWorld)
		t, err := dist.DialRetry(distWorker, distRank, distWorld, fp, 300, 100*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		// Runs at clean exit only (log.Fatal skips it): where this rank's
		// exchange time went; a straggler shows in the others' wait prefix.
		defer func() {
			t.Close()
			fmt.Printf("rank %d exchange: %v\n", distRank, t.Stats())
		}()
		ex = t
		fmt.Printf("rank %d/%d joined the fleet at %s\n", distRank, distWorld, distWorker)
	}
	// Fail loudly on flags a mode does not honor — silently ignoring
	// -load would hand back a from-scratch model when the user asked to
	// continue from a checkpoint, and silently ignoring -db would train
	// on a database the user did not pick. A rank refuses after
	// joining, so the coordinator and its peers see it leave instead of
	// waiting for it.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case corpusPath == "" && mla:
		log.Fatal("-mla requires -corpus (a fleet artifact written by mtmlf-datagen -out)")
	case corpusPath == "" && set["db"]:
		log.Fatal("-db selects a database of a -corpus artifact; without -corpus the database is generated in memory (add -corpus or drop -db)")
	case corpusPath != "" && (set["queries"] || set["scale"]):
		log.Fatal("-queries and -scale size the in-memory database and workload; a -corpus artifact brings its own (drop them)")
	case resumePath == "" && set["snapshot-every"]:
		log.Fatal("-snapshot-every sets how often -resume's file is written; without -resume there is no snapshot (add -resume or drop -snapshot-every)")
	case mla && loadPath != "":
		log.Fatal("-mla pretrains the shared modules from scratch; it cannot resume from -load")
	case mla && dbName != "":
		log.Fatal("-mla pools every database of the corpus; -db selects a single one (drop -mla or -db)")
	case mla && seqLoss:
		log.Fatal("-mla uses the Algorithm 1 token-level join-order loss; -seqloss is not supported")
	case mla && sharedOnly:
		log.Fatal("-mla checkpoints are always shared-only; drop -shared-only")
	}
	// Rank 0 owns every per-job artifact: the checkpoint, the
	// trajectory file, and the training snapshot. Other ranks compute
	// the identical state (and record the identical trajectory, which
	// keeps the run configuration uniform fleet-wide) but write
	// nothing.
	isPrimary := distWorker == "" || distRank == 0
	// Refuse an unwritable output now; it is still written only at the
	// end (an existing -resume snapshot is left as it is).
	for _, out := range [][2]string{{"-save", savePath}, {"-loss-out", lossOut}, {"-resume", resumePath}} {
		if out[1] != "" && isPrimary {
			if err := ckptio.Probe(out[1]); err != nil {
				log.Fatalf("%s %s: %v", out[0], out[1], err)
			}
		}
	}

	snap := mtmlf.SnapshotOptions{
		Path: resumePath, Every: snapEvery, Resume: resumePath != "",
		Interrupt: interruptOnSignal(resumePath != ""),
	}
	// Without -corpus the data is generated and labelled into a corpus
	// in memory, so both backends train through the same code.
	var (
		r     *corpus.Reader
		model *mtmlf.Model
		test  []*workload.LabeledQuery
		st    mtmlf.TrainStats
		phase job
		err   error
	)
	if corpusPath != "" {
		r, err = corpus.Open(corpusPath)
	} else {
		r, err = memoryCorpus()
	}
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	if mla {
		model, st, err = trainMLA(r, snap, ex, &phase)
	} else {
		model, test, st, err = trainJoint(r, snap, ex, &phase)
	}
	if errors.Is(err, mtmlf.ErrInterrupted) {
		fmt.Printf("interrupted: resumable snapshot at %s; rerun with the same flags to finish\n", resumePath)
		os.Exit(0) // the snapshot holds the progress: "not done yet", not a failure
	}
	if err != nil {
		log.Fatal(err)
	}
	if !mla {
		evaluate(model, test)
	}
	saving := time.Now()
	if lossOut != "" && isPrimary {
		if err := writeTrajectory(lossOut, st.Trajectory); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-step loss trajectory to %s\n", len(st.Trajectory), lossOut)
	}
	if savePath != "" && isPrimary {
		// Checkpoints commit atomically (temp file + fsync + rename): a
		// crash mid-save can never leave a torn artifact at -save.
		save, kind := mtmlf.SaveFile, "full-model"
		if sharedOnly || mla {
			save, kind = mtmlf.SaveSharedFile, "shared-only (transfer)"
		}
		if err := save(savePath, model); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved %s checkpoint to %s\n", kind, savePath)
	}
	phase.save = time.Since(saving)
	printDone(&phase)
}

// printDone prints the closing line: the job's wall time, a training
// job's phase split, and what it cost the heap — allocations, bytes
// allocated and GC cycles, read from runtime/metrics — so a run that
// suddenly allocates more (say, a graph falling off its arena) shows
// without a profiler.
func printDone(phase *job) {
	split := ""
	if phase != nil {
		split = " = " + phase.String()
	}
	ms := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(ms)
	fmt.Printf("done in %v%s (heap: %d allocations, %.1f MB allocated, %d GC cycles)\n",
		time.Since(begun).Round(time.Millisecond), split, ms[0].Value.Uint64(),
		float64(ms[1].Value.Uint64())/(1<<20), ms[2].Value.Uint64())
}

// memoryCorpus generates the synthetic IMDB database and labels it into
// a one-database corpus in memory, laid out as mtmlf-datagen -imdb
// writes one: 40 single-table queries per table to pretrain its
// encoders, then the workload, from one rng stream seeded -seed + 1.
func memoryCorpus() (*corpus.Reader, error) {
	db := datagen.SyntheticIMDB(seed, scale)
	fmt.Printf("generating and labeling %d queries...\n", queries)
	return corpus.InMemory(corpus.Meta{Seed: seed + 1}, mtmlf.Label(mtmlf.MLAOptions{
		QueriesPerDB: queries, SingleTablePerTable: 40, Workload: workload.DefaultConfig(), Seed: seed + 1,
	}, db))
}

// trainJoint is the single-database mode: it trains one model on one
// database of the corpus r (-db, or the first) and returns it with its
// held-out test set.
func trainJoint(r *corpus.Reader, snap mtmlf.SnapshotOptions, ex dist.Exchanger, phase *job) (*mtmlf.Model, []*workload.LabeledQuery, mtmlf.TrainStats, error) {
	var c *corpus.DBCatalog
	var err error
	if dbName != "" {
		c, err = r.CatalogByName(dbName)
	} else {
		c, err = r.Catalog(0)
	}
	if err != nil {
		log.Fatal(err)
	}
	// An 85/5/10 train/validation/test split, as index ranges over the
	// streamed examples.
	all := c.Examples()
	n := all.Len()
	nTrain := int(float64(n) * 0.85)
	nVal := int(float64(n) * 0.05)
	src, err := workload.SubSource(all, 0, nTrain)
	if err != nil {
		log.Fatal(err)
	}
	testSrc, err := workload.SubSource(all, nTrain+nVal, n)
	if err != nil {
		log.Fatal(err)
	}
	test, err := workload.Materialize(testSrc)
	if err != nil {
		log.Fatal(err)
	}
	db := c.DB()
	fmt.Printf("db %q: %d tables, %d join edges, %d examples (%d train, %d test) (%d workers)\n",
		c.Name(), len(db.Tables), len(db.Edges), n, src.Len(), len(test), tensor.Parallelism())

	shared := mtmlf.NewShared(mtmlf.DefaultConfig(), seed)
	var model *mtmlf.Model
	attaching := time.Now()
	if loadPath != "" {
		// Weights land in the featurizer only from a full checkpoint.
		model = &mtmlf.Model{Shared: shared, Feat: featurize.NewForLoad(c, shared.Cfg.Feat)}
		f, err := os.Open(loadPath)
		if err != nil {
			log.Fatal(err)
		}
		info, err := mtmlf.Load(f, model)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		kind := "full-model"
		if info.SharedOnly {
			kind, model = "shared-only", nil
		}
		fmt.Printf("loaded %s checkpoint v%d from %s (trained on db %q)\n",
			kind, info.Version, loadPath, info.DBName)
	}
	if model != nil {
		// The checkpoint already holds trained featurizer weights for
		// this database; repeating the pre-training would overwrite
		// them.
		fmt.Println("skipping featurizer pre-training (full checkpoint loaded)")
		phase.attached(attaching, mtmlf.AttachStats{}, nil)
	} else {
		fmt.Println("pre-training per-table encoders (F module) from the single-table section...")
		tasks, as, err := mtmlf.AttachFleet(shared, []catalog.Catalog{c}, mtmlf.MLAOptions{
			Seed: r.Meta().Seed, EncoderEpochs: encEpochs, Exchanger: ex,
		})
		if err != nil {
			log.Fatal(err)
		}
		phase.attached(attaching, as, tasks)
		model = tasks[0].Model
	}

	fmt.Printf("joint training (%d epochs, seq-level loss: %v)...\n", epochs, seqLoss)
	joining := time.Now()
	st, err := model.TrainJointStream(src, mtmlf.TrainOptions{
		Epochs: epochs, Seed: seed + 2, SeqLevelLoss: seqLoss, BatchSize: batch,
		RecordTrajectory: lossOut != "", Snapshot: snap, Exchanger: ex,
	})
	phase.joint = time.Since(joining)
	if err == nil {
		fmt.Printf("trained %d steps, final running loss %.3f\n", st.Steps, st.FinalLoss)
	}
	return model, test, st, err
}

// evaluate prints the model's card and cost q-errors and its
// join-order quality on the held-out test set.
func evaluate(model *mtmlf.Model, test []*workload.LabeledQuery) {
	var cardQ, costQ, joeus []float64
	for _, lq := range test {
		cards := model.EstimateNodeCards(lq)
		costs := model.EstimateNodeCosts(lq)
		for i := range cards {
			cardQ = append(cardQ, metrics.QError(cards[i], lq.NodeCards[i]))
			costQ = append(costQ, metrics.QError(costs[i], lq.NodeCosts[i]))
		}
		if len(lq.OptimalOrder) >= 2 {
			rep := model.Represent(lq.Q, lq.Plan)
			joeus = append(joeus, metrics.JOEU(model.JoinOrderFor(lq.Q, rep), lq.OptimalOrder))
		}
	}
	cs, os1, js := metrics.Summarize(cardQ), metrics.Summarize(costQ), metrics.Summarize(joeus)
	fmt.Printf("card q-error:  median %.2f  max %.1f  mean %.2f  (n=%d)\n", cs.Median, cs.Max, cs.Mean, cs.N)
	fmt.Printf("cost q-error:  median %.2f  max %.1f  mean %.2f\n", os1.Median, os1.Max, os1.Mean)
	fmt.Printf("join order:    mean JOEU %.2f over %d labeled queries\n", js.Mean, js.N)
}

// interruptOnSignal returns a channel closed on the first SIGINT or
// SIGTERM, the cooperative stop the training loops snapshot on. After
// the first signal the handler uninstalls itself, so a second signal
// kills the process the default way. Disabled (nil) without -resume:
// a run with nowhere to snapshot should just die.
func interruptOnSignal(enabled bool) <-chan struct{} {
	if !enabled {
		return nil
	}
	stop := make(chan struct{})
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		signal.Stop(ch)
		fmt.Printf("%v: snapshotting at the next minibatch boundary (signal again to kill)\n", sig)
		close(stop)
	}()
	return stop
}

// trainMLA is the -mla mode: Algorithm 1 fleet pretraining from the
// corpus artifact r. Every database of the corpus joins the pool; the
// featurizers pre-train from the single-table sections; and the joint
// loop streams the pooled examples from disk. With a non-nil ex this
// process is one rank of a
// distributed fleet: it prepares every featurizer deterministically
// like the others, then fetches and backwards only the minibatch slots
// it owns, exchanging gradients with the other ranks. It returns
// database 0's model, whose shared modules are the transfer artifact.
func trainMLA(r *corpus.Reader, snap mtmlf.SnapshotOptions, ex dist.Exchanger, phase *job) (*mtmlf.Model, mtmlf.TrainStats, error) {
	meta := r.Meta()
	switch {
	case r.NumDBs() == 0:
		log.Fatalf("corpus %s holds no databases; nothing to pretrain on", corpusPath)
	case meta.SingleTablePerTable == 0:
		log.Fatalf("corpus %s records no single-table count in its Meta; -mla trains from a corpus written by mtmlf-datagen -out", corpusPath)
	}
	cats, srcs, err := r.Fleet()
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, src := range srcs {
		total += src.Len()
	}
	// The MLA seed, single-table count and workload config are the
	// corpus's generation parameters; -seed only varies the
	// shared-module initialization.
	fmt.Printf("corpus %s (v%d): %d databases, %d pooled examples, mla seed %d\n",
		corpusPath, corpus.Version, r.NumDBs(), total, meta.Seed)

	fmt.Printf("fleet pretraining: (F) per DB, then joint (S)+(T) over the pooled stream (%d epochs)...\n", epochs)
	opts := mtmlf.MLAOptions{
		SingleTablePerTable: meta.SingleTablePerTable,
		EncoderEpochs:       encEpochs,
		JointEpochs:         epochs,
		Workload:            meta.MLAWorkload,
		Seed:                meta.Seed,
		BatchSize:           batch,
		RecordTrajectory:    lossOut != "",
		Snapshot:            snap,
		Exchanger:           ex,
	}
	attaching := time.Now()
	tasks, as, err := mtmlf.AttachFleet(mtmlf.NewShared(mtmlf.DefaultConfig(), seed), cats, opts)
	if err != nil {
		return nil, mtmlf.TrainStats{}, err
	}
	phase.attached(attaching, as, tasks)
	joining := time.Now()
	st, err := mtmlf.TrainFleet(tasks, srcs, opts)
	phase.joint = time.Since(joining)
	if err != nil {
		return nil, st, err
	}
	fmt.Printf("pretrained on %d databases: %d steps, final running loss %.3f\n", len(tasks), st.Steps, st.FinalLoss)
	return tasks[0].Model, st, nil
}

// runCoordinator is the -dist-coordinator mode: the fleet's model-free
// rendezvous. It admits exactly world ranks, checks that they run one
// job, hands each rank the others' addresses, and exits 0 once every
// rank has said it is done. The ranks exchange gradients over their own
// links; a rank that dies or fails an exchange leaves without its done,
// and the coordinator exits 1 — the supervisor then restarts coordinator
// and workers with -resume, and rank 0's snapshot re-synchronizes
// everyone.
func runCoordinator(addr string, world int) {
	if world < 1 {
		log.Fatalf("-dist-world %d: a fleet needs at least one rank", world)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	c := dist.NewCoordinator(ln, world)
	fmt.Printf("coordinator listening on %s for %d ranks\n", c.Addr(), world)
	if err := c.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet of %d ranks completed cleanly\n", world)
}

// writeTrajectory writes one hex-formatted float64 per line. Hex
// floats are exact, so two trajectory files are byte-identical iff
// the trajectories are bitwise identical — `cmp` is the assertion.
// Published atomically: the smoke drills cmp trajectory files from
// killed runs, which must see the previous complete file or the new
// one, never a torn prefix.
func writeTrajectory(path string, losses []float64) error {
	return ckptio.WriteFileAtomic(path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		for _, v := range losses {
			if _, err := w.WriteString(strconv.FormatFloat(v, 'x', -1, 64) + "\n"); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}
