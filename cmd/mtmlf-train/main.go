// Command mtmlf-train trains an MTMLF-QO model, reports held-out
// q-errors and join-order quality, and can save / load model
// checkpoints — the artifact the paper's cloud provider would ship to
// users (Section 2.3).
//
// Data comes from either backend of the pluggable data plane:
//
//   - default: the synthetic IMDB database is generated in memory and
//     a workload is generated and labeled on the fly (the legacy
//     path);
//   - -corpus: a pre-labeled corpus file written by
//     mtmlf-datagen -out is opened and training examples are
//     STREAMED from disk, one minibatch at a time, so the corpus may
//     exceed RAM. -corpus-mode inmem materializes the same examples
//     into memory first — the trajectory is bitwise identical either
//     way, which `make corpus-smoke` asserts on every CI run.
//
// Usage:
//
//	mtmlf-train [-queries 200] [-epochs 6] [-scale 0.06] [-seed 1]
//	            [-save model.ckpt] [-load model.ckpt] [-shared-only]
//	            [-seqloss] [-workers 0] [-batch 1]
//	            [-corpus corpus.mtc] [-db name] [-corpus-mode stream]
//	            [-loss-out losses.txt]
//	            [-mla] [-encoder-epochs 2] [-st-per-table 40]
//	            [-resume state.snap] [-snapshot-every 0]
//	            [-dist-coordinator :0 | -dist-worker addr]
//	            [-dist-rank 0] [-dist-world 1]
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
// the corpus's cached single-table sections (databases written without
// one fall back to live generation), then the shared (S)+(T) modules
// train on the pooled example stream (mtmlf.TrainMLAStream) without
// ever materializing the fleet workload. The MLA seed comes from the
// corpus Meta record, so the run reproduces the in-memory
// TrainMLA(seed) bitwise; -corpus-mode inmem materializes the per-DB
// workloads first and must produce the identical trajectory and
// checkpoint, which `make mla-smoke` asserts. -save then writes the
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
// slots it owns (slot i belongs to rank i mod world) — for a corpus
// job that means each rank reads only its slice of the stream — and
// the coordinator performs the example-ordered reduction centrally,
// so the trajectory and every artifact are bitwise identical to the
// single-process run at the same seed, batch, and example set, for
// any fleet size. Rank 0 owns all artifacts (-save, -loss-out,
// -resume); with -resume, rank 0's snapshot is broadcast at startup
// so a supervisor can kill -9 any process and restart the whole
// fleet, which `make dist-smoke` drills.
//
// -workers sizes the shared worker pool (0 = all cores) used by the
// tensor kernels, the data-parallel training loop, and corpus example
// decoding; -batch sets the minibatch size (examples per Adam step).
// The training trajectory depends on -batch but is bitwise identical
// for every -workers. -loss-out writes every example's loss as a hex
// float64 per line — the bitwise trajectory probe the corpus smoke
// test compares across backends.
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
	"strconv"
	"syscall"
	"time"

	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/dist"
	"mtmlf/internal/metrics"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

func main() {
	queries := flag.Int("queries", 200, "training workload size (in-memory path)")
	epochs := flag.Int("epochs", 6, "joint training epochs")
	scale := flag.Float64("scale", 0.06, "synthetic IMDB scale factor (in-memory path)")
	seed := flag.Int64("seed", 1, "random seed")
	savePath := flag.String("save", "", "save a trained model checkpoint to this file")
	loadPath := flag.String("load", "", "load a checkpoint (full or shared-only) before training")
	sharedOnly := flag.Bool("shared-only", false, "save only the transferable (S)+(T) modules (cross-DB transfer artifact)")
	seqLoss := flag.Bool("seqloss", false, "use the Equation 3 sequence-level join-order loss")
	workers := flag.Int("workers", 0, "worker pool size for kernels and data-parallel training (0 = all cores)")
	batch := flag.Int("batch", 1, "minibatch size (examples averaged per Adam step)")
	corpusPath := flag.String("corpus", "", "train from this corpus file (written by mtmlf-datagen -out)")
	dbName := flag.String("db", "", "corpus database to train on (default: first)")
	corpusMode := flag.String("corpus-mode", "stream", "corpus example delivery: stream (from disk) or inmem (materialized)")
	lossOut := flag.String("loss-out", "", "write the per-example loss trajectory (hex float64 per line) to this file")
	mla := flag.Bool("mla", false, "fleet pretraining: run Algorithm 1 over every database of the -corpus artifact")
	encEpochs := flag.Int("encoder-epochs", 2, "per-table encoder pre-training epochs (-mla)")
	stPerTable := flag.Int("st-per-table", 40, "single-table queries per table for the -mla live-pretrain fallback on corpora whose Meta predates the recorded generation parameters")
	resumePath := flag.String("resume", "", "training-state snapshot file: resumed from when present, written on SIGINT/SIGTERM (then exit 0) and every -snapshot-every steps")
	snapEvery := flag.Int("snapshot-every", 0, "with -resume: also snapshot after every N optimizer steps (0 = only on interruption)")
	distCoord := flag.String("dist-coordinator", "", "listen address (host:port): serve as the gradient-exchange coordinator for a -dist-world rank fleet, then exit")
	distWorker := flag.String("dist-worker", "", "coordinator address (host:port): train as one rank of a distributed fleet")
	distRank := flag.Int("dist-rank", 0, "this process's rank (0-based) in the -dist-worker fleet")
	distWorld := flag.Int("dist-world", 1, "number of worker ranks in the distributed fleet")
	flag.Parse()

	tensor.SetParallelism(*workers)
	start := time.Now()

	if *distCoord != "" {
		if *distWorker != "" {
			log.Fatal("-dist-coordinator and -dist-worker are different processes; pick one")
		}
		runCoordinator(*distCoord, *distWorld)
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	var ex dist.Exchanger
	if *distWorker != "" {
		// The fingerprint is every trajectory-relevant flag: the
		// coordinator refuses a fleet whose ranks disagree on it, so a
		// mislaunched rank (wrong seed, wrong corpus, wrong batch) dies
		// at the handshake instead of poisoning the run.
		fp := fmt.Sprintf("mla=%v corpus=%s corpus-mode=%s db=%s queries=%d epochs=%d encoder-epochs=%d st-per-table=%d batch=%d seed=%d scale=%v seqloss=%v loss=%v world=%d",
			*mla, *corpusPath, *corpusMode, *dbName, *queries, *epochs, *encEpochs, *stPerTable, *batch, *seed, *scale, *seqLoss, *lossOut != "", *distWorld)
		t, err := dist.DialRetry(*distWorker, *distRank, *distWorld, fp, 300, 100*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		// Runs at clean exit only (log.Fatal skips it): where this rank's
		// exchange time went, next to the coordinator's per-rank waits.
		defer func() {
			t.Close()
			fmt.Printf("rank %d exchange: %v\n", *distRank, t.Stats())
		}()
		ex = t
		fmt.Printf("rank %d/%d joined the fleet at %s\n", *distRank, *distWorld, *distWorker)
	}
	// Rank 0 owns every per-job artifact: the checkpoint, the
	// trajectory file, and the training snapshot. Other ranks compute
	// the identical state (and record the identical trajectory, which
	// keeps the run configuration uniform fleet-wide) but write
	// nothing.
	isPrimary := *distWorker == "" || *distRank == 0

	snap := mtmlf.SnapshotOptions{
		Path: *resumePath, Every: *snapEvery, Resume: *resumePath != "",
		Interrupt: interruptOnSignal(*resumePath != ""),
	}

	if *mla {
		// Fail loudly on flags the MLA path does not honor — silently
		// ignoring -load would hand back a from-scratch model when the
		// user asked to continue from a checkpoint.
		switch {
		case *loadPath != "":
			log.Fatal("-mla pretrains the shared modules from scratch; it cannot resume from -load")
		case *dbName != "":
			log.Fatal("-mla pools every database of the corpus; -db selects a single one (drop -mla or -db)")
		case *seqLoss:
			log.Fatal("-mla uses the Algorithm 1 token-level join-order loss; -seqloss is not supported")
		case *sharedOnly:
			log.Fatal("-mla checkpoints are always shared-only; drop -shared-only")
		}
		trainMLA(*corpusPath, *corpusMode, *epochs, *encEpochs, *stPerTable, *batch, *seed, *savePath, *lossOut, snap, ex, isPrimary)
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	// --- data plane: pick a catalog backend and an example source ---
	var (
		cat   catalog.Catalog
		src   workload.Source
		test  []*workload.LabeledQuery
		nGen  int
		genFn func(gen *workload.Generator, wcfg workload.Config)
	)
	wcfg := workload.DefaultConfig()
	if *corpusPath != "" {
		r, err := corpus.Open(*corpusPath)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		var c *corpus.DBCatalog
		if *dbName != "" {
			c, err = r.CatalogByName(*dbName)
		} else {
			c, err = r.Catalog(0)
		}
		if err != nil {
			log.Fatal(err)
		}
		cat = c
		ex := c.Examples()
		n := ex.Len()
		// The same 85/5/10 split as the in-memory path, expressed as
		// index ranges over the streamed examples.
		nTrain := int(float64(n) * 0.85)
		nVal := int(float64(n) * 0.05)
		trainSrc, err := workload.SubSource(ex, 0, nTrain)
		if err != nil {
			log.Fatal(err)
		}
		testSrc, err := workload.SubSource(ex, nTrain+nVal, n)
		if err != nil {
			log.Fatal(err)
		}
		if test, err = workload.Materialize(testSrc); err != nil {
			log.Fatal(err)
		}
		switch *corpusMode {
		case "stream":
			src = trainSrc
		case "inmem":
			slice, err := workload.Materialize(trainSrc)
			if err != nil {
				log.Fatal(err)
			}
			src = workload.SliceSource(slice)
		default:
			log.Fatalf("unknown -corpus-mode %q (want stream or inmem)", *corpusMode)
		}
		fmt.Printf("corpus %s: db %q, %d examples (%d train, %d test), mode %s\n",
			*corpusPath, c.Name(), n, src.Len(), len(test), *corpusMode)
	} else {
		db := datagen.SyntheticIMDB(*seed, *scale)
		cat = catalog.NewMemory(db)
		nGen = *queries
		genFn = func(gen *workload.Generator, wcfg workload.Config) {
			fmt.Printf("generating and labeling %d queries...\n", nGen)
			all := gen.Generate(nGen, wcfg)
			train, _, testQ := workload.Split(all, 0.85, 0.05)
			src = workload.SliceSource(train)
			test = testQ
		}
	}
	db := cat.DB()
	fmt.Printf("database: %d tables, %d join edges (%d workers)\n", len(db.Tables), len(db.Edges), tensor.Parallelism())

	model := mtmlf.NewModelCat(mtmlf.DefaultConfig(), cat, *seed)
	loadedFull := false
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		info, err := mtmlf.Load(f, model)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		loadedFull = !info.SharedOnly
		kind := "full-model"
		if info.SharedOnly {
			kind = "shared-only"
		}
		fmt.Printf("loaded %s checkpoint v%d from %s (trained on db %q)\n",
			kind, info.Version, *loadPath, info.DBName)
	}

	gen := workload.NewGeneratorFrom(cat, *seed+1)
	if loadedFull {
		// The checkpoint already holds trained featurizer weights for
		// this database; repeating the pre-training would overwrite
		// them.
		fmt.Println("skipping featurizer pre-training (full checkpoint loaded)")
	} else {
		fmt.Println("pre-training per-table encoders (F module)...")
		model.Feat.PretrainAll(gen, 40, 2, wcfg)
	}
	if genFn != nil {
		genFn(gen, wcfg)
	}

	fmt.Printf("joint training (%d epochs, seq-level loss: %v)...\n", *epochs, *seqLoss)
	st, err := model.TrainJointStream(src, mtmlf.TrainOptions{
		Epochs: *epochs, Seed: *seed + 2, SeqLevelLoss: *seqLoss, BatchSize: *batch,
		RecordTrajectory: *lossOut != "", Snapshot: snap, Exchanger: ex,
	})
	if errors.Is(err, mtmlf.ErrInterrupted) {
		exitInterrupted(*resumePath)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d steps, final running loss %.3f\n", st.Steps, st.FinalLoss)
	if *lossOut != "" && isPrimary {
		if err := writeTrajectory(*lossOut, st.Trajectory); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-step loss trajectory to %s\n", len(st.Trajectory), *lossOut)
	}

	// Evaluate.
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

	if *savePath != "" && isPrimary {
		// Checkpoints commit atomically (temp file + fsync + rename): a
		// crash mid-save can never leave a torn artifact at -save.
		if *sharedOnly {
			err = mtmlf.SaveSharedFile(*savePath, model)
		} else {
			err = mtmlf.SaveFile(*savePath, model)
		}
		if err != nil {
			log.Fatal(err)
		}
		if *sharedOnly {
			fmt.Printf("saved shared-only (transfer) checkpoint to %s\n", *savePath)
		} else {
			fmt.Printf("saved full-model checkpoint to %s\n", *savePath)
		}
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
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

// exitInterrupted reports a clean interruption and exits 0: the
// snapshot holds the run's progress, so to a supervisor this is "not
// done yet", not a failure.
func exitInterrupted(resumePath string) {
	fmt.Printf("interrupted: resumable snapshot at %s; rerun with the same flags to finish\n", resumePath)
	os.Exit(0)
}

// trainMLA is the -mla mode: Algorithm 1 fleet pretraining from one
// corpus artifact. Every database of the corpus joins the pool; the
// featurizers pre-train from the single-table sections when the corpus
// has them (live fallback otherwise); and the joint loop streams the
// pooled examples from disk ("stream") or from materialized slices
// ("inmem") — bitwise-identically either way. With a non-nil ex this
// process is one rank of a distributed fleet: it prepares every
// featurizer deterministically like the others, then fetches and
// backwards only the minibatch slots it owns, exchanging gradients
// through the coordinator; only the primary rank writes artifacts.
func trainMLA(corpusPath, corpusMode string, epochs, encEpochs, stPerTable, batch int, seed int64, savePath, lossOut string, snap mtmlf.SnapshotOptions, ex dist.Exchanger, isPrimary bool) {
	if corpusPath == "" {
		log.Fatal("-mla requires -corpus (a fleet artifact written by mtmlf-datagen -single-table)")
	}
	if corpusMode != "stream" && corpusMode != "inmem" {
		log.Fatalf("unknown -corpus-mode %q (want stream or inmem)", corpusMode)
	}
	r, err := corpus.Open(corpusPath)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	if r.NumDBs() == 0 {
		log.Fatalf("corpus %s holds no databases; nothing to pretrain on", corpusPath)
	}
	cats := make([]catalog.Catalog, r.NumDBs())
	srcs := make([]workload.Source, r.NumDBs())
	total := 0
	for i := 0; i < r.NumDBs(); i++ {
		c, err := r.Catalog(i)
		if err != nil {
			log.Fatal(err)
		}
		cats[i] = c
		ex := c.Examples()
		if corpusMode == "inmem" {
			slice, err := workload.Materialize(ex)
			if err != nil {
				log.Fatal(err)
			}
			srcs[i] = workload.SliceSource(slice)
		} else {
			srcs[i] = ex
		}
		total += ex.Len()
	}
	// The MLA seed is the corpus's generation seed, so this run
	// reproduces the in-memory TrainMLA over the same fleet bitwise;
	// -seed only varies the shared-module initialization. Fleet-MLA
	// corpora (datagen -single-table) also echo their workload config
	// and per-table count into Meta, so the live (F)-pretrain fallback
	// on a database without a single-table section regenerates the
	// exact draws of generation time; -st-per-table and the default
	// workload config only apply to corpora not generated for MLA.
	meta := r.Meta()
	mlaSeed := meta.Seed
	wcfg := workload.DefaultConfig()
	if meta.SingleTablePerTable > 0 {
		wcfg = meta.MLAWorkload
		stPerTable = meta.SingleTablePerTable
	}
	fmt.Printf("corpus %s (v%d): %d databases, %d pooled examples, mla seed %d, mode %s\n",
		corpusPath, r.Version(), r.NumDBs(), total, mlaSeed, corpusMode)

	shared := mtmlf.NewShared(mtmlf.DefaultConfig(), seed)
	opts := mtmlf.MLAOptions{
		SingleTablePerTable: stPerTable,
		EncoderEpochs:       encEpochs,
		JointEpochs:         epochs,
		Workload:            wcfg,
		Seed:                mlaSeed,
		BatchSize:           batch,
		RecordTrajectory:    lossOut != "",
		Snapshot:            snap,
		Exchanger:           ex,
	}
	fmt.Printf("fleet pretraining: (F) per DB, then joint (S)+(T) over the pooled stream (%d epochs)...\n", epochs)
	tasks, st, err := mtmlf.TrainMLAStream(shared, cats, srcs, opts)
	if errors.Is(err, mtmlf.ErrInterrupted) {
		exitInterrupted(snap.Path)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pretrained on %d databases: %d steps, final running loss %.3f\n", len(tasks), st.Steps, st.FinalLoss)
	if lossOut != "" && isPrimary {
		if err := writeTrajectory(lossOut, st.Trajectory); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d-step loss trajectory to %s\n", len(st.Trajectory), lossOut)
	}
	if savePath != "" && isPrimary {
		if err := mtmlf.SaveSharedFile(savePath, tasks[0].Model); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved shared-only (transfer) checkpoint to %s\n", savePath)
	}
}

// runCoordinator is the -dist-coordinator mode: a model-free hub that
// admits exactly world ranks, serves lockstep gradient-exchange
// rounds, and exits 0 on a clean fleet shutdown. Any rank failure,
// drift, or frame corruption aborts the whole fleet (exit 1) — the
// supervisor then restarts coordinator and workers with -resume, and
// rank 0's snapshot re-synchronizes everyone.
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
	for rank, wait := range c.Waits() {
		fmt.Printf("rank %d waited %v in total for the last gradient frame of its rounds\n", rank, wait.Round(time.Millisecond))
	}
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
