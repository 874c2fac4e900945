package mtmlf

import (
	"fmt"
	"math/rand"

	"mtmlf/internal/ag"
	"mtmlf/internal/catalog"
	"mtmlf/internal/dist"
	"mtmlf/internal/featurize"
	"mtmlf/internal/nn"
	"mtmlf/internal/parallel"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// ---------------------------------------------------------------------------
// Streaming epoch iterator
// ---------------------------------------------------------------------------

// runEpochs is the streaming epoch iterator every training loop runs
// on: a seeded shuffle over n example indices per epoch, cut into
// minibatches. For each minibatch it first calls prefetch (which may
// pull the examples from any workload.Source — in-memory slice or
// on-disk corpus — worker-parallel), then computes the minibatch
// data-parallel and applies one Adam step through the gradient-exchange
// plane ex. Only minibatch-sized state is ever live, so the example
// universe can exceed RAM; and because the shuffle depends only on
// seed, the per-example math only on the example bits, and the
// reduction on slot order (never on worker count, process count, or
// goroutine scheduling), the trajectory is bitwise identical for every
// worker count, every fleet size, and every source backend.
func runEpochs(ex dist.Exchanger, opt *nn.Adam, params []*ag.Value, n, epochs, bs, nWorkers int, seed int64,
	prefetch func(batch []int) error,
	build func(slot, example int) *ag.Value,
	after func(loss float64)) error {
	return runEpochsCtl(ex, opt, params, n, epochs, bs, nWorkers, seed, prefetch, build, after, nil)
}

// runEpochsCtl is runEpochs with a durability controller: ctl (may be
// nil) positions the loop mid-run on resume, snapshots the training
// state at minibatch boundaries, and stops cooperatively on
// interruption (returning ErrInterrupted after a final snapshot).
//
// Resume replays the shuffle deterministically: the rng's only draws
// are one Perm per epoch, so skipping ctl.startEpoch epochs re-derives
// the exact stream position, and starting the current epoch at
// ctl.startOffset (a minibatch boundary) re-enters mid-epoch with the
// same minibatch cuts the uninterrupted run makes. Combined with
// restored parameters and optimizer state, the remainder of the run —
// and therefore the final model — is bitwise identical to never having
// stopped, at any worker count.
//
// In a distributed run every rank executes this same loop over the
// same (seed, n, epochs, bs) shape: the shuffle, the minibatch cuts,
// and the batch counter advance in lockstep on every rank, each rank
// computes only its owned slots, and AllReduce hands everyone the
// identical reduced gradient and loss vector — so ctl's snapshot
// cadence and interrupt decisions land on the same minibatch boundary
// fleet-wide.
func runEpochsCtl(ex dist.Exchanger, opt *nn.Adam, params []*ag.Value, n, epochs, bs, nWorkers int, seed int64,
	prefetch func(batch []int) error,
	build func(slot, example int) *ag.Value,
	after func(loss float64),
	ctl *epochCtl) error {
	rng := rand.New(rand.NewSource(seed))
	slots := make([]ag.Grads, bs)
	losses := make([]float64, bs)
	batches := 0
	for ep := 0; ep < epochs; ep++ {
		order := rng.Perm(n)
		first := 0
		if ctl != nil {
			if ep < ctl.startEpoch {
				continue // consumed only to advance the rng stream
			}
			if ep == ctl.startEpoch {
				first = ctl.startOffset
			}
		}
		for start := first; start < len(order); start += bs {
			end := start + bs
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			if prefetch != nil {
				if err := prefetch(batch); err != nil {
					return err
				}
			}
			if err := runMinibatch(ex, opt, params, len(batch), nWorkers, slots, losses, func(i int) *ag.Value {
				return build(i, batch[i])
			}); err != nil {
				return err
			}
			if after != nil {
				for i := range batch {
					after(losses[i])
				}
			}
			if ctl == nil {
				continue
			}
			batches++
			// Normalize a finished epoch to {ep+1, 0} so the resume
			// point is unambiguous.
			epNext, offNext := ep, end
			if end >= len(order) {
				epNext, offNext = ep+1, 0
			}
			done := epNext >= epochs && offNext == 0
			stop := !done && ctl.stopRequested(batches)
			if ctl.snap != nil && !done && (stop || (ctl.every > 0 && batches%ctl.every == 0)) {
				if err := ctl.snap(epNext, offNext); err != nil {
					return err
				}
			}
			if stop {
				return ErrInterrupted
			}
		}
	}
	return nil
}

// fetchInto pulls one minibatch's examples into dst, worker-parallel
// for storage-backed sources (decode is real work there); the
// in-memory slice source is just indexed. A distributed rank fetches
// only the slots it owns — for a corpus-backed source that means each
// rank reads and decodes only its slice of the stream, which is what
// makes fleet pretraining scale I/O as well as compute.
func fetchInto(src workload.Source, batch []int, dst []*workload.LabeledQuery, world, rank int) error {
	if ss, ok := src.(workload.SliceSource); ok {
		for j, gi := range batch {
			if !dist.Owns(world, rank, j) {
				dst[j] = nil
				continue
			}
			dst[j] = ss[gi]
		}
		return nil
	}
	return parallel.ForErr(len(batch), 1, func(j int) error {
		if !dist.Owns(world, rank, j) {
			dst[j] = nil
			return nil
		}
		var err error
		dst[j], err = src.Example(batch[j])
		return err
	})
}

// TrainOptions controls joint training.
type TrainOptions struct {
	// Epochs over the training set.
	Epochs int
	// SeqLevelLoss switches Trans_JO from the token-level
	// cross-entropy to the Equation 3 sequence-level loss (Section 5).
	SeqLevelLoss bool
	// Seed shuffles the training order.
	Seed int64
	// LR overrides the config learning rate when > 0.
	LR float64
	// BatchSize groups examples into minibatches whose averaged
	// gradient drives each Adam step. 0 or 1 keeps per-example SGD
	// (the original trajectory).
	BatchSize int
	// Workers is the number of data-parallel workers that run
	// forward/backward over a minibatch's examples concurrently
	// against the shared parameters, each into a private gradient
	// buffer. 0 uses tensor.Parallelism(). The gradient reduction is
	// ordered by example index, so the loss trajectory is bitwise
	// identical for every worker count.
	Workers int
	// RecordTrajectory keeps every example's loss (in processing
	// order) in TrainStats.Trajectory — the eps=0 equivalence probe
	// for comparing training runs across source backends and worker
	// counts.
	RecordTrajectory bool
	// Snapshot makes the run durable: periodic crash-safe
	// training-state snapshots, cooperative interruption, and resume.
	Snapshot SnapshotOptions
	// Exchanger is the gradient-exchange plane. nil trains
	// single-process (dist.Local()); a dist.TCP exchanger makes this
	// process one rank of a data-parallel fleet whose trajectory is
	// bitwise identical to the single-process run at the same
	// (seed, batch size, example set).
	Exchanger dist.Exchanger
}

func (o TrainOptions) exchanger() dist.Exchanger {
	if o.Exchanger == nil {
		return dist.Local()
	}
	return o.Exchanger
}

func (o TrainOptions) batchSize() int {
	if o.BatchSize < 1 {
		return 1
	}
	return o.BatchSize
}

func (o TrainOptions) workers() int {
	if o.Workers < 1 {
		return tensor.Parallelism()
	}
	return o.Workers
}

// TrainStats summarizes a training run. It is fully live state (no
// seal step), so a training snapshot can persist it mid-run and a
// resumed run continues the exact statistics stream.
type TrainStats struct {
	// Steps counts training examples processed (not optimizer steps:
	// with BatchSize b, one Adam update covers b examples).
	Steps int
	// FinalLoss is the 0.95/0.05 EMA of the per-example loss, updated
	// live as examples are processed.
	FinalLoss float64
	// Trajectory holds every example's loss in processing order when
	// TrainOptions.RecordTrajectory is set (nil otherwise).
	Trajectory []float64
}

// recordInto returns the per-example stats hook every streaming
// trainer passes to runEpochs — the 0.95/0.05 EMA running loss, the
// step count, and the optional bitwise trajectory. One definition, so
// the eps=0 cross-path equivalence probes always compare identically
// computed stats.
func recordInto(st *TrainStats, trajectory bool) func(float64) {
	return func(loss float64) {
		st.FinalLoss = 0.95*st.FinalLoss + 0.05*loss
		st.Steps++
		if trajectory {
			st.Trajectory = append(st.Trajectory, loss)
		}
	}
}

// batchBackward computes per-example losses and gradients for one
// minibatch of n examples using up to nWorkers concurrent workers
// drawn from the shared bounded pool (so -workers stays a global
// concurrency bound even when training nests inside other parallel
// work). build(i) must construct the i-th example's loss graph;
// workers share the model parameters read-only and accumulate
// gradients into private per-example buffers (slots[i]). Examples
// are strided to workers by index and reduced by the caller in index
// order, so the result is independent of both nWorkers and goroutine
// scheduling.
func batchBackward(n, nWorkers int, slots []ag.Grads, losses []float64, build func(i int) *ag.Value) {
	run := func(i int) {
		sink := ag.Grads{}
		loss := build(i)
		loss.BackwardInto(sink)
		slots[i] = sink
		losses[i] = loss.Item()
	}
	if nWorkers > n {
		nWorkers = n
	}
	if nWorkers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	fs := make([]func(), nWorkers)
	for w := 0; w < nWorkers; w++ {
		w := w
		fs[w] = func() {
			for i := w; i < n; i += nWorkers {
				run(i)
			}
		}
	}
	parallel.Do(fs...)
}

// ownedBackward is batchBackward for one rank of a distributed fleet:
// it computes only the slots this rank owns (slot i belongs to rank
// i mod world — examples stride across ranks exactly like they stride
// across in-process workers), leaving every other slot nil for
// AllReduce to fill in from the other ranks. Owned slots still fan out
// over nWorkers in-process workers, so a rank parallelizes its share
// of the minibatch the same way a single-process run parallelizes the
// whole one.
func ownedBackward(world, rank, n, nWorkers int, slots []ag.Grads, losses []float64, build func(i int) *ag.Value) {
	owned := make([]int, 0, n/world+1)
	for i := 0; i < n; i++ {
		slots[i] = nil
		if dist.Owns(world, rank, i) {
			owned = append(owned, i)
		}
	}
	run := func(i int) {
		sink := ag.Grads{}
		loss := build(i)
		loss.BackwardInto(sink)
		slots[i] = sink
		losses[i] = loss.Item()
	}
	if nWorkers > len(owned) {
		nWorkers = len(owned)
	}
	if nWorkers <= 1 {
		for _, i := range owned {
			run(i)
		}
		return
	}
	fs := make([]func(), nWorkers)
	for w := 0; w < nWorkers; w++ {
		w := w
		fs[w] = func() {
			for j := w; j < len(owned); j += nWorkers {
				run(owned[j])
			}
		}
	}
	parallel.Do(fs...)
}

// runMinibatch computes gradients for one minibatch and applies one
// Adam step through the gradient-exchange plane. The single-process
// single-example case bypasses the sink machinery and accumulates
// directly into the parameters' Grad fields — the same trajectory
// bitwise (identical accumulation order), without the per-example
// buffer and reduction traffic on the per-example-SGD hot path every
// default-configured training run takes. Every other case backwards
// the rank's owned slots into private buffers and exchanges them:
// ZeroGrad + AllReduce + Step, which with the Local backend is
// float-op-for-float-op ag.ReduceGrads in slot order followed by
// Adam.Step, and with the TCP backend the same arithmetic performed
// once at the coordinator.
func runMinibatch(ex dist.Exchanger, opt *nn.Adam, params []*ag.Value, n, nWorkers int, slots []ag.Grads, losses []float64, build func(i int) *ag.Value) error {
	world, rank := ex.World()
	if world <= 1 && n == 1 {
		opt.ZeroGrad()
		loss := build(0)
		loss.Backward()
		opt.Step()
		losses[0] = loss.Item()
		return nil
	}
	if world <= 1 {
		batchBackward(n, nWorkers, slots, losses, build)
	} else {
		ownedBackward(world, rank, n, nWorkers, slots, losses, build)
	}
	opt.ZeroGrad()
	if err := ex.AllReduce(params, slots[:n], losses[:n], 1/float64(n)); err != nil {
		return err
	}
	opt.Step()
	return nil
}

// jointLoss builds the Equation 1 loss graph for one labeled query.
func (m *Model) jointLoss(lq *workload.LabeledQuery, seqLevel bool) *ag.Value {
	cfg := m.Shared.Cfg
	rep := m.Represent(lq.Q, lq.Plan)
	loss := ag.Scalar(0)
	if cfg.WCard > 0 {
		loss = ag.Add(loss, ag.Scale(m.CardLoss(rep, lq), cfg.WCard))
	}
	if cfg.WCost > 0 {
		loss = ag.Add(loss, ag.Scale(m.CostLoss(rep, lq), cfg.WCost))
	}
	if cfg.WJo > 0 && len(lq.OptimalOrder) >= 2 {
		var jo *ag.Value
		if seqLevel {
			jo = m.JoinOrderSequenceLoss(rep, lq.Q, lq.OptimalOrder)
		} else {
			jo = m.JoinOrderTokenLoss(rep, lq.OptimalOrder)
		}
		loss = ag.Add(loss, ag.Scale(jo, cfg.WJo))
	}
	return loss
}

// TrainJoint trains the (S) and (T) modules jointly on all three tasks
// with the Equation 1 loss. Per the paper, the gradient updates (S)
// and (T) only; the per-table encoders of the (F) module are
// pre-trained separately (Featurizer.PretrainAll) and stay frozen
// here. Single-task ablations (MTMLF-CardEst etc.) are obtained by
// zeroing the other weights in Config.
//
// Training is minibatch data-parallel: each minibatch's examples run
// forward/backward concurrently on TrainOptions.Workers workers
// against the shared parameters, each into a private gradient buffer;
// the buffers are then averaged in example order and applied as one
// Adam step. The trajectory depends on Seed and BatchSize but never
// on Workers.
func (m *Model) TrainJoint(train []*workload.LabeledQuery, opts TrainOptions) TrainStats {
	// A slice source never errors, so the streaming path's error is
	// structurally nil here.
	st, _ := m.TrainJointStream(workload.SliceSource(train), opts)
	return st
}

// TrainJointStream is TrainJoint over any workload.Source: the
// in-memory slice backend, an on-disk corpus (corpus.Reader.Examples)
// or any future example producer. Each minibatch's examples are
// fetched worker-parallel just before use and dropped after, so the
// corpus may exceed RAM. The trajectory is bitwise identical to the
// in-memory path on the same example set — the source only changes
// where bytes come from, never what the optimizer sees.
func (m *Model) TrainJointStream(src workload.Source, opts TrainOptions) (TrainStats, error) {
	cfg := m.Shared.Cfg
	lr := cfg.LR
	if opts.LR > 0 {
		lr = opts.LR
	}
	bs := opts.batchSize()
	params := m.Shared.Params()
	opt := nn.NewAdam(params, lr)
	ex := opts.exchanger()
	world, rank := ex.World()
	var st TrainStats
	after := recordInto(&st, opts.RecordTrajectory)
	ctl, err := prepareSnapshots(ex, opts.Snapshot, snapshotMeta{
		Kind:   "joint",
		Config: fmt.Sprintf("seqlevel=%v lr=%v trajectory=%v", opts.SeqLevelLoss, lr, opts.RecordTrajectory),
		N:      src.Len(), Epochs: opts.Epochs, BatchSize: bs, Seed: opts.Seed,
	}, opt, params, &st)
	if err != nil {
		return st, err
	}
	cur := make([]*workload.LabeledQuery, bs)
	err = runEpochsCtl(ex, opt, params, src.Len(), opts.Epochs, bs, opts.workers(), opts.Seed,
		func(batch []int) error { return fetchInto(src, batch, cur, world, rank) },
		func(slot, _ int) *ag.Value { return m.jointLoss(cur[slot], opts.SeqLevelLoss) },
		after, ctl)
	return st, err
}

// ---------------------------------------------------------------------------
// Algorithm 1: cross-DB meta-learning (MLA)
// ---------------------------------------------------------------------------

// DBTask bundles one database's generator, featurizer, and labeled
// workload for MLA.
type DBTask struct {
	DB    *sqldb.DB
	Gen   *workload.Generator
	Model *Model // shares Shared with every other task
	// Queries is the materialized multi-table workload on the
	// in-memory path (NewDBTask). Corpus-backed tasks (TrainMLAStream)
	// leave it nil — their examples stay on disk and stream through
	// the epoch iterator one minibatch at a time.
	Queries []*workload.LabeledQuery
}

// MLAOptions controls the meta-learning run.
type MLAOptions struct {
	// QueriesPerDB is the multi-table workload size per database.
	QueriesPerDB int
	// SingleTablePerTable and EncoderEpochs control Enc_i pre-training
	// (Algorithm 1 line 4).
	SingleTablePerTable int
	EncoderEpochs       int
	// JointEpochs trains (S)+(T) over the shuffled pooled data
	// (Algorithm 1 lines 7–8).
	JointEpochs int
	// Workload configures query generation.
	Workload workload.Config
	// Seed drives all randomness.
	Seed int64
	// BatchSize and Workers configure the data-parallel joint loop,
	// with the same semantics as TrainOptions.
	BatchSize int
	Workers   int
	// RecordTrajectory keeps every pooled example's loss (in
	// processing order) in TrainStats.Trajectory, with the same
	// semantics as TrainOptions.RecordTrajectory — the eps=0 probe for
	// comparing the in-memory and corpus-backed MLA paths.
	RecordTrajectory bool
	// Snapshot makes the joint loop (Algorithm 1 lines 7–8) durable,
	// with the same semantics as TrainOptions.Snapshot. Per-DB
	// preparation (encoder pre-training) is deterministic from the
	// seeds and re-runs on resume.
	Snapshot SnapshotOptions
	// Exchanger is the gradient-exchange plane for the joint loop,
	// with the same semantics as TrainOptions.Exchanger. Per-DB
	// preparation is deterministic from the seeds and runs identically
	// on every rank, so only the joint loop exchanges gradients.
	Exchanger dist.Exchanger
}

func (o MLAOptions) exchanger() dist.Exchanger {
	if o.Exchanger == nil {
		return dist.Local()
	}
	return o.Exchanger
}

// taskSeed derives database i's task seed from the MLA master seed —
// the one seed scheme NewDBTask, TrainMLAStream's live-pretrain
// fallback, and GenMLAData all share, so a corpus written from
// GenMLAData trains bitwise-identically to the live in-memory run.
func (o MLAOptions) taskSeed(i int) int64 { return o.Seed + int64(i)*101 }

// TrainMLA runs Algorithm 1: for each database it trains the
// single-table encoders and builds a labeled workload (lines 3–6),
// then trains the shared (S) and (T) modules on the pooled, shuffled
// examples (lines 7–8). It returns the per-DB tasks so callers can
// evaluate the shared modules on each database or attach a new one,
// plus the joint loop's TrainStats (final running loss, steps, and —
// with MLAOptions.RecordTrajectory — every pooled example's loss).
// The error is the epoch iterator's: in-memory slice sources never
// fail, but the shared joint loop is the same one the corpus-backed
// path streams I/O through, and a half-trained model must never be
// mistaken for a trained one.
//
// Per-DB preparation (encoder pre-training, workload labeling) is
// independent across databases and fans out over the worker pool;
// the joint loop is minibatch data-parallel like TrainJoint, with
// the same worker-count-independent gradient reduction.
func TrainMLA(shared *Shared, dbs []*sqldb.DB, opts MLAOptions) ([]*DBTask, TrainStats, error) {
	tasks := make([]*DBTask, len(dbs))
	parallel.For(len(dbs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tasks[i] = NewDBTask(shared, dbs[i], opts, opts.taskSeed(i))
		}
	})
	srcs := make([]workload.Source, len(tasks))
	for i, t := range tasks {
		srcs[i] = workload.SliceSource(t.Queries)
	}
	st, err := trainMLAJoint(shared, tasks, srcs, opts)
	return tasks, st, err
}

// TrainMLAStream is Algorithm 1 over the pluggable data plane: each
// database arrives as a catalog.Catalog plus a workload.Source of
// pre-labeled examples — corpus.DBCatalog with corpus.Reader.Examples
// for fleet pretraining from one on-disk artifact, or in-memory
// slices for tests and hybrids. cats[i] and srcs[i] describe the same
// database.
//
// Per-DB preparation builds each featurizer exactly as NewDBTask does
// (same init seed, same table order); the single-table pre-training
// data comes from the catalog's cached corpus v2 section when present
// (SingleTable) and is otherwise regenerated live from the task seed
// — both bitwise-identical to the in-memory path. The joint loop then
// pools the sources under one deterministic global index order
// (workload.Concat: all of srcs[0], then srcs[1], …) and streams
// minibatches through the shared epoch iterator, so the pooled fleet
// workload is NEVER materialized and the trajectory and final shared
// parameters are bitwise identical to TrainMLA on the same data at
// any worker count.
func TrainMLAStream(shared *Shared, cats []catalog.Catalog, srcs []workload.Source, opts MLAOptions) ([]*DBTask, TrainStats, error) {
	if len(cats) != len(srcs) {
		return nil, TrainStats{}, fmt.Errorf("mtmlf: %d catalogs but %d example sources", len(cats), len(srcs))
	}
	tasks := make([]*DBTask, len(cats))
	if err := parallel.ForErr(len(cats), 1, func(i int) error {
		var err error
		tasks[i], err = newDBTaskFrom(shared, cats[i], opts, opts.taskSeed(i))
		if err != nil {
			return fmt.Errorf("mtmlf: prepare database %q: %w", cats[i].Name(), err)
		}
		return nil
	}); err != nil {
		return nil, TrainStats{}, err
	}
	st, err := trainMLAJoint(shared, tasks, srcs, opts)
	return tasks, st, err
}

// singleTabler is implemented by catalog backends that carry cached
// encoder pre-training data (corpus v2's per-DB single-table
// section). ok=false means "generate it live instead".
type singleTabler interface {
	SingleTable() (data []workload.TableWorkload, ok bool, err error)
}

// newDBTaskFrom prepares one database for the streaming MLA path: the
// featurizer is initialized and pre-trained exactly like NewDBTask's,
// but the multi-table workload is left to the caller's Source (the
// task's Queries stay nil) and the single-table data is loaded from
// the catalog's corpus section when it has one.
func newDBTaskFrom(shared *Shared, cat catalog.Catalog, opts MLAOptions, seed int64) (*DBTask, error) {
	model := &Model{Shared: shared, Feat: featurize.NewFrom(cat, shared.Cfg.Feat, opts.Seed+7)}
	gen := workload.NewGeneratorFrom(cat, seed)
	var data []workload.TableWorkload
	if st, ok := cat.(singleTabler); ok {
		d, present, err := st.SingleTable()
		if err != nil {
			return nil, err
		}
		if present {
			data = d
		}
	}
	if data == nil {
		// No cached section (v1 corpus, or a backend that never stores
		// one): regenerate live. The draws are the prefix of the same
		// rng stream NewDBTask consumes, so the encoders come out
		// bitwise identical either way.
		data = gen.GenPretrainSet(opts.SingleTablePerTable, opts.Workload)
	}
	if _, err := model.Feat.PretrainAllFrom(data, opts.EncoderEpochs); err != nil {
		return nil, err
	}
	return &DBTask{DB: cat.DB(), Gen: gen, Model: model}, nil
}

// mlaLoss is the Algorithm 1 per-example loss: Equation 1 with the
// token-level join-order term, built against the example's own
// database task (its featurizer) and the shared modules.
func mlaLoss(t *DBTask, lq *workload.LabeledQuery) *ag.Value {
	m := t.Model
	cfg := m.Shared.Cfg
	rep := m.Represent(lq.Q, lq.Plan)
	loss := ag.Scale(m.CardLoss(rep, lq), cfg.WCard)
	loss = ag.Add(loss, ag.Scale(m.CostLoss(rep, lq), cfg.WCost))
	if cfg.WJo > 0 && len(lq.OptimalOrder) >= 2 {
		loss = ag.Add(loss, ag.Scale(m.JoinOrderTokenLoss(rep, lq.OptimalOrder), cfg.WJo))
	}
	return loss
}

// trainMLAJoint is Algorithm 1 lines 7–8 over any source backend: the
// per-DB sources are pooled under one deterministic global index
// order (task order, each task's example order — exactly how the
// in-memory path appended its pool), shuffled by seed, and streamed
// through the shared epoch iterator. Each minibatch's (db, example)
// pairs are fetched worker-parallel just before use and dropped
// after, so only minibatch-sized state is ever live.
func trainMLAJoint(shared *Shared, tasks []*DBTask, srcs []workload.Source, opts MLAOptions) (TrainStats, error) {
	pool := workload.Concat(srcs...)
	topts := TrainOptions{BatchSize: opts.BatchSize, Workers: opts.Workers}
	params := shared.Params()
	opt := nn.NewAdam(params, shared.Cfg.LR)
	bs := topts.batchSize()
	type sample struct {
		task *DBTask
		lq   *workload.LabeledQuery
	}
	cur := make([]sample, bs)
	ex := opts.exchanger()
	world, rank := ex.World()
	var st TrainStats
	after := recordInto(&st, opts.RecordTrajectory)
	ctl, err := prepareSnapshots(ex, opts.Snapshot, snapshotMeta{
		Kind:   "mla",
		Config: fmt.Sprintf("lr=%v trajectory=%v", shared.Cfg.LR, opts.RecordTrajectory),
		N:      pool.Len(), Epochs: opts.JointEpochs, BatchSize: bs, Seed: opts.Seed,
	}, opt, params, &st)
	if err != nil {
		return st, err
	}
	err = runEpochsCtl(ex, opt, params, pool.Len(), opts.JointEpochs, bs, topts.workers(), opts.Seed,
		func(batch []int) error {
			return parallel.ForErr(len(batch), 1, func(j int) error {
				if !dist.Owns(world, rank, j) {
					cur[j] = sample{}
					return nil
				}
				d, local, err := pool.Locate(batch[j])
				if err != nil {
					return err
				}
				lq, err := srcs[d].Example(local)
				cur[j] = sample{tasks[d], lq}
				return err
			})
		},
		func(slot, _ int) *ag.Value { return mlaLoss(cur[slot].task, cur[slot].lq) },
		after, ctl)
	return st, err
}

// GenMLAData generates one database's Algorithm 1 training data in
// the exact order NewDBTask consumes it: the per-table single-table
// workloads first (table order), then the multi-table labeled
// workload, all drawn from one rng stream seeded with the task seed
// of database dbIndex. Writing its output into a corpus v2 file
// (single-table section + examples) therefore yields an artifact that
// TrainMLAStream trains from bitwise-identically to a live TrainMLA
// run with the same options — the contract mtmlf-datagen
// -single-table and `make mla-smoke` build on.
func GenMLAData(cat catalog.Catalog, opts MLAOptions, dbIndex int) ([]workload.TableWorkload, []*workload.LabeledQuery) {
	gen := workload.NewGeneratorFrom(cat, opts.taskSeed(dbIndex))
	st := gen.GenPretrainSet(opts.SingleTablePerTable, opts.Workload)
	return st, gen.Generate(opts.QueriesPerDB, opts.Workload)
}

// NewDBTask prepares one database for MLA or transfer: analyzing it,
// pre-training its (F) encoders, and labeling a workload.
//
// Every database's featurizer is initialized from the SAME seed
// (derived from opts.Seed, not the per-DB seed): the provider ships a
// canonical encoder initialization alongside the pre-trained (S)+(T)
// modules, so that independently pre-trained per-table encoders live
// in roughly aligned embedding spaces. Without this, each DB's Enc_i
// would occupy an arbitrary rotation of feature space and the shared
// modules could not extrapolate across DBs.
func NewDBTask(shared *Shared, db *sqldb.DB, opts MLAOptions, seed int64) *DBTask {
	// One catalog per task: the generator and the featurizer share a
	// single ANALYZE pass over the database.
	cat := catalog.NewMemory(db)
	gen := workload.NewGeneratorFrom(cat, seed)
	model := &Model{Shared: shared, Feat: featurize.NewFrom(cat, shared.Cfg.Feat, opts.Seed+7)}
	model.Feat.PretrainAll(gen, opts.SingleTablePerTable, opts.EncoderEpochs, opts.Workload)
	return &DBTask{
		DB:      db,
		Gen:     gen,
		Model:   model,
		Queries: gen.Generate(opts.QueriesPerDB, opts.Workload),
	}
}

// FineTune adapts a pre-trained Shared to a new database's workload
// with a small number of examples — the user-side step of the paper's
// cloud workflow ("execute a small number of representative queries to
// fine-tune the pre-trained MTMLF").
func (m *Model) FineTune(examples []*workload.LabeledQuery, epochs int, lr float64, seed int64) TrainStats {
	return m.TrainJoint(examples, TrainOptions{Epochs: epochs, Seed: seed, LR: lr})
}
