package mtmlf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/corpus"
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

// runEpochs is the streaming epoch iterator the training loop runs
// on: a seeded shuffle over n example indices per epoch, cut into
// minibatches. For each minibatch it first calls prefetch (which may
// pull the examples from any workload.Source — in-memory slice or
// on-disk corpus — worker-parallel), then computes the minibatch
// data-parallel (build(slot) is a slot's loss graph), applies one Adam
// step through the gradient-exchange plane ex, and hands each slot's
// loss to after in slot order. Only minibatch-sized state is ever live, so the example
// universe can exceed RAM; and because the shuffle depends only on
// seed, the per-example math only on the example bits, and the
// reduction on slot order (never on worker count, process count, or
// goroutine scheduling), the trajectory is bitwise identical for every
// worker count, every fleet size, and every source backend.
//
// ctl positions the loop mid-run on resume, snapshots the training
// state at minibatch boundaries, and stops cooperatively on
// interruption (returning ErrInterrupted after a final snapshot).
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
func runEpochs(ex dist.Exchanger, opt *nn.Adam, params []*ag.Value, n, epochs, bs, nWorkers int, seed int64, ctl *epochCtl,
	prefetch func(batch []int) error,
	build func(slot int, ar *ag.Arena) *ag.Value,
	after func(loss float64)) error {
	rng := rand.New(rand.NewSource(seed))
	mb := newMinibatch(bs, nWorkers)
	batches := 0
	for ep := 0; ep < epochs; ep++ {
		order := rng.Perm(n)
		if ep < ctl.startEpoch {
			continue // consumed only to advance the rng stream
		}
		first := 0
		if ep == ctl.startEpoch {
			first = ctl.startOffset
		}
		for start := first; start < len(order); start += bs {
			end := min(start+bs, len(order))
			batch := order[start:end]
			if err := prefetch(batch); err != nil {
				return err
			}
			if err := runMinibatch(ex, opt, params, len(batch), mb, build); err != nil {
				return err
			}
			for i := range batch {
				after(mb.losses[i])
			}
			batches++
			// Normalize a finished epoch to {ep+1, 0} so the resume
			// point is unambiguous.
			epNext, offNext := ep, end
			if end >= len(order) {
				epNext, offNext = ep+1, 0
			}
			// A finished run snapshots too, so the file never lags the
			// trained model: a rerun resumes at the end, a no-op.
			done := epNext >= epochs && offNext == 0
			stop := !done && ctl.stopRequested(batches)
			if ctl.snap != nil && (done || stop || (ctl.every > 0 && batches%ctl.every == 0)) {
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

// AttachStats is where AttachFleet's time went: pre-training this
// rank's Own of the fleet's Pairs (database, table) pairs, and
// gathering the encoders the other ranks pre-trained (zero in one
// process).
type AttachStats struct {
	Own, Pairs       int
	Pretrain, Gather time.Duration
}

// recordInto returns the per-example stats hook the training loop
// passes to runEpochs — the 0.95/0.05 EMA running loss, the step
// count, and the optional bitwise trajectory.
func recordInto(st *TrainStats, trajectory bool) func(float64) {
	return func(loss float64) {
		st.FinalLoss = float64(0.95*st.FinalLoss) + float64(0.05*loss)
		st.Steps++
		if trajectory {
			st.Trajectory = append(st.Trajectory, loss)
		}
	}
}

// worker is one data-parallel worker's memory for training graphs
// (DESIGN.md §3, "Tape ownership (training)"). scratch holds one
// example's graph — its nodes, results and interior gradients — and
// is reset as soon as the example's loss has been read. slot holds the
// gradients the worker's examples leave in their sinks, and is reset
// when the next minibatch starts, after the exchange and the optimizer
// step have read them. Resetting once per minibatch instead would hold
// every graph of the minibatch at once.
type worker struct{ scratch, slot *ag.Arena }

// example runs one example on w: build(i, …)'s loss graph on the
// scratch arena, its backward pass into sink with the sink's buffers
// on the slot arena, and the scratch arena's reset once the loss is
// read. It is all a data-parallel worker does per slot.
func (w worker) example(build func(i int, ar *ag.Arena) *ag.Value, i int, sink ag.Grads) float64 {
	loss := build(i, w.scratch)
	loss.BackwardIntoArena(sink, w.slot)
	l := loss.Item()
	w.scratch.Reset()
	return l
}

// minibatch is what runMinibatch reuses from one minibatch to the
// next: the workers, one gradient sink per slot, and the slot and loss
// vectors the exchange reads (slots[i] is sinks[i] when this rank
// owns slot i, nil otherwise).
type minibatch struct {
	workers      []worker
	sinks, slots []ag.Grads
	losses       []float64
}

func newMinibatch(bs, nWorkers int) *minibatch {
	mb := &minibatch{
		workers: make([]worker, nWorkers),
		sinks:   make([]ag.Grads, bs),
		slots:   make([]ag.Grads, bs),
		losses:  make([]float64, bs),
	}
	for w := range mb.workers {
		mb.workers[w] = worker{ag.NewArena(), ag.NewArena()}
	}
	for i := range mb.sinks {
		mb.sinks[i] = ag.Grads{}
	}
	return mb
}

// backward computes per-example losses and gradients for the slots of
// an n-example minibatch that rank owns (a contiguous block of them,
// dist.Owns), leaving every other slot nil for AllReduce to fill in
// from the other ranks; at world 1 the rank owns every slot.
// The owned slots fan out over up to len(mb.workers) concurrent
// workers drawn from the shared bounded pool (so -workers stays a
// global concurrency bound even when training nests inside other
// parallel work). build(i, ar) must construct the i-th example's loss
// graph on ar; workers share the model parameters read-only and
// accumulate gradients into private per-example sinks (mb.slots[i]).
// Each worker takes the next owned slot from a shared counter when it
// finishes one, so a slow example holds up no other; which worker runs
// a slot only decides whose arenas hold its graph. The caller reduces
// the sinks in slot order, so the result is independent of both the
// worker count and goroutine scheduling.
func backward(world, rank, n int, mb *minibatch, build func(i int, ar *ag.Arena) *ag.Value) {
	clear(mb.slots)
	var next atomic.Int32
	fs := make([]func(), min(len(mb.workers), n))
	for w := range fs {
		fs[w] = func() {
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if !dist.Owns(n, world, rank, i) {
					continue
				}
				sink := mb.sinks[i]
				clear(sink)
				mb.losses[i] = mb.workers[w].example(build, i, sink)
				mb.slots[i] = sink
			}
		}
	}
	parallel.Do(fs...)
}

// runMinibatch computes gradients for one minibatch and applies one
// Adam step through the gradient-exchange plane: the rank's owned slots
// go backward into private buffers (backward), then ZeroGrad +
// AllReduce + Step. Every minibatch takes this path, one example or
// many, one process or a fleet: AllReduce folds the slots in slot order
// onto the parameters (dist.Local's fold in one process, the same fold
// passed from rank to rank over TCP).
func runMinibatch(ex dist.Exchanger, opt *nn.Adam, params []*ag.Value, n int, mb *minibatch, build func(i int, ar *ag.Arena) *ag.Value) error {
	for _, w := range mb.workers {
		w.slot.Reset() // the previous minibatch's Step has read them
	}
	world, rank := ex.World()
	backward(world, rank, n, mb, build)
	opt.ZeroGrad()
	if err := ex.AllReduce(params, mb.slots[:n], mb.losses[:n], 1/float64(n)); err != nil {
		return err
	}
	opt.Step()
	return nil
}

// exampleLoss builds the Equation 1 loss graph for one labeled query:
// the weighted card, cost and join-order terms, each left out when its
// weight is zero (the single-task ablations) and the join-order term
// also when the query has no order to learn. seqLevel switches that
// term from the token-level cross-entropy to the Equation 3
// sequence-level loss (Section 5). The graph is built on ar (nil: the
// heap).
func (m *Model) exampleLoss(ar *ag.Arena, lq *workload.LabeledQuery, seqLevel bool) *ag.Value {
	cfg := m.Shared.Cfg
	rep := m.representOn(ar, lq.Q, lq.Plan)
	terms := make([]*ag.Value, 0, 3)
	if cfg.WCard > 0 {
		terms = append(terms, ag.Scale(m.CardLoss(rep, lq), cfg.WCard))
	}
	if cfg.WCost > 0 {
		terms = append(terms, ag.Scale(m.CostLoss(rep, lq), cfg.WCost))
	}
	if cfg.WJo > 0 && len(lq.OptimalOrder) >= 2 {
		var jo *ag.Value
		if seqLevel {
			jo = m.JoinOrderSequenceLoss(rep, lq.Q, lq.OptimalOrder)
		} else {
			jo = m.JoinOrderTokenLoss(rep, lq.OptimalOrder)
		}
		terms = append(terms, ag.Scale(jo, cfg.WJo))
	}
	if len(terms) == 0 {
		return ag.Scalar(0)
	}
	loss := terms[0]
	for _, t := range terms[1:] {
		loss = ag.Add(loss, t)
	}
	return loss
}

// trainLoop is the one training loop: Equation 1 over a pool of
// (model, source) pairs — Algorithm 1 lines 7–8 over a fleet, or one
// database's joint training as a pool of one. models[i] and srcs[i]
// describe the same database, and every model shares shared's (S)+(T)
// modules, the only parameters the loop updates. The sources are
// pooled under one deterministic global index order (all of srcs[0],
// then srcs[1], …), shuffled by opts.Seed and streamed through
// runEpochs: each minibatch's examples that this rank owns are fetched
// worker-parallel just before use and dropped after, so the pooled
// workload is never materialized. kind and config name the run in its
// snapshots, which resume only into a run that names them the same.
func trainLoop(shared *Shared, models []*Model, srcs []workload.Source, opts TrainOptions, lr float64, kind, config string) (TrainStats, error) {
	pool := workload.Concat(srcs...)
	params := shared.Params()
	opt := nn.NewAdam(params, lr)
	bs := opts.batchSize()
	ex := opts.exchanger()
	world, rank := ex.World()
	var st TrainStats
	ctl, err := prepareSnapshots(ex, opts.Snapshot, snapshotMeta{
		Kind: kind, Config: config,
		N: pool.Len(), Epochs: opts.Epochs, BatchSize: bs, Seed: opts.Seed,
	}, opt, models[0], &st)
	if err != nil {
		return st, err
	}
	type sample struct {
		m  *Model
		lq *workload.LabeledQuery
	}
	cur := make([]sample, bs)
	err = runEpochs(ex, opt, params, pool.Len(), opts.Epochs, bs, opts.workers(), opts.Seed, ctl,
		func(batch []int) error {
			return parallel.ForErr(len(batch), func(j int) error {
				if !dist.Owns(len(batch), world, rank, j) {
					cur[j] = sample{}
					return nil
				}
				d, local, err := pool.Locate(batch[j])
				if err != nil {
					return err
				}
				lq, err := srcs[d].Example(local)
				cur[j] = sample{models[d], lq}
				return err
			})
		},
		func(slot int, ar *ag.Arena) *ag.Value {
			return cur[slot].m.exampleLoss(ar, cur[slot].lq, opts.SeqLevelLoss)
		},
		recordInto(&st, opts.RecordTrajectory))
	return st, err
}

// TrainJointStream trains the (S) and (T) modules jointly on all
// three tasks with the Equation 1 loss, over any workload.Source: a
// slice (workload.SliceSource), an on-disk corpus
// (corpus.Reader.Examples) or any future example producer. Per the
// paper, the gradient updates (S) and (T) only; the per-table encoders
// of the (F) module are pre-trained separately (Attach) and stay
// frozen here. Single-task ablations (MTMLF-CardEst etc.) are obtained
// by zeroing the other weights in Config; fine-tuning a pre-trained
// Shared on a new database's few queries is this loop at a lower
// TrainOptions.LR.
//
// Training is minibatch data-parallel: each minibatch's examples run
// forward/backward concurrently on TrainOptions.Workers workers
// against the shared parameters, each into a private gradient buffer;
// the buffers are then averaged in example order and applied as one
// Adam step. The trajectory depends on Seed and BatchSize but never
// on Workers, and the source only changes where bytes come from,
// never what the optimizer sees.
func (m *Model) TrainJointStream(src workload.Source, opts TrainOptions) (TrainStats, error) {
	lr := m.Shared.Cfg.LR
	if opts.LR > 0 {
		lr = opts.LR
	}
	return trainLoop(m.Shared, []*Model{m}, []workload.Source{src}, opts, lr,
		"joint", fmt.Sprintf("seqlevel=%v lr=%v trajectory=%v", opts.SeqLevelLoss, lr, opts.RecordTrajectory))
}

// ---------------------------------------------------------------------------
// Algorithm 1: cross-DB meta-learning (MLA)
// ---------------------------------------------------------------------------

// DBTask is one database of an Algorithm 1 fleet: its data, and a model
// whose (F) module is its own and whose (S)+(T) modules are shared.
type DBTask struct {
	DB    *sqldb.DB
	Model *Model // shares Shared with every other task
}

// MLAOptions controls the meta-learning run.
type MLAOptions struct {
	// QueriesPerDB is the multi-table workload size per database.
	QueriesPerDB int
	// SingleTablePerTable and EncoderEpochs control Enc_i pre-training
	// (Algorithm 1 line 4): the single-table queries GenMLAData labels
	// per table, and the epochs Attach pre-trains on them.
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
	// comparing MLA runs across source backends, worker counts and
	// fleet sizes.
	RecordTrajectory bool
	// Snapshot makes the joint loop (Algorithm 1 lines 7–8) durable,
	// with the same semantics as TrainOptions.Snapshot. Per-DB
	// preparation (encoder pre-training) is deterministic from the
	// seeds and re-runs on resume.
	Snapshot SnapshotOptions
	// Exchanger is the gradient-exchange plane, with the same semantics
	// as TrainOptions.Exchanger. Per-DB preparation is deterministic from
	// the seeds, so the ranks split it: each pre-trains its share of the
	// fleet's encoders, and they all-gather the results (attach).
	Exchanger dist.Exchanger
}

// taskSeed derives database i's task seed from the MLA master seed:
// the seed GenMLAData labels database i of a fleet from.
func (o MLAOptions) taskSeed(i int) int64 { return o.Seed + int64(i)*101 }

// TrainMLAStream is Algorithm 1. Each database arrives as a catalog
// with a single-table section plus a workload.Source of pre-labeled
// examples, cats[i] and srcs[i] describing the same database:
// corpus.Reader.Fleet gives both, from a corpus file or from one
// corpus.InMemory wrote. Every database's single-table section is read
// first, once, so a fleet that lacks one is refused before any encoder
// trains. Then every database is attached from what was read (lines
// 3–4, as Attach, with every encoder of the fleet handed out over the
// worker pool), and the shared (S)+(T) modules train on the pooled,
// shuffled examples (lines 7–8), streamed one minibatch at a time so
// the fleet workload is never materialized. The trajectory
// and the final shared parameters are bitwise identical at any worker
// count and fleet size. It returns the per-DB tasks, so callers can
// evaluate the shared modules on each database, and the joint loop's
// TrainStats. The error is Attach's, the epoch iterator's or a
// source's: a half-trained model must never be mistaken for a trained
// one. It is AttachFleet, then TrainFleet.
func TrainMLAStream(shared *Shared, cats []catalog.Catalog, srcs []workload.Source, opts MLAOptions) ([]*DBTask, TrainStats, error) {
	if len(cats) != len(srcs) {
		return nil, TrainStats{}, fmt.Errorf("mtmlf: %d catalogs but %d example sources", len(cats), len(srcs))
	}
	tasks, _, err := AttachFleet(shared, cats, opts)
	if err != nil {
		return nil, TrainStats{}, err
	}
	st, err := TrainFleet(tasks, srcs, opts)
	return tasks, st, err
}

// TrainFleet is Algorithm 1 lines 7–8: the shared (S)+(T) modules of
// the attached tasks train on the pooled, shuffled examples of srcs,
// srcs[i] being tasks[i]'s database.
func TrainFleet(tasks []*DBTask, srcs []workload.Source, opts MLAOptions) (TrainStats, error) {
	if len(tasks) != len(srcs) || len(tasks) == 0 {
		return TrainStats{}, fmt.Errorf("mtmlf: %d tasks but %d example sources", len(tasks), len(srcs))
	}
	models := make([]*Model, len(tasks))
	for i, t := range tasks {
		models[i] = t.Model
	}
	shared := models[0].Shared
	lr := shared.Cfg.LR
	return trainLoop(shared, models, srcs, TrainOptions{
		Epochs: opts.JointEpochs, Seed: opts.Seed, BatchSize: opts.BatchSize, Workers: opts.Workers,
		RecordTrajectory: opts.RecordTrajectory, Snapshot: opts.Snapshot, Exchanger: opts.Exchanger,
	}, lr, "mla", fmt.Sprintf("lr=%v trajectory=%v", lr, opts.RecordTrajectory))
}

// singleTabler is implemented by catalog backends that carry a
// database's encoder pre-training data: a corpus's single-table
// section.
type singleTabler interface {
	SingleTable() (data []workload.TableWorkload, ok bool, err error)
}

// Attach prepares one database for Algorithm 1 or for transfer (lines
// 3–4): a featurizer over cat whose encoders pre-train for
// opts.EncoderEpochs on the catalog's single-table section, then
// freeze (featurize.Featurizer.Freeze). A catalog
// without that section (catalog.Memory has none) is refused with an
// error naming the database: the library never draws training data
// behind its caller's back.
//
// Every database's featurizer is initialized from the SAME seed
// (derived from opts.Seed, not the per-DB seed): the provider ships a
// canonical encoder initialization alongside the pre-trained (S)+(T)
// modules, so that independently pre-trained per-table encoders live
// in roughly aligned embedding spaces. Without this, each DB's Enc_i
// would occupy an arbitrary rotation of feature space and the shared
// modules could not extrapolate across DBs.
func Attach(shared *Shared, cat catalog.Catalog, opts MLAOptions) (*DBTask, error) {
	tasks, _, err := AttachFleet(shared, []catalog.Catalog{cat}, opts)
	if err != nil {
		return nil, err
	}
	return tasks[0], nil
}

// AttachFleet is Attach over a fleet (Algorithm 1 lines 3–4 for every
// database at once), and where its time went. Every database's
// single-table section is read first, so a fleet that lacks one is
// refused before any featurizer is built; then every featurizer is
// built, database-parallel; then one featurize.Pretrain call trains
// this rank's share of the fleet's (database, table) pairs, handed out
// over the worker pool — every pair in one process, the pairs
// j ≡ rank (mod world) in a fleet, whose ranks then gather the rest
// (gatherEncoders). Last, every featurizer freezes.
func AttachFleet(shared *Shared, cats []catalog.Catalog, opts MLAOptions) ([]*DBTask, AttachStats, error) {
	var as AttachStats
	data, feats := make([][]workload.TableWorkload, len(cats)), make([]*featurize.Featurizer, len(cats))
	err := parallel.ForErr(len(cats), func(i int) (err error) {
		data[i], err = singleTable(cats[i])
		return err
	})
	if err != nil {
		return nil, as, err
	}
	parallel.Each(len(cats), func(i int) {
		feats[i] = featurize.NewFrom(cats[i], shared.Cfg.Feat, opts.Seed+7)
	})
	pairs, err := featurize.Pairs(feats, data)
	if err != nil {
		return nil, as, fmt.Errorf("mtmlf: attach: %w", err)
	}
	ex := TrainOptions{Exchanger: opts.Exchanger}.exchanger()
	world, rank := ex.World()
	own := share(pairs, world, rank)
	start := now()
	featurize.Pretrain(own, opts.EncoderEpochs)
	pretrained := now()
	as.Own, as.Pairs, as.Pretrain = len(own), len(pairs), pretrained.Sub(start)
	if world > 1 {
		err = gatherEncoders(ex, pairs)
		as.Gather = now().Sub(pretrained)
		if err != nil {
			return nil, as, err
		}
	}
	tasks := make([]*DBTask, len(cats))
	for i, c := range cats {
		feats[i].Freeze()
		tasks[i] = &DBTask{DB: c.DB(), Model: &Model{Shared: shared, Feat: feats[i]}}
	}
	return tasks, as, nil
}

// share returns rank's share of a world-rank fleet's pre-training
// pairs: the pairs j ≡ rank (mod world), in pair order. Dealing them out
// one at a time, not in blocks, spreads every database's tables over
// the ranks, so no rank gets one database's many tables.
func share(pairs []featurize.Pair, world, rank int) []featurize.Pair {
	var out []featurize.Pair
	for j := rank; j < len(pairs); j += world {
		out = append(out, pairs[j])
	}
	return out
}

// shareParams returns the encoder parameters of rank's share, in pair
// order: what rank sends in gatherEncoders.
func shareParams(pairs []featurize.Pair, world, rank int) (out []*ag.Value) {
	for _, p := range share(pairs, world, rank) {
		out = append(out, p.Params()...)
	}
	return out
}

// GatherError is how a rank-split attach fails when a rank cannot read
// another rank's encoders back into its own (gatherEncoders). Every
// rank of the fleet returns the same one, before the first joint step:
// no rank trains on an (F) that differs from the others'.
type GatherError struct {
	Rank   int    // the rank that could not read a payload
	Reason string // what it could not read, and why
}

func (e *GatherError) Error() string {
	return fmt.Sprintf("mtmlf: rank %d could not read the (F) encoders the other ranks pre-trained: %s", e.Rank, e.Reason)
}

// gatherEncoders completes a rank-split attach. Each rank sends its
// share's encoders as tensor records (nn.WriteParams: a CRC per tensor)
// and reads every other rank's share into its own encoders
// (nn.ParamReader, which checks each record's checksum, shape and
// finiteness before it writes), dropping each payload once read. A
// second all-gather then carries every rank's verdict — empty, or why
// it could not read a payload — so that all ranks fail together, with
// the same GatherError, or none does.
func gatherEncoders(ex dist.Exchanger, pairs []featurize.Pair) error {
	world, rank := ex.World()
	all, err := ex.AllGather(encodeShare(shareParams(pairs, world, rank)))
	if err != nil {
		return fmt.Errorf("mtmlf: gather (F) encoders: %w", err)
	}
	var verdict []byte
	for q, payload := range all {
		if q == rank {
			continue
		}
		params := shareParams(pairs, world, q)
		pr, err := nn.NewParamReader(bytes.NewReader(payload), "(F) gather", len(params))
		if err == nil {
			err = pr.ReadInto(params)
		}
		if err != nil {
			verdict = fmt.Appendf(nil, "rank %d's encoders: %v", q, err)
			break
		}
		all[q] = nil
	}
	verdicts, err := ex.AllGather(verdict)
	if err != nil {
		return fmt.Errorf("mtmlf: gather (F) verdicts: %w", err)
	}
	verdicts[rank] = verdict
	for q, v := range verdicts {
		if len(v) > 0 {
			return &GatherError{Rank: q, Reason: string(v)}
		}
	}
	return nil
}

// encodeShare returns params as tensor records, in one buffer sized up
// front: the share is megabytes, and a rank holds it while it gathers.
func encodeShare(params []*ag.Value) []byte {
	size := ckptio.SectionLen(binary.MaxVarintLen64)
	for _, p := range params {
		size += ckptio.SectionLen((1+len(p.T.Shape))*binary.MaxVarintLen64 + 8*p.T.Size())
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_ = nn.WriteParams(buf, params) // a bytes.Buffer write never fails
	return buf.Bytes()
}

// now is the clock of AttachStats: measurement only, never on the
// trajectory.
func now() time.Time {
	return time.Now() //mtmlf:allow:globalrand measurement only, never on the trajectory
}

// singleTable reads cat's single-table section, refusing a catalog
// without one.
func singleTable(cat catalog.Catalog) (data []workload.TableWorkload, err error) {
	st, ok := cat.(singleTabler)
	if ok {
		data, ok, err = st.SingleTable()
	}
	if err == nil && !ok {
		err = errors.New("no single-table section to pre-train its encoders from")
	}
	if err != nil {
		return nil, fmt.Errorf("mtmlf: attach database %q: %w", cat.Name(), err)
	}
	return data, nil
}

// GenMLAData generates one database's Algorithm 1 training data, all
// drawn from one rng stream seeded with the task seed of database
// dbIndex: the per-table single-table workloads first (table order),
// then the multi-table labeled workload. Written into a corpus (the
// single-table section + examples), it is what TrainMLAStream and
// Attach train from.
func GenMLAData(cat catalog.Catalog, opts MLAOptions, dbIndex int) ([]workload.TableWorkload, []*workload.LabeledQuery) {
	gen := workload.NewGeneratorFrom(cat, opts.taskSeed(dbIndex))
	st := gen.GenPretrainSet(opts.SingleTablePerTable, opts.Workload)
	return st, gen.Generate(opts.QueriesPerDB, opts.Workload)
}

// Label labels dbs[i] as database i of a fleet with GenMLAData,
// database-parallel on the worker pool, and returns them in order as
// corpus databases: what mtmlf-datagen writes to a file, and what an
// in-memory run opens with corpus.InMemory.
func Label(opts MLAOptions, dbs ...*sqldb.DB) []*corpus.Database {
	out := make([]*corpus.Database, len(dbs))
	parallel.For(len(dbs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st, ex := GenMLAData(catalog.NewMemory(dbs[i]), opts, i)
			out[i] = &corpus.Database{DB: dbs[i], Examples: ex, SingleTable: st}
		}
	})
	return out
}
