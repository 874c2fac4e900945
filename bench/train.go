package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/catalog"
	"mtmlf/internal/corpus"
	"mtmlf/internal/dist"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

const (
	trainBatch = 8
	// snapshotEvery is the cadence of the traced run that prices snapshots.
	snapshotEvery = 8
)

var coordinatorOn = regexp.MustCompile(`coordinator listening on (\S+)`)

// fleetCorpus writes the workload's corpus with the real mtmlf-datagen:
// three small databases with labelled examples and cached single-table
// sections. Row counts and join width are pinned because labelling time
// grows steeply with both (see README, known issues).
func (r *run) fleetCorpus(path string) (time.Duration, error) {
	queries, single := "160", "20"
	if r.opts.smoke {
		queries, single = "32", "5"
	}
	c, err := r.procs.start(r.ctx, nil, r.bin("mtmlf-datagen"), "-n", "3", "-seed", strconv.FormatInt(r.seed, 10),
		"-minrows", "200", "-maxrows", "600", "-maxtables", "3", "-queries", queries, "-single-table", single, "-out", path)
	if err != nil {
		return 0, err
	}
	err = c.wait()
	return time.Since(c.start), err
}

// trainLeg is one fleet-pretraining job run to completion by real
// mtmlf-train processes.
type trainLeg struct {
	wall  time.Duration // first exec to last exit
	steps int           // lines of -loss-out: example-steps trained
	rssMB float64       // peak of the trainer (rank 0 in a fleet)
	loss  []byte
	ckpt  []byte
}

func (r *run) runTrainLeg(name, corpusPath string, epochs, world, workers int) (*trainLeg, error) {
	args := func(tag string) []string {
		return []string{"-mla", "-corpus", corpusPath, "-epochs", strconv.Itoa(epochs), "-batch", strconv.Itoa(trainBatch),
			"-seed", strconv.FormatInt(r.seed, 10), "-workers", strconv.Itoa(workers),
			"-save", r.path(tag + ".ckpt"), "-loss-out", r.path(tag + ".loss")}
	}
	start := time.Now()
	var primary *child
	if world == 1 {
		c, err := r.procs.start(r.ctx, nil, r.bin("mtmlf-train"), args(name)...)
		if err != nil {
			return nil, err
		}
		if err := c.wait(); err != nil {
			return nil, err
		}
		primary = c
	} else {
		coord, err := r.procs.start(r.ctx, coordinatorOn, r.bin("mtmlf-train"),
			"-dist-coordinator", "127.0.0.1:0", "-dist-world", strconv.Itoa(world))
		if err != nil {
			return nil, err
		}
		addr, err := coord.await()
		if err != nil {
			return nil, err
		}
		ranks := make([]*child, world)
		for rank := range ranks {
			tag := name
			if rank > 0 {
				tag = fmt.Sprintf("%s-rank%d", name, rank) // never written: rank 0 owns the artifacts
			}
			ranks[rank], err = r.procs.start(r.ctx, nil, r.bin("mtmlf-train"), append(args(tag),
				"-dist-worker", addr, "-dist-rank", strconv.Itoa(rank), "-dist-world", strconv.Itoa(world))...)
			if err != nil {
				return nil, err
			}
		}
		for _, c := range append(ranks, coord) {
			if err := c.wait(); err != nil {
				return nil, err
			}
		}
		primary = ranks[0]
	}
	leg := &trainLeg{wall: time.Since(start), rssMB: primary.maxRSSMB()}
	var err error
	if leg.loss, err = os.ReadFile(r.path(name + ".loss")); err != nil {
		return nil, err
	}
	if leg.ckpt, err = os.ReadFile(r.path(name + ".ckpt")); err != nil {
		return nil, err
	}
	leg.steps = bytes.Count(leg.loss, []byte("\n"))
	if leg.steps == 0 {
		return nil, fmt.Errorf("leg %s trained no steps", name)
	}
	r.logf("leg %s: %d example-steps in %v, rss %.0f MB", name, leg.steps, leg.wall.Round(time.Millisecond), leg.rssMB)
	return leg, nil
}

// trainEpochs is the length of one job of the untraced run. A leg is
// several such jobs, not one long one: see runTrainFleet.
const trainEpochs = 2

func runTrainFleet(r *run) error {
	corpusPath := r.path("fleet.mtc")
	// One cycle, a job of every leg, takes about 8 s on the reference box.
	epochs, gens, cycles := trainEpochs, 7, max(2, int(math.Round(r.opts.seconds/8)))
	if r.opts.smoke {
		epochs, gens, cycles = 1, 2, 1
	}
	if r.opts.trace {
		t0 := time.Now()
		if _, err := r.fleetCorpus(corpusPath); err != nil {
			return err
		}
		r.fixture = time.Since(t0)
		return r.traceTrain(corpusPath)
	}

	// Set-up is building the corpus.
	var genS []float64
	for i := 0; i < gens; i++ {
		d, err := r.fleetCorpus(corpusPath)
		if err != nil {
			return err
		}
		genS = append(genS, d.Seconds())
	}
	r.set("setup_s", median(genS))

	// Every job trains the same 480 examples x epochs from the same seed,
	// so every topology must reach the same bits. The legs take turns, one
	// job each per cycle, and a leg reports its jobs' steady value (with
	// three jobs, nearly the best of them).
	legs := []struct {
		name           string
		world, workers int
	}{{"a", 1, 2}, {"b", 2, 1}, {"c", 1, 1}}
	rates, opMs := make([][]float64, len(legs)), make([][]float64, len(legs))
	var peaks []float64
	var first *trainLeg
	for cycle := 0; cycle < cycles; cycle++ {
		for i, l := range legs {
			leg, err := r.runTrainLeg(l.name, corpusPath, epochs, l.world, l.workers)
			if err != nil {
				return err
			}
			rates[i] = append(rates[i], float64(leg.steps)/leg.wall.Seconds())
			opMs[i] = append(opMs[i], ms(leg.wall)/float64(leg.steps))
			peaks = append(peaks, leg.rssMB)
			r.attempted += leg.steps
			if first == nil {
				first = leg
			} else if !bytes.Equal(leg.loss, first.loss) || !bytes.Equal(leg.ckpt, first.ckpt) {
				r.logf("oracle: a job of leg %s left a loss trajectory or checkpoint that differs from the first job's", l.name)
				r.failed += leg.steps
			}
		}
	}
	for i, l := range legs {
		r.set("rate_"+l.name, steady(rates[i], true))
		r.set("op_ms_"+l.name, steady(opMs[i], false))
	}
	r.set("peak_rss_mb", median(peaks))
	return nil
}

// callLog collects the intervals of concurrent calls.
type callLog struct {
	mu    sync.Mutex
	calls [][2]time.Time
}

// timedSource records every Example call of the source it wraps.
type timedSource struct {
	workload.Source
	log *callLog
}

func (s timedSource) Example(i int) (*workload.LabeledQuery, error) {
	t := time.Now()
	lq, err := s.Source.Example(i)
	end := time.Now()
	s.log.mu.Lock()
	s.log.calls = append(s.log.calls, [2]time.Time{t, end})
	s.log.mu.Unlock()
	return lq, err
}

// timedExchanger records every AllReduce of the exchanger it wraps (the
// trainer is one loop, so there is nothing to lock).
type timedExchanger struct {
	dist.Exchanger
	rounds [][2]time.Time
}

func (e *timedExchanger) AllReduce(params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) error {
	t := time.Now()
	err := e.Exchanger.AllReduce(params, slots, losses, scale)
	e.rounds = append(e.rounds, [2]time.Time{t, time.Now()})
	return err
}

// countingListener counts the bytes of every connection it accepts:
// what the coordinator reads is what the ranks sent up.
type countingListener struct {
	net.Listener
	up, down *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.up, l.down}, nil
}

type countingConn struct {
	net.Conn
	up, down *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.up.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.down.Add(int64(n))
	return n, err
}

// mlaJob is one in-process Algorithm 1 run over the corpus file, set up
// the way mtmlf-train -mla sets it up.
type mlaJob struct {
	wall  time.Duration
	prep  time.Duration // call to first example fetched
	stats mtmlf.TrainStats
	tasks []*mtmlf.DBTask
	fetch *callLog
	ex    *timedExchanger
	start time.Time
}

// runMLA trains one epoch in-process. With timed set, the sources and
// the exchanger are wrapped in the recording decorators.
func (r *run) runMLA(corpusPath string, ex dist.Exchanger, snap mtmlf.SnapshotOptions, timed bool) (*mlaJob, error) {
	rd, err := corpus.Open(corpusPath)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	job := &mlaJob{fetch: &callLog{}}
	cats := make([]catalog.Catalog, rd.NumDBs())
	srcs := make([]workload.Source, rd.NumDBs())
	for i := range cats {
		c, err := rd.Catalog(i)
		if err != nil {
			return nil, err
		}
		cats[i], srcs[i] = c, c.Examples()
		if timed {
			srcs[i] = timedSource{srcs[i], job.fetch}
		}
	}
	if ex == nil {
		ex = dist.Local()
	}
	if timed {
		job.ex = &timedExchanger{Exchanger: ex}
		ex = job.ex
	}
	meta := rd.Meta()
	shared := mtmlf.NewShared(mtmlf.DefaultConfig(), r.seed)
	job.start = time.Now()
	job.tasks, job.stats, err = mtmlf.TrainMLAStream(shared, cats, srcs, mtmlf.MLAOptions{
		SingleTablePerTable: meta.SingleTablePerTable, EncoderEpochs: 2, JointEpochs: 1,
		Workload: meta.MLAWorkload, Seed: meta.Seed, BatchSize: trainBatch, Workers: 2,
		RecordTrajectory: true, Snapshot: snap, Exchanger: ex,
	})
	job.wall = time.Since(job.start)
	return job, err
}

// spans turns a timed job's recordings into spans. A step runs from one
// AllReduce entry to the next, so it holds the previous exchange, the
// optimizer step, this minibatch's fetch and its forward/backward; the
// exchange and the fetch are its children and the rest is its self
// time, which makes fetch + compute + allreduce equal the step by
// construction. The first, partial step is left out.
func (r *run) spans(job *mlaJob, suffix string) {
	calls := job.fetch.calls
	slices.SortFunc(calls, func(a, b [2]time.Time) int { return a[0].Compare(b[0]) })
	job.prep = calls[0][0].Sub(job.start)
	next := 0
	for k := 1; k < len(job.ex.rounds); k++ {
		prev, cur := job.ex.rounds[k-1], job.ex.rounds[k]
		step := r.tr.add("mtmlf.step"+suffix, 0, k, prev[0], cur[0])
		r.tr.add("dist.allreduce"+suffix, step, k, prev[0], prev[1])
		for next < len(calls) && calls[next][0].Before(prev[1]) {
			next++
		}
		first, last := next, time.Time{}
		for next < len(calls) && calls[next][0].Before(cur[0]) {
			if calls[next][1].After(last) {
				last = calls[next][1]
			}
			next++
		}
		if next > first {
			r.tr.add("workload.fetch"+suffix, step, k, calls[first][0], last)
		}
	}
}

// traceTrain is the traced run of train_fleet: one epoch in-process,
// plain, then with the decorators, then with snapshots, then as a
// 2-rank TCP fleet behind a counting listener, and direct calls for the
// pieces of a step that no decorator can reach.
func (r *run) traceTrain(corpusPath string) error {
	plain, err := r.runMLA(corpusPath, nil, mtmlf.SnapshotOptions{}, false)
	if err != nil {
		return err
	}
	w1, err := r.runMLA(corpusPath, nil, mtmlf.SnapshotOptions{}, true)
	if err != nil {
		return err
	}
	r.spans(w1, "")
	r.set("bench.trace_overhead_share", float64(w1.wall-plain.wall)/float64(plain.wall))

	snapPath := r.path("train.snap")
	snapped, err := r.runMLA(corpusPath, nil, mtmlf.SnapshotOptions{Path: snapPath, Every: snapshotEvery}, false)
	if err != nil {
		return err
	}
	fi, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	rounds := len(w1.ex.rounds)
	// No snapshot is taken after the last minibatch.
	r.set("mtmlf.snapshot_stall_ms", ms(snapped.wall-plain.wall)/float64(max(1, (rounds-1)/snapshotEvery)))
	r.set("mtmlf.snapshot_bytes", float64(fi.Size()))

	w2, up, down, err := r.runFleet(corpusPath)
	if err != nil {
		return err
	}
	r.spans(w2, ".w2")

	// Every run trained the same examples from the same seeds, so their
	// trajectories must agree to the bit.
	r.attempted = 4 * plain.stats.Steps
	for _, j := range []*mlaJob{w1, snapped, w2} {
		if !slices.Equal(j.stats.Trajectory, plain.stats.Trajectory) {
			r.logf("oracle: an in-process run's loss trajectory differs from the plain run's")
			r.failed += j.stats.Steps
		}
	}

	total, self := r.tr.times()
	for _, s := range []string{"", ".w2"} {
		r.set("mtmlf.step_ms"+s, medianUs(total["mtmlf.step"+s])/1000)
		r.set("mtmlf.compute_us_per_step"+s, medianUs(self["mtmlf.step"+s]))
		r.set("dist.allreduce_us"+s, medianUs(total["dist.allreduce"+s]))
		r.set("workload.fetch_us"+s, medianUs(total["workload.fetch"+s]))
	}
	r.set("workload.fetch_calls", float64(len(w1.fetch.calls)))
	r.set("mtmlf.mla_prep_s", w1.prep.Seconds())
	r.set("dist.rounds", float64(rounds))
	r.set("dist.wire_bytes_up_per_round", float64(up)/float64(rounds))
	r.set("dist.wire_bytes_down_per_round", float64(down)/float64(rounds))
	// On one shared box this is a regression signal, not a scaling claim.
	r.set("dist.scaling_ratio", w1.wall.Seconds()/w2.wall.Seconds())
	r.logf("trace: w1 wall %v = prep %v + %d rounds x step %.2f ms (%.0f%%); w2 wall %v",
		w1.wall.Round(time.Millisecond), w1.prep.Round(time.Millisecond), rounds, r.metrics["mtmlf.step_ms"],
		100*(w1.prep.Seconds()+float64(rounds)*r.metrics["mtmlf.step_ms"]/1000)/w1.wall.Seconds(), w2.wall.Round(time.Millisecond))

	return r.stepPieces(corpusPath, w1)
}

// runFleet trains the epoch as two in-process ranks over loopback TCP,
// the coordinator behind a counting listener; rank 0 is the timed one.
func (r *run) runFleet(corpusPath string) (job *mlaJob, up, down int64, err error) {
	const world = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	var nUp, nDown atomic.Int64
	coord := dist.NewCoordinator(countingListener{ln, &nUp, &nDown}, world)
	errs := make(chan error, world+1) // one send per goroutine below
	go func() { errs <- coord.Run() }()
	jobs := make([]*mlaJob, world)
	for rank := range jobs {
		go func() {
			ex, err := dist.DialRetry(coord.Addr(), rank, world, "bench", 100, 20*time.Millisecond)
			if err == nil {
				jobs[rank], err = r.runMLA(corpusPath, ex, mtmlf.SnapshotOptions{}, rank == 0)
				err = errors.Join(err, ex.Close())
			}
			errs <- err
		}()
	}
	for i := 0; i < world+1; i++ {
		err = errors.Join(err, <-errs)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("in-process fleet: %w", err)
	}
	return jobs[0], nUp.Load(), nDown.Load(), nil
}

// stepPieces times, by direct calls on the trained model, the pieces of
// a training step that sit inside the trainer's loop: the grad-mode
// forward, the slot-ordered gradient reduction over one minibatch, the
// Adam step, and the shared-checkpoint save.
func (r *run) stepPieces(corpusPath string, job *mlaJob) error {
	rd, err := corpus.Open(corpusPath)
	if err != nil {
		return err
	}
	defer rd.Close()
	cat, err := rd.Catalog(0)
	if err != nil {
		return err
	}
	examples := cat.Examples()
	m := job.tasks[0].Model
	cfg := m.Shared.Cfg
	params := m.Shared.Params()
	opt := nn.NewAdam(params, cfg.LR)
	var forward, reduce, adam []time.Duration
	for round := 0; round < 20; round++ {
		slots := make([]ag.Grads, trainBatch)
		for i := range slots {
			lq, err := examples.Example((round*trainBatch + i) % examples.Len())
			if err != nil {
				return err
			}
			t := time.Now()
			rep := m.Represent(lq.Q, lq.Plan)
			m.PredictLogCards(rep)
			m.PredictLogCosts(rep)
			forward = append(forward, time.Since(t))
			loss := ag.Add(ag.Scale(m.CardLoss(rep, lq), cfg.WCard), ag.Scale(m.CostLoss(rep, lq), cfg.WCost))
			slots[i] = ag.Grads{}
			loss.BackwardInto(slots[i])
		}
		opt.ZeroGrad()
		t := time.Now()
		ag.ReduceGrads(params, slots, 1/float64(trainBatch))
		reduce = append(reduce, time.Since(t))
		t = time.Now()
		opt.Step()
		adam = append(adam, time.Since(t))
	}
	r.set("mtmlf.forward_us", medianUs(forward))
	r.set("ag.reduce_us", medianUs(reduce))
	r.set("nn.adam_step_us", medianUs(adam))
	t := time.Now()
	if err := mtmlf.SaveSharedFile(r.path("shared.ckpt"), m); err != nil {
		return err
	}
	r.set("mtmlf.save_ms", ms(time.Since(t)))
	return nil
}
