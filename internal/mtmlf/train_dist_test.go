package mtmlf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/datagen"
	"mtmlf/internal/dist"
	"mtmlf/internal/featurize"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// startDistCoordinator boots a loopback coordinator for one in-process
// fleet test and returns its dial address plus Run's error channel.
func startDistCoordinator(t *testing.T, world int) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dist.NewCoordinator(ln, world)
	errc := make(chan error, 1)
	go func() { errc <- c.Run() }()
	return c.Addr(), errc
}

func waitDistCoordinator(t *testing.T, errc chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("coordinator did not exit")
	}
}

// runFleet runs one training closure per rank concurrently — each rank
// with its own exchanger, its own model, its own everything, exactly
// like separate processes — and fails the test on any rank or
// coordinator error.
func runFleet(t *testing.T, world int, fingerprint string, train func(rank int, ex dist.Exchanger) error) {
	t.Helper()
	addr, coordErr := startDistCoordinator(t, world)
	var wg sync.WaitGroup
	rankErr := make(chan error, world)
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ex, err := dist.DialRetry(addr, rank, world, fingerprint, 100, 20*time.Millisecond)
			if err != nil {
				rankErr <- fmt.Errorf("rank %d: %w", rank, err)
				return
			}
			defer ex.Close()
			if err := train(rank, ex); err != nil {
				rankErr <- fmt.Errorf("rank %d: %w", rank, err)
			}
		}(rank)
	}
	wg.Wait()
	close(rankErr)
	for err := range rankErr {
		t.Fatal(err)
	}
	waitDistCoordinator(t, coordErr)
}

// trainJointDist runs the trainWithWorkers setup under an explicit
// exchanger, recording the trajectory.
func trainJointDist(batch, workers int, ex dist.Exchanger) (*Model, TrainStats, error) {
	return trainJointDistSnap(batch, workers, ex, SnapshotOptions{})
}

// trainJointDistSnap is trainJointDist with snapshots.
func trainJointDistSnap(batch, workers int, ex dist.Exchanger, snap SnapshotOptions) (*Model, TrainStats, error) {
	db := tinyDB()
	m := NewModel(tinyConfig(), db, 7)
	gen := workload.NewGenerator(db, 8)
	cfg := workload.DefaultConfig()
	cfg.MaxTables = 3
	if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, cfg), 1); err != nil {
		return nil, TrainStats{}, err
	}
	qs := gen.Generate(10, cfg)
	st, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{
		Epochs: 2, Seed: 9, BatchSize: batch, Workers: workers,
		RecordTrajectory: true, Exchanger: ex, Snapshot: snap,
	})
	return m, st, err
}

func sameTrajectory(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkSameRun(t *testing.T, tag string, ref *Model, refSt TrainStats, got *Model, gotSt TrainStats) {
	t.Helper()
	if gotSt.Steps != refSt.Steps || gotSt.FinalLoss != refSt.FinalLoss {
		t.Fatalf("%s: stats {steps %d, loss %v} != reference {steps %d, loss %v}",
			tag, gotSt.Steps, gotSt.FinalLoss, refSt.Steps, refSt.FinalLoss)
	}
	if !sameTrajectory(refSt.Trajectory, gotSt.Trajectory) {
		t.Fatalf("%s: loss trajectory differs from reference", tag)
	}
	pa, pb := ref.Shared.Params(), got.Shared.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].T, pb[i].T, 0) {
			t.Fatalf("%s: shared parameter %d differs from reference", tag, i)
		}
	}
}

// TestTrainJointDistTopologyGrid is the tentpole's bitwise contract on
// the joint loop: single-process runs at 1 and 4 workers, and 2- and
// 3-rank TCP fleets (every rank asserted), must all produce the same
// loss trajectory and final parameters as float bits.
func TestTrainJointDistTopologyGrid(t *testing.T) {
	const batch = 4
	ref, refSt, err := trainJointDist(batch, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4} {
		m, st, err := trainJointDist(batch, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSameRun(t, fmt.Sprintf("workers=%d", workers), ref, refSt, m, st)
	}
	for _, world := range []int{2, 3} {
		world := world
		t.Run(fmt.Sprintf("world%d", world), func(t *testing.T) {
			models := make([]*Model, world)
			stats := make([]TrainStats, world)
			runFleet(t, world, "joint-grid", func(rank int, ex dist.Exchanger) error {
				m, st, err := trainJointDist(batch, 2, ex)
				models[rank], stats[rank] = m, st
				return err
			})
			for rank := 0; rank < world; rank++ {
				checkSameRun(t, fmt.Sprintf("world=%d rank=%d", world, rank), ref, refSt, models[rank], stats[rank])
			}
		})
	}
}

// TestTrainMLADistTopologyGrid extends the bitwise topology contract
// to Algorithm 1 fleet pretraining over TrainMLAStream — the run the
// distributed mode exists for. Single-process at 1 and 4 workers and
// 2- and 3-rank TCP fleets, whose ranks split the (F) pre-training,
// must agree on the trajectory, the final shared parameters and every
// featurizer's parameters bit for bit.
func TestTrainMLADistTopologyGrid(t *testing.T) {
	type result struct {
		shared *Shared
		tasks  []*DBTask
		st     TrainStats
	}
	run := func(workers int, ex dist.Exchanger) (result, error) {
		opts := mlaFixtureOpts()
		opts.Workers = workers
		opts.Exchanger = ex
		cats, srcs := mlaCorpus(opts)
		shared := NewShared(tinyConfig(), 20)
		tasks, st, err := TrainMLAStream(shared, cats, srcs, opts)
		return result{shared, tasks, st}, err
	}
	ref, err := run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, got result) {
		t.Helper()
		assertMLAEqual(t, tag, ref.shared, got.shared, ref.tasks, got.tasks, ref.st, got.st)
	}
	par, err := run(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("workers=4", par)
	for _, world := range []int{2, 3} {
		t.Run(fmt.Sprintf("world%d", world), func(t *testing.T) {
			got := make([]result, world)
			runFleet(t, world, "mla-grid", func(rank int, ex dist.Exchanger) (err error) {
				got[rank], err = run(2, ex)
				return err
			})
			for rank := 0; rank < world; rank++ {
				check(fmt.Sprintf("world=%d rank=%d", world, rank), got[rank])
			}
		})
	}
}

// featBits returns the bits of every featurizer parameter of tasks, in
// task and parameter order.
func featBits(tasks []*DBTask) []uint64 {
	var out []uint64
	for _, task := range tasks {
		for _, p := range task.Model.Feat.Params() {
			for _, x := range p.T.Data {
				out = append(out, math.Float64bits(x))
			}
		}
	}
	return out
}

// fleetOf returns n databases of tables tables each.
func fleetOf(seed int64, n, tables int) []*sqldb.DB {
	cfg := datagen.DefaultConfig()
	cfg.MinTables, cfg.MaxTables = tables, tables
	cfg.MinRows, cfg.MaxRows = 60, 120
	return datagen.GenerateFleet(seed, n, cfg)
}

// TestAttachFleetRankSplit: the ranks of a 2- and a 3-rank fleet each
// pre-train their share of the (database, table) pairs and gather the
// rest, and every rank ends with the one-process run's (F) parameters,
// bit for bit — on an even and an odd pair count, and on a fleet with
// fewer pairs than ranks, where a rank pre-trains nothing.
func TestAttachFleetRankSplit(t *testing.T) {
	for _, fc := range []struct {
		name  string
		dbs   func() []*sqldb.DB
		pairs int
	}{
		{"two-dbs", func() []*sqldb.DB { return fleetOf(31, 2, 4) }, 8},
		{"odd", func() []*sqldb.DB { return fleetOf(32, 1, 5) }, 5},
		{"fewer-pairs-than-ranks", func() []*sqldb.DB { return fleetOf(33, 1, 2) }, 2},
	} {
		t.Run(fc.name, func(t *testing.T) {
			opts := mlaFixtureOpts()
			attach := func(ex dist.Exchanger) ([]*DBTask, AttachStats, error) {
				opts := opts
				opts.Exchanger = ex
				cats, _ := mlaCorpusOf(opts, fc.dbs())
				return AttachFleet(NewShared(tinyConfig(), 20), cats, opts)
			}
			ref, as, err := attach(nil)
			if err != nil {
				t.Fatal(err)
			}
			if as.Pairs != fc.pairs || as.Own != fc.pairs || as.Gather != 0 {
				t.Fatalf("one process: %+v, want all %d pairs and no gather", as, fc.pairs)
			}
			want := featBits(ref)
			for _, world := range []int{2, 3} {
				got := make([][]*DBTask, world)
				stats := make([]AttachStats, world)
				runFleet(t, world, "attach-split", func(rank int, ex dist.Exchanger) (err error) {
					got[rank], stats[rank], err = attach(ex)
					return err
				})
				own := 0
				for rank := range got {
					if !slices.Equal(featBits(got[rank]), want) {
						t.Fatalf("world %d rank %d: (F) parameters differ from the one-process run's", world, rank)
					}
					for _, task := range got[rank] {
						if !task.Model.Feat.Frozen() {
							t.Fatalf("world %d rank %d: a gathered featurizer is not frozen", world, rank)
						}
					}
					if s := stats[rank]; s.Pairs != fc.pairs || s.Own != len(share(make([]featurize.Pair, fc.pairs), world, rank)) {
						t.Fatalf("world %d rank %d: %+v", world, rank, s)
					}
					own += stats[rank].Own
				}
				if own != fc.pairs {
					t.Fatalf("world %d: the ranks pre-trained %d pairs between them, want %d", world, own, fc.pairs)
				}
			}
		})
	}
}

// TestTrainJointDistResume: a 2-rank fleet is interrupted mid-epoch
// (deterministically, on every rank at the same minibatch boundary),
// only rank 0 holds a snapshot file, and a restarted fleet — rank 0
// broadcasting its snapshot to rank 1 at startup — must finish with
// the parameters and stats of the run that was never interrupted.
func TestTrainJointDistResume(t *testing.T) {
	const world, batch = 2, 4
	ref, refSt, err := trainJointDist(batch, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "dist.snap")
	trainRank := func(ex dist.Exchanger, interruptAfter int) (*Model, TrainStats, error) {
		db := tinyDB()
		m := NewModel(tinyConfig(), db, 7)
		gen := workload.NewGenerator(db, 8)
		cfg := workload.DefaultConfig()
		cfg.MaxTables = 3
		if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, cfg), 1); err != nil {
			return nil, TrainStats{}, err
		}
		qs := gen.Generate(10, cfg)
		st, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{
			Epochs: 2, Seed: 9, BatchSize: batch, Workers: 2,
			RecordTrajectory: true, Exchanger: ex,
			Snapshot: SnapshotOptions{Path: snapPath, Resume: true, InterruptAfter: interruptAfter},
		})
		return m, st, err
	}
	// Leg 1: every rank stops after 2 minibatches; rank 0 snapshots.
	runFleet(t, world, "joint-resume", func(rank int, ex dist.Exchanger) error {
		_, _, err := trainRank(ex, 2)
		if err != ErrInterrupted {
			return fmt.Errorf("leg 1 returned %v, want ErrInterrupted", err)
		}
		return nil
	})
	// Leg 2: a fresh fleet resumes from rank 0's snapshot and finishes.
	models := make([]*Model, world)
	stats := make([]TrainStats, world)
	runFleet(t, world, "joint-resume", func(rank int, ex dist.Exchanger) error {
		m, st, err := trainRank(ex, 0)
		models[rank], stats[rank] = m, st
		return err
	})
	for rank := 0; rank < world; rank++ {
		checkSameRun(t, fmt.Sprintf("resumed rank=%d", rank), ref, refSt, models[rank], stats[rank])
	}
}

// tearMidFrame makes rank's links to its peers tear the nth write of
// more than 4 KiB the rank makes — a gradient frame, or a gather frame's
// payload — halfway through, and close: a process dying in the middle of
// a frame. Smaller writes (a gather's header and checksum, the resume
// broadcast's empty half) pass through uncounted. The hook is removed
// when the test ends.
func tearMidFrame(t *testing.T, rank, nth int) {
	var big atomic.Int32
	dist.PeerLink = func(r, _ int, c net.Conn) net.Conn {
		if r != rank {
			return c
		}
		return &tearConn{Conn: c, big: &big, nth: int32(nth)}
	}
	t.Cleanup(func() { dist.PeerLink = nil })
}

// tearConn is one of tearMidFrame's links; big counts the large writes
// over all of the rank's links.
type tearConn struct {
	net.Conn
	big *atomic.Int32
	nth int32
}

func (c *tearConn) Write(p []byte) (int, error) {
	if len(p) <= 4096 || c.big.Add(1) != c.nth {
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:len(p)/2])
	c.Conn.Close()
	return n, errors.New("link torn mid-frame")
}

// TestTrainJointDistRankDiesMidFrame: rank 1's link to rank 0 is cut in
// the middle of its third gradient frame while rank 0 snapshots every
// step.
// Every process must come down with an error, promptly, and a fresh
// fleet resuming from rank 0's snapshot must finish with the parameters
// and stats of the run that was never interrupted: a frame torn on the
// wire costs a restart, never a bit.
func TestTrainJointDistRankDiesMidFrame(t *testing.T) {
	const world, batch = 2, 4
	ref, refSt, err := trainJointDist(batch, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := SnapshotOptions{Path: filepath.Join(t.TempDir(), "dist.snap"), Resume: true, Every: 1}
	trainRank := func(ex dist.Exchanger) (*Model, TrainStats, error) {
		return trainJointDistSnap(batch, 2, ex, snap)
	}
	// Leg 1: the fleet dies with rank 1's third gradient frame.
	addr, coordErr := startDistCoordinator(t, world)
	tearMidFrame(t, 1, 3)
	rankErr := make(chan error, world)
	for rank := 0; rank < world; rank++ {
		go func() {
			ex, err := dist.DialRetry(addr, rank, world, "joint-cut", 100, 20*time.Millisecond)
			if err == nil {
				_, _, err = trainRank(ex)
				ex.Close()
			}
			rankErr <- err
		}()
	}
	for i := 0; i < world+1; i++ {
		select {
		case err := <-rankErr:
			t.Logf("rank: %v", err)
			if err == nil || err == ErrInterrupted {
				t.Fatalf("a rank of the cut fleet returned %v, want an exchange error", err)
			}
		case err := <-coordErr:
			t.Logf("coordinator: %v", err)
			if err == nil {
				t.Fatal("the coordinator of the cut fleet exited cleanly")
			}
		case <-time.After(time.Minute):
			t.Fatal("the cut fleet did not come down")
		}
	}
	// Leg 2: a fresh fleet resumes from rank 0's snapshot and finishes.
	dist.PeerLink = nil
	models := make([]*Model, world)
	stats := make([]TrainStats, world)
	runFleet(t, world, "joint-cut", func(rank int, ex dist.Exchanger) error {
		m, st, err := trainRank(ex)
		models[rank], stats[rank] = m, st
		return err
	})
	for rank := 0; rank < world; rank++ {
		checkSameRun(t, fmt.Sprintf("resumed rank=%d", rank), ref, refSt, models[rank], stats[rank])
	}
}

// countingSource wraps a Source and records how many times each
// example index is fetched. It deliberately hides the SliceSource
// fast path so fetches go through Example, like a corpus would.
type countingSource struct {
	src workload.Source
	mu  sync.Mutex
	got map[int]int
}

func (c *countingSource) Len() int { return c.src.Len() }

func (c *countingSource) Example(i int) (*workload.LabeledQuery, error) {
	c.mu.Lock()
	c.got[i]++
	c.mu.Unlock()
	return c.src.Example(i)
}

// TestTrainJointDistReadsOnlyOwnedSlice: in a fleet, each rank must
// fetch only the examples of the slots it owns — fleet-wide every
// example is read exactly once per epoch, with no rank reading the
// whole stream. This is the I/O half of sharded fleet pretraining.
func TestTrainJointDistReadsOnlyOwnedSlice(t *testing.T) {
	const world, batch, epochs, nq = 2, 4, 2, 10
	counters := make([]*countingSource, world)
	runFleet(t, world, "owned-slice", func(rank int, ex dist.Exchanger) error {
		db := tinyDB()
		m := NewModel(tinyConfig(), db, 7)
		gen := workload.NewGenerator(db, 8)
		cfg := workload.DefaultConfig()
		cfg.MaxTables = 3
		if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, cfg), 1); err != nil {
			return err
		}
		qs := gen.Generate(nq, cfg)
		cs := &countingSource{src: workload.SliceSource(qs), got: map[int]int{}}
		counters[rank] = cs
		_, err := m.TrainJointStream(cs, TrainOptions{
			Epochs: epochs, Seed: 9, BatchSize: batch, Workers: 2, Exchanger: ex,
		})
		return err
	})
	perIndex := make([]int, nq)
	for rank, cs := range counters {
		total := 0
		for i, c := range cs.got {
			perIndex[i] += c
			total += c
		}
		if total == 0 || total >= nq*epochs {
			t.Fatalf("rank %d fetched %d examples; want a strict share of the %d fleet-wide reads",
				rank, total, nq*epochs)
		}
	}
	for i, c := range perIndex {
		if c != epochs {
			t.Fatalf("example %d fetched %d times fleet-wide, want once per epoch (%d)", i, c, epochs)
		}
	}
}

// tamperGather is an exchanger whose first AllGather — a rank-split
// attach's encoder gather — sends what tamper makes of the payload, in
// the style of ckptio.FailingWriter: one rank's (F) bytes damaged
// before they reach the wire, where no frame checksum can see it.
type tamperGather struct {
	dist.Exchanger
	tamper func([]byte) []byte
	done   bool
}

func (e *tamperGather) AllGather(payload []byte) ([][]byte, error) {
	if !e.done {
		e.done = true
		payload = e.tamper(bytes.Clone(payload))
	}
	return e.Exchanger.AllGather(payload)
}

// reseal rewrites the first tensor record of a gather payload with edit
// applied to its body (shape prefix and elements) and a fresh checksum:
// damage that only the record's own checks can catch.
func reseal(t *testing.T, payload []byte, edit func(rec []byte)) []byte {
	t.Helper()
	r := bytes.NewReader(payload)
	var out bytes.Buffer
	for i := 0; r.Len() > 0; i++ {
		rec, err := ckptio.ReadSection(r, "test")
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 { // frame 0 is the tensor count
			edit(rec)
		}
		if err := ckptio.WriteSection(&out, rec); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestAttachFleetRefusesBadGather: when rank 1's encoders reach rank 0
// truncated, failing a record's checksum, with a wrong shape or holding
// a NaN, every rank fails with the same *GatherError naming rank 0, and
// none takes a joint step: no example is trained and the shared modules
// keep their initial bits. A frame torn on the wire mid-gather also
// brings every process down before a step.
func TestAttachFleetRefusesBadGather(t *testing.T) {
	const world = 2
	initial := NewShared(tinyConfig(), 20).Params()
	train := func(ex dist.Exchanger) (*Shared, TrainStats, error) {
		opts := mlaFixtureOpts()
		opts.Exchanger = ex
		cats, srcs := mlaCorpus(opts)
		shared := NewShared(tinyConfig(), 20)
		_, st, err := TrainMLAStream(shared, cats, srcs, opts)
		return shared, st, err
	}
	for _, tc := range []struct {
		name   string
		tamper func([]byte) []byte
	}{
		{"truncated", func(p []byte) []byte { return p[:len(p)/2] }},
		{"bad-crc", func(p []byte) []byte { p[len(p)/2] ^= 0x10; return p }},
		{"wrong-shape", func(p []byte) []byte {
			return reseal(t, p, func(rec []byte) { rec[1], rec[2] = rec[2], rec[1] }) // [1, d] → [d, 1]
		}},
		{"non-finite", func(p []byte) []byte {
			return reseal(t, p, func(rec []byte) {
				binary.LittleEndian.PutUint64(rec[len(rec)-8:], math.Float64bits(math.NaN()))
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, coordErr := startDistCoordinator(t, world)
			errs := make([]error, world)
			shareds := make([]*Shared, world)
			stats := make([]TrainStats, world)
			var wg sync.WaitGroup
			for rank := range world {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ex, err := dist.DialRetry(addr, rank, world, "bad-gather", 100, 20*time.Millisecond)
					if err != nil {
						errs[rank] = err
						return
					}
					defer ex.Close()
					var e dist.Exchanger = ex
					if rank == 1 {
						e = &tamperGather{Exchanger: ex, tamper: tc.tamper}
					}
					shareds[rank], stats[rank], errs[rank] = train(e)
				}()
			}
			wg.Wait()
			waitDistCoordinator(t, coordErr)
			for rank, err := range errs {
				var ge *GatherError
				if !errors.As(err, &ge) || ge.Rank != 0 {
					t.Fatalf("rank %d: %v, want a *GatherError from rank 0", rank, err)
				}
				if stats[rank].Steps != 0 {
					t.Fatalf("rank %d trained %d examples on a diverged (F)", rank, stats[rank].Steps)
				}
				for i, p := range shareds[rank].Params() {
					if p.Grad != nil || !tensor.Equal(p.T, initial[i].T, 0) {
						t.Fatalf("rank %d: shared parameter %d moved", rank, i)
					}
				}
				t.Logf("rank %d: %v", rank, err)
			}
		})
	}
	t.Run("torn-on-the-wire", func(t *testing.T) {
		addr, coordErr := startDistCoordinator(t, world)
		tearMidFrame(t, 1, 1)
		errs := make(chan error, world)
		for rank := range world {
			go func() {
				ex, err := dist.DialRetry(addr, rank, world, "torn-gather", 100, 20*time.Millisecond)
				if err == nil {
					var st TrainStats
					_, st, err = train(ex)
					ex.Close()
					if st.Steps != 0 {
						err = fmt.Errorf("trained %d examples: %v", st.Steps, err)
					}
				}
				errs <- err
			}()
		}
		for range world {
			if err := <-errs; err == nil {
				t.Fatal("a rank of a fleet torn mid-gather returned no error")
			}
		}
		if err := <-coordErr; err == nil {
			t.Fatal("the coordinator of a fleet torn mid-gather exited cleanly")
		}
	})
}
