package mtmlf

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/dist"
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
// 2- and 3-rank TCP fleets must agree on the trajectory and the final
// shared parameters bit for bit.
func TestTrainMLADistTopologyGrid(t *testing.T) {
	run := func(workers int, ex dist.Exchanger) (*Shared, TrainStats, error) {
		opts := mlaFixtureOpts()
		opts.Workers = workers
		opts.Exchanger = ex
		cats, srcs := mlaCorpus(opts)
		shared := NewShared(tinyConfig(), 20)
		_, st, err := TrainMLAStream(shared, cats, srcs, opts)
		return shared, st, err
	}
	ref, refSt, err := run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, shared *Shared, st TrainStats) {
		t.Helper()
		if st.Steps != refSt.Steps || st.FinalLoss != refSt.FinalLoss {
			t.Fatalf("%s: stats {steps %d, loss %v} != reference {steps %d, loss %v}",
				tag, st.Steps, st.FinalLoss, refSt.Steps, refSt.FinalLoss)
		}
		if !sameTrajectory(refSt.Trajectory, st.Trajectory) {
			t.Fatalf("%s: loss trajectory differs from reference", tag)
		}
		pa, pb := ref.Params(), shared.Params()
		for i := range pa {
			if !tensor.Equal(pa[i].T, pb[i].T, 0) {
				t.Fatalf("%s: shared parameter %d differs from reference", tag, i)
			}
		}
	}
	par, parSt, err := run(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("workers=4", par, parSt)
	for _, world := range []int{2, 3} {
		world := world
		t.Run(fmt.Sprintf("world%d", world), func(t *testing.T) {
			shareds := make([]*Shared, world)
			stats := make([]TrainStats, world)
			runFleet(t, world, "mla-grid", func(rank int, ex dist.Exchanger) error {
				s, st, err := run(2, ex)
				shareds[rank], stats[rank] = s, st
				return err
			})
			for rank := 0; rank < world; rank++ {
				check(fmt.Sprintf("world=%d rank=%d", world, rank), shareds[rank], stats[rank])
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

// cutMidFrame relays one rank's connection to the coordinator at addr,
// frame by frame, and drops both ends halfway through the nth frame of
// more than 4 KiB the rank sends: a process dying in the middle of a
// gradient frame. Smaller frames (hello, the resume broadcast's empty
// half, barriers) pass through uncounted.
func cutMidFrame(t *testing.T, addr string, nth int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer ln.Close()
		down, err := ln.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(down, up) // ends when up is closed
		for big := 0; big < nth; {
			p, err := ckptio.ReadSection(down, "relay")
			if err != nil {
				return
			}
			var frame bytes.Buffer
			_ = ckptio.WriteSection(&frame, p)
			b := frame.Bytes()
			if len(p) > 4096 {
				big++
			}
			if big == nth {
				b = b[:len(b)/2]
			}
			if _, err := up.Write(b); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestTrainJointDistRankDiesMidFrame: rank 1's connection is cut in the
// middle of its third gradient frame while rank 0 snapshots every step.
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
	addrs := []string{addr, cutMidFrame(t, addr, 3)}
	rankErr := make(chan error, world)
	for rank := 0; rank < world; rank++ {
		go func() {
			ex, err := dist.DialRetry(addrs[rank], rank, world, "joint-cut", 100, 20*time.Millisecond)
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
