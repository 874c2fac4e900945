package mtmlf

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// freshJointModel builds the deterministic pre-trained model every
// "process" of a simulated crash/resume cycle starts from — identical
// to trainFrom's setup, but without running the joint loop.
func freshJointModel(t *testing.T, cat catalog.Catalog) *Model {
	t.Helper()
	m := NewModelCat(tinyConfig(), cat, 7)
	gen := workload.NewGeneratorFrom(cat, 8)
	cfg := workload.DefaultConfig()
	cfg.MaxTables = 3
	m.Feat.PretrainAll(gen, 5, 1, cfg)
	return m
}

// jointOpts is the fixture's training configuration: 12 examples at
// batch size 4 over 2 epochs = 6 minibatch boundaries to interrupt at.
func jointOpts(workers int, snap SnapshotOptions) TrainOptions {
	return TrainOptions{
		Epochs: 2, Seed: 9, BatchSize: 4, Workers: workers,
		RecordTrajectory: true, Snapshot: snap,
	}
}

// assertJointEqual compares a resumed run's final state against the
// uninterrupted reference bitwise: step count, full loss trajectory,
// final loss, and every parameter.
func assertJointEqual(t *testing.T, label string, refModel, m *Model, ref, st TrainStats) {
	t.Helper()
	if st.Steps != ref.Steps {
		t.Fatalf("%s: steps %d, want %d", label, st.Steps, ref.Steps)
	}
	if len(st.Trajectory) != len(ref.Trajectory) {
		t.Fatalf("%s: trajectory length %d, want %d", label, len(st.Trajectory), len(ref.Trajectory))
	}
	for i := range ref.Trajectory {
		if math.Float64bits(st.Trajectory[i]) != math.Float64bits(ref.Trajectory[i]) {
			t.Fatalf("%s: trajectory step %d differs: %v vs %v", label, i, st.Trajectory[i], ref.Trajectory[i])
		}
	}
	if math.Float64bits(st.FinalLoss) != math.Float64bits(ref.FinalLoss) {
		t.Fatalf("%s: final loss differs: %v vs %v", label, st.FinalLoss, ref.FinalLoss)
	}
	pa, pb := refModel.Params(), m.Params()
	if len(pa) != len(pb) {
		t.Fatalf("%s: parameter counts differ: %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		if !tensor.Equal(pa[i].T, pb[i].T, 0) {
			t.Fatalf("%s: parameter %d differs from uninterrupted run", label, i)
		}
	}
}

// TestTrainJointResumeMatchesUninterrupted is the interruption-
// invariance contract: kill a training run at ANY minibatch boundary,
// start a fresh process, resume from the snapshot — the final model,
// loss trajectory, and stats are bitwise identical to the run that was
// never interrupted, at any worker count.
func TestTrainJointResumeMatchesUninterrupted(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	refModel, ref := trainFrom(t, memCat, workload.SliceSource(examples), 1)
	src := workload.SliceSource(examples)

	for _, workers := range []int{1, 4} {
		for _, after := range []int{1, 2, 3, 5} {
			path := filepath.Join(t.TempDir(), "train.snap")

			// Process 1: train until the injected interrupt.
			m1 := freshJointModel(t, memCat)
			_, err := m1.TrainJointStream(src, jointOpts(workers, SnapshotOptions{
				Path: path, InterruptAfter: after,
			}))
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("workers=%d after=%d: interrupted run returned %v, want ErrInterrupted", workers, after, err)
			}

			// Process 2: a fresh model resumes and finishes the run.
			m2 := freshJointModel(t, memCat)
			st, err := m2.TrainJointStream(src, jointOpts(workers, SnapshotOptions{
				Path: path, Resume: true,
			}))
			if err != nil {
				t.Fatalf("workers=%d after=%d: resume failed: %v", workers, after, err)
			}
			assertJointEqual(t, "resume", refModel, m2, ref, st)
		}
	}
}

// TestTrainJointResumeSurvivesRepeatedCrashes chains interruptions:
// crash after 2 minibatches, resume and crash again after 2 more, then
// resume to completion — three processes, one byte-identical run.
func TestTrainJointResumeSurvivesRepeatedCrashes(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	refModel, ref := trainFrom(t, memCat, workload.SliceSource(examples), 4)
	src := workload.SliceSource(examples)
	path := filepath.Join(t.TempDir(), "train.snap")

	for crash := 0; crash < 2; crash++ {
		m := freshJointModel(t, memCat)
		_, err := m.TrainJointStream(src, jointOpts(4, SnapshotOptions{
			Path: path, Resume: true, InterruptAfter: 2,
		}))
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("crash %d: got %v, want ErrInterrupted", crash, err)
		}
	}
	m := freshJointModel(t, memCat)
	st, err := m.TrainJointStream(src, jointOpts(4, SnapshotOptions{Path: path, Resume: true}))
	if err != nil {
		t.Fatalf("final resume failed: %v", err)
	}
	assertJointEqual(t, "chained resume", refModel, m, ref, st)
}

// TestTrainJointPeriodicSnapshots: Every-N snapshotting neither
// perturbs the trajectory nor, after the run completes, leaves a
// snapshot that a redundant supervisor rerun can't pick up — resuming
// from the last periodic snapshot replays the tail and converges to
// the same final state.
func TestTrainJointPeriodicSnapshots(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	refModel, ref := trainFrom(t, memCat, workload.SliceSource(examples), 1)
	src := workload.SliceSource(examples)
	path := filepath.Join(t.TempDir(), "train.snap")

	m := freshJointModel(t, memCat)
	st, err := m.TrainJointStream(src, jointOpts(1, SnapshotOptions{Path: path, Every: 2}))
	if err != nil {
		t.Fatalf("periodic-snapshot run failed: %v", err)
	}
	assertJointEqual(t, "periodic", refModel, m, ref, st)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	// A supervisor that blindly reruns with -resume after success must
	// still converge: the snapshot replays from its boundary to the end.
	m2 := freshJointModel(t, memCat)
	st2, err := m2.TrainJointStream(src, jointOpts(1, SnapshotOptions{Path: path, Resume: true}))
	if err != nil {
		t.Fatalf("rerun after success failed: %v", err)
	}
	assertJointEqual(t, "rerun", refModel, m2, ref, st2)
}

// TestTrainJointResumeMissingFileIsFreshStart: Resume with no snapshot
// on disk trains from scratch — the property that lets a supervisor
// always pass -resume and retry until exit 0.
func TestTrainJointResumeMissingFileIsFreshStart(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	refModel, ref := trainFrom(t, memCat, workload.SliceSource(examples), 1)

	m := freshJointModel(t, memCat)
	st, err := m.TrainJointStream(workload.SliceSource(examples), jointOpts(1, SnapshotOptions{
		Path: filepath.Join(t.TempDir(), "never-written.snap"), Resume: true,
	}))
	if err != nil {
		t.Fatalf("fresh-start resume failed: %v", err)
	}
	assertJointEqual(t, "fresh start", refModel, m, ref, st)
}

// TestTrainJointResumeRejectsMismatchedRun: a snapshot from a run with
// different trajectory-relevant configuration must be rejected before
// any state is touched — silently resuming would produce a model
// matching neither run.
func TestTrainJointResumeRejectsMismatchedRun(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	src := workload.SliceSource(examples)
	path := filepath.Join(t.TempDir(), "train.snap")

	m1 := freshJointModel(t, memCat)
	if _, err := m1.TrainJointStream(src, jointOpts(1, SnapshotOptions{
		Path: path, InterruptAfter: 2,
	})); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("setup: %v", err)
	}

	m2 := freshJointModel(t, memCat)
	opts := jointOpts(1, SnapshotOptions{Path: path, Resume: true})
	opts.Seed = 10 // different shuffle stream
	_, err := m2.TrainJointStream(src, opts)
	if err == nil || !strings.Contains(err.Error(), "snapshot does not match") {
		t.Fatalf("mismatched resume: got %v, want identity-mismatch error", err)
	}
}

// TestTrainJointResumeDetectsCorruption: a damaged snapshot — bit
// flips anywhere, or a torn prefix — fails resume with a typed
// *ckptio.CorruptError instead of restoring garbage state.
func TestTrainJointResumeDetectsCorruption(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	src := workload.SliceSource(examples)
	path := filepath.Join(t.TempDir(), "train.snap")

	m1 := freshJointModel(t, memCat)
	if _, err := m1.TrainJointStream(src, jointOpts(1, SnapshotOptions{
		Path: path, InterruptAfter: 2,
	})); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("setup: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resumeFrom := func(data []byte) error {
		p := filepath.Join(t.TempDir(), "mut.snap")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := freshJointModel(t, memCat)
		_, err := m.TrainJointStream(src, jointOpts(1, SnapshotOptions{Path: p, Resume: true}))
		return err
	}

	// Bit flips: every bit of the preamble + meta region, then a stride
	// across the optimizer/parameter payloads (full sweep is fuzz
	// territory — every byte here is CRC-framed, see ckptio tests).
	check := func(i, bit int) {
		mut := bytes.Clone(orig)
		mut[i] ^= 1 << bit
		err := resumeFrom(mut)
		var ce *ckptio.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip byte %d bit %d: got %v, want *CorruptError", i, bit, err)
		}
	}
	for i := 0; i < 64 && i < len(orig); i++ {
		for bit := 0; bit < 8; bit++ {
			check(i, bit)
		}
	}
	stride := (len(orig) - 64) / 24
	if stride < 1 {
		stride = 1
	}
	for k, i := 0, 64; i < len(orig); k, i = k+1, i+stride {
		check(i, k%8)
	}

	// Truncation: every torn prefix on the same stride.
	for n := 0; n < len(orig); n += stride {
		err := resumeFrom(orig[:n])
		var ce *ckptio.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncate to %d bytes: got %v, want *CorruptError", n, err)
		}
	}
}

// TestTrainMLAResumeMatchesUninterrupted extends interruption
// invariance to corpus-backed fleet pretraining: kill the Algorithm 1
// joint loop mid-run, resume in a fresh process (which re-runs the
// deterministic per-DB preparation, then restores the shared modules
// and optimizer from the snapshot), and the final shared parameters,
// every featurizer, and the loss trajectory match the in-memory
// TrainMLA run that was never interrupted — at workers 1 and 4.
func TestTrainMLAResumeMatchesUninterrupted(t *testing.T) {
	dbs := mlaFleet()
	opts := mlaFixtureOpts()
	refShared := NewShared(tinyConfig(), 20)
	refTasks, refStats, err := TrainMLA(refShared, dbs, opts)
	if err != nil {
		t.Fatal(err)
	}

	_, cats, srcs := openMLACorpus(t, writeMLACorpus(t, dbs, opts, true))
	for _, workers := range []int{1, 4} {
		for _, after := range []int{1, 3} {
			path := filepath.Join(t.TempDir(), "mla.snap")

			shared1 := NewShared(tinyConfig(), 20)
			wopts := opts
			wopts.Workers = workers
			wopts.Snapshot = SnapshotOptions{Path: path, InterruptAfter: after}
			if _, _, err := TrainMLAStream(shared1, cats, srcs, wopts); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("workers=%d after=%d: interrupted run returned %v, want ErrInterrupted", workers, after, err)
			}

			shared2 := NewShared(tinyConfig(), 20)
			wopts.Snapshot = SnapshotOptions{Path: path, Resume: true}
			tasks, st, err := TrainMLAStream(shared2, cats, srcs, wopts)
			if err != nil {
				t.Fatalf("workers=%d after=%d: resume failed: %v", workers, after, err)
			}
			assertMLAEqual(t, "mla resume", refShared, shared2, refTasks, tasks, refStats, st)
		}
	}
}

// TestTrainJointInterruptChannel: the cooperative-interrupt channel —
// the path cmd/mtmlf-train's SIGTERM handler drives — stops the loop
// at the next minibatch boundary with a resumable snapshot.
func TestTrainJointInterruptChannel(t *testing.T) {
	memCat, examples, _ := streamFixture(t)
	refModel, ref := trainFrom(t, memCat, workload.SliceSource(examples), 1)
	src := workload.SliceSource(examples)
	path := filepath.Join(t.TempDir(), "train.snap")

	stop := make(chan struct{})
	close(stop) // already requested: the loop must stop after its first minibatch
	m1 := freshJointModel(t, memCat)
	_, err := m1.TrainJointStream(src, jointOpts(1, SnapshotOptions{Path: path, Interrupt: stop}))
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupt via channel: got %v, want ErrInterrupted", err)
	}

	m2 := freshJointModel(t, memCat)
	st, err := m2.TrainJointStream(src, jointOpts(1, SnapshotOptions{Path: path, Resume: true}))
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	assertJointEqual(t, "channel interrupt", refModel, m2, ref, st)
}
