package mtmlf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/dist"
	"mtmlf/internal/nn"
)

// ---------------------------------------------------------------------------
// Training-state snapshots: crash-safe resumable training
// ---------------------------------------------------------------------------
//
// A snapshot is the complete mutable state of a training loop at a
// minibatch boundary: the trained parameters, the Adam optimizer's
// moment accumulators and step count, the shuffle position (epoch +
// examples into the epoch — the rng is reconstructed by replaying
// rand.Perm, the only draw the iterator makes), and the running
// TrainStats. Because the epoch iterator's trajectory depends only on
// (seed, batch size, example set) and never on worker count or
// wall-clock, restoring a snapshot and finishing the run produces a
// final model byte-for-byte identical to the uninterrupted run — the
// property the interruption-invariance tests and the kill-9 drill in
// scripts/crash_resume_smoke.sh assert.
//
// A snapshot is a checkpoint. It begins with the bytes SaveShared
// writes for the loop's first model at that step — the (S)+(T)
// parameters are all the loop trains — and goes on with a training
// section: the snapshotMeta record in one frame, then Adam's moments as
// tensor records. So Load, and mtmlf-train -load, read a snapshot as
// the shared-only checkpoint it begins with.

// ErrInterrupted is returned by a training loop stopped through
// SnapshotOptions.Interrupt (or the InterruptAfter test hook) after it
// has persisted a resumable snapshot. It is a clean stop, not a
// failure: rerun with Resume to finish the run.
var ErrInterrupted = errors.New("mtmlf: training interrupted (resumable snapshot written)")

// SnapshotOptions makes a training loop durable: periodic
// training-state snapshots, cooperative interruption, and resume.
// The zero value disables all of it.
type SnapshotOptions struct {
	// Path is the snapshot file, written atomically (temp file + fsync
	// + rename) at every snapshot point. Empty disables persistence.
	Path string
	// Every writes a snapshot after every N optimizer steps
	// (minibatches). 0 snapshots only on interruption. A run that
	// finishes always writes a last snapshot, so the file holds the
	// trained state and a rerun with Resume is a no-op.
	Every int
	// Resume restores training state from Path before the first step.
	// A missing file is a fresh start, so a supervisor can always pass
	// Resume and rerun until the loop returns nil.
	Resume bool
	// Interrupt, when closed, stops the loop at the next minibatch
	// boundary: a final snapshot is written to Path and the loop
	// returns ErrInterrupted.
	Interrupt <-chan struct{}
	// InterruptAfter stops the loop after N minibatches of THIS run
	// (not counting resumed progress) exactly like Interrupt — the
	// deterministic fault-injection hook the invariance tests drive.
	// 0 disables.
	InterruptAfter int
}

// enabled reports whether the options change the training loop at all.
func (o SnapshotOptions) enabled() bool {
	return o.Path != "" || o.Interrupt != nil || o.InterruptAfter > 0
}

// snapshotMeta identifies the run a snapshot belongs to and records
// its progress. Every identity field must match the resuming run's:
// resuming under different data, seed, batch size, or loss
// configuration would silently produce a trajectory that matches
// neither run.
type snapshotMeta struct {
	// Kind names the training loop ("joint", "mla").
	Kind string
	// Config echoes the loop's trajectory-relevant configuration.
	Config string
	// N, Epochs, BatchSize, Seed are the epoch iterator's shape.
	N         int
	Epochs    int
	BatchSize int
	Seed      int64
	// Epoch and Offset are the resume point: Offset examples of epoch
	// Epoch are complete (Offset is a minibatch boundary; a finished
	// epoch normalizes to {Epoch + 1, 0}).
	Epoch  int
	Offset int
	// Stats is the running TrainStats at the boundary.
	Stats TrainStats
	// AdamSteps is the optimizer's step count (nn.Adam.Steps).
	AdamSteps int
}

func appendSnapshotMeta(b []byte, m *snapshotMeta) []byte {
	b = ckptio.AppendStr(ckptio.AppendStr(b, m.Kind), m.Config)
	for _, v := range []int{m.N, m.Epochs, m.BatchSize} {
		b = ckptio.AppendInt(b, v)
	}
	b = ckptio.AppendInt(b, m.Seed)
	for _, v := range []int{m.Epoch, m.Offset, m.Stats.Steps} {
		b = ckptio.AppendInt(b, v)
	}
	b = ckptio.AppendF64s(ckptio.AppendF64(b, m.Stats.FinalLoss), m.Stats.Trajectory)
	return ckptio.AppendInt(b, m.AdamSteps)
}

func decodeSnapshotMeta(b []byte) (snapshotMeta, error) {
	d := ckptio.NewDec(b)
	m := snapshotMeta{Kind: d.Str(), Config: d.Str(), N: int(d.Int()), Epochs: int(d.Int()), BatchSize: int(d.Int()),
		Seed: d.Int(), Epoch: int(d.Int()), Offset: int(d.Int()),
		Stats:     TrainStats{Steps: int(d.Int()), FinalLoss: d.F64(), Trajectory: d.F64s()},
		AdamSteps: int(d.Int())}
	return m, d.End()
}

// matchMeta verifies that a snapshot belongs to the requested run.
func matchMeta(want, got snapshotMeta) error {
	if got.Kind != want.Kind || got.Config != want.Config ||
		got.N != want.N || got.Epochs != want.Epochs ||
		got.BatchSize != want.BatchSize || got.Seed != want.Seed {
		return fmt.Errorf("mtmlf: snapshot does not match this run: snapshot {kind %s config %q n %d epochs %d batch %d seed %d}, run {kind %s config %q n %d epochs %d batch %d seed %d}",
			got.Kind, got.Config, got.N, got.Epochs, got.BatchSize, got.Seed,
			want.Kind, want.Config, want.N, want.Epochs, want.BatchSize, want.Seed)
	}
	if got.Epoch < 0 || got.Offset < 0 || got.Offset >= max(got.N, 1) || got.AdamSteps < 0 ||
		(want.BatchSize > 0 && got.Offset%want.BatchSize != 0) {
		return &ckptio.CorruptError{Artifact: "snapshot",
			Reason: fmt.Sprintf("progress {epoch %d, offset %d, Adam step %d} is not a minibatch boundary of n=%d bs=%d",
				got.Epoch, got.Offset, got.AdamSteps, got.N, got.BatchSize)}
	}
	return nil
}

// writeSnapshot persists the full training state atomically: m's
// shared-only checkpoint, then the training section. Every byte past the
// checkpoint preamble is in a CRC32C frame, so a torn or rotted snapshot
// fails to load with a typed *ckptio.CorruptError instead of resuming
// from garbage.
func writeSnapshot(path string, m *Model, meta snapshotMeta, opt *nn.Adam) error {
	return ckptio.WriteFileAtomic(path, func(w io.Writer) error {
		if err := SaveShared(w, m); err != nil {
			return err
		}
		if err := ckptio.WriteSection(w, appendSnapshotMeta(nil, &meta)); err != nil {
			return err
		}
		return nn.WriteParams(w, opt.Moments())
	})
}

// restoreSnapshot applies a snapshot file — read from disk, or rank 0's
// broadcast of it — to opt and shared, and returns its meta. Nothing is
// touched until everything has been verified: that the file is a
// shared-only checkpoint of shared's Config, the meta record and that it
// describes the run want does, and every tensor record against the
// parameter or moment it restores (frame length, checksum, shape, finite
// values). Damage is a *ckptio.CorruptError naming artifact.
func restoreSnapshot(data []byte, artifact string, want snapshotMeta, opt *nn.Adam, shared *Shared) (snapshotMeta, error) {
	var meta snapshotMeta
	fail := func(what string, err error) (snapshotMeta, error) {
		var ce *ckptio.CorruptError
		if errors.As(err, &ce) {
			err = errors.New(ce.Reason)
		}
		return meta, ckptio.Corruptf(artifact, "%s: %v", what, err)
	}
	r := bytes.NewReader(data)
	ck, err := openCheckpoint(r)
	if err != nil { // an older build's snapshot (magic "MTMLF-SNAP") fails here
		return fail("not a snapshot this build reads (finish that run with the build that wrote it, or start it over)", err)
	}
	if !ck.info.SharedOnly || ck.info.Config != shared.Cfg {
		return meta, fmt.Errorf("mtmlf: snapshot does not match this run: its checkpoint (shared-only %v) has config %+v, the run trains %+v",
			ck.info.SharedOnly, ck.info.Config, shared.Cfg)
	}
	// Two passes over the same records: the first verifies every one, the
	// second, which cannot fail, reads them into place.
	params, moments := shared.Params(), opt.Moments()
	verify := func(list []*ag.Value) error {
		pr, err := nn.NewParamReader(r, artifact, len(list))
		for i := 0; err == nil && i < len(list); i++ {
			_, err = pr.Next(list[i].T.Shape)
		}
		return err
	}
	paramsAt := len(data) - r.Len()
	if err := verify(params); err != nil {
		return fail("parameters", err)
	}
	payload, err := ckptio.ReadSection(r, artifact)
	if err == nil {
		meta, err = decodeSnapshotMeta(payload)
	}
	if err != nil {
		return fail("meta", err)
	}
	if err := matchMeta(want, meta); err != nil {
		return meta, err
	}
	momentsAt := len(data) - r.Len()
	if err := verify(moments); err != nil {
		return fail("optimizer state", err)
	}
	opt.Steps = meta.AdamSteps
	for _, sec := range []struct {
		at   int
		list []*ag.Value
	}{{paramsAt, params}, {momentsAt, moments}} {
		pr, err := nn.NewParamReader(bytes.NewReader(data[sec.at:]), artifact, len(sec.list))
		if err == nil {
			err = pr.ReadInto(sec.list)
		}
		if err != nil {
			return fail("restore training state", err)
		}
	}
	return meta, nil
}

// epochCtl is the durability controller the epoch iterator drives:
// where to resume, when to snapshot, when to stop.
type epochCtl struct {
	// startEpoch/startOffset is the resume point (examples into the
	// epoch, a minibatch boundary).
	startEpoch  int
	startOffset int
	// every snapshots after every N minibatches (0 = at interruption and
	// at the end only).
	every int
	// snap persists the state at progress {epoch, offset}; nil skips
	// persistence (interruption still stops the loop).
	snap func(epoch, offset int) error
	// interrupt + interruptAfter mirror SnapshotOptions.
	interrupt      <-chan struct{}
	interruptAfter int
}

// stopRequested reports whether the loop should stop at this
// minibatch boundary. batches counts THIS run's minibatches.
func (c *epochCtl) stopRequested(batches int) bool {
	if c.interruptAfter > 0 && batches >= c.interruptAfter {
		return true
	}
	select {
	case <-c.interrupt:
		return true
	default:
		return false
	}
}

// prepareSnapshots wires SnapshotOptions into an epoch controller for
// a run described by meta (progress fields ignored on input); m is the
// loop's first model, whose shared-only checkpoint every snapshot
// begins with. When resuming, it restores m.Shared, opt, and *st from
// the snapshot at snap.Path and positions the controller mid-run; a
// missing file is a fresh start. With the options disabled it returns the zero
// controller: start at the beginning, never snapshot, never stop.
//
// Snapshots are topology-aware but topology-free: in a distributed
// run only rank 0 persists (one snapshot file per job, not one per
// rank), and on resume rank 0 reads the file and broadcasts the full
// training state — meta, optimizer moments, parameters — so every
// rank re-enters the run at the same minibatch boundary with bitwise
// identical state. The file itself never records a world size: a run
// snapshotted at one fleet size resumes at any other, exactly as a
// snapshot taken at one worker count resumes at another.
func prepareSnapshots(ex dist.Exchanger, snap SnapshotOptions, meta snapshotMeta, opt *nn.Adam, m *Model, st *TrainStats) (*epochCtl, error) {
	if !snap.enabled() {
		return &epochCtl{}, nil
	}
	world, rank := ex.World()
	ctl := &epochCtl{every: snap.Every, interrupt: snap.Interrupt, interruptAfter: snap.InterruptAfter}
	if snap.Path != "" && rank == 0 {
		ctl.snap = func(epoch, offset int) error {
			at := meta
			at.Epoch, at.Offset = epoch, offset
			at.Stats, at.AdamSteps = *st, opt.Steps
			return writeSnapshot(snap.Path, m, at, opt)
		}
	}
	if !snap.Resume || snap.Path == "" {
		return ctl, nil
	}
	// body is the snapshot file; nil means a fresh start. In a
	// distributed run rank 0 owns the file and everyone else receives
	// its contents over the exchange plane — and a missing file is a
	// fleet-wide fresh start, so that decision is broadcast too, or half
	// the fleet could resume while the other half starts over.
	var body []byte
	artifact := "snapshot"
	if rank == 0 {
		var err error
		if body, err = os.ReadFile(snap.Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	if world > 1 {
		// One marker byte in front: 0 for "no snapshot", 1 for a body.
		artifact = "resume broadcast"
		blob := []byte{0}
		if body != nil {
			blob = append([]byte{1}, body...)
		}
		blob, err := dist.BroadcastBytes(ex, blob)
		if err != nil {
			return nil, fmt.Errorf("mtmlf: broadcast resume state: %w", err)
		}
		if len(blob) == 0 {
			return nil, ckptio.Corruptf(artifact, "empty payload")
		}
		body = nil
		if blob[0] != 0 {
			body = blob[1:]
		}
	}
	if body == nil {
		return ctl, nil
	}
	got, err := restoreSnapshot(body, artifact, meta, opt, m.Shared)
	if err != nil {
		return nil, err
	}
	*st = got.Stats
	ctl.startEpoch, ctl.startOffset = got.Epoch, got.Offset
	return ctl, nil
}
