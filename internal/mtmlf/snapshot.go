package mtmlf

import (
	"bytes"
	"encoding/binary"
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

const (
	// SnapshotMagic opens every training-state snapshot file.
	SnapshotMagic = "MTMLF-SNAP"
	// SnapshotVersion is the one snapshot format version this build
	// reads and writes (3: the meta is a record in ckptio's codec and
	// Adam's moments are tensor records, like the parameters).
	SnapshotVersion = 3
	// snapPreambleSize is the raw preamble: magic + big-endian version.
	snapPreambleSize = len(SnapshotMagic) + 2
)

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
	// (minibatches). 0 snapshots only on interruption.
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

// writeSnapshot persists the full training state atomically: a
// preamble, then CRC32C-framed sections — the meta record (the step
// count included), then Adam's moments and the parameters, each list as
// tensor records (nn.WriteParams, the checkpoint's codec) — so a torn or
// rotted snapshot fails to load with a typed *ckptio.CorruptError
// instead of resuming from garbage.
func writeSnapshot(path string, meta snapshotMeta, opt *nn.Adam, params []*ag.Value) error {
	return ckptio.WriteFileAtomic(path, func(w io.Writer) error {
		pre := binary.BigEndian.AppendUint16([]byte(SnapshotMagic), SnapshotVersion)
		if _, err := w.Write(pre); err != nil {
			return err
		}
		if err := ckptio.WriteSection(w, appendSnapshotMeta(nil, &meta)); err != nil {
			return err
		}
		if err := nn.WriteParams(w, opt.Moments()); err != nil {
			return err
		}
		return nn.WriteParams(w, params)
	})
}

// restoreSnapshot applies a snapshot file — read from disk, or rank 0's
// broadcast of it — to opt and params, and returns its meta. Nothing is
// touched until everything has been verified: the preamble, the meta
// record and that it describes the run want does, and every tensor
// record against the moment or parameter it restores (frame length,
// checksum, shape, finite values). Any failure past the meta match is a
// *ckptio.CorruptError naming artifact.
func restoreSnapshot(data []byte, artifact string, want snapshotMeta, opt *nn.Adam, params []*ag.Value) (snapshotMeta, error) {
	var meta snapshotMeta
	corrupt := func(what string, err error) (snapshotMeta, error) {
		var ce *ckptio.CorruptError
		if errors.As(err, &ce) {
			return meta, err
		}
		return meta, ckptio.Corruptf(artifact, "%s: %v", what, err)
	}
	if len(data) < snapPreambleSize || string(data[:len(SnapshotMagic)]) != SnapshotMagic {
		return meta, ckptio.Corruptf(artifact, "no %q preamble", SnapshotMagic)
	}
	if v := binary.BigEndian.Uint16(data[len(SnapshotMagic):]); v != SnapshotVersion {
		return meta, ckptio.Corruptf(artifact, "unsupported snapshot version %d (this build reads version %d only; finish that run with the build that wrote it, or start it over)", v, SnapshotVersion)
	}
	r := bytes.NewReader(data[snapPreambleSize:])
	metaPayload, err := ckptio.ReadSection(r, artifact)
	if err != nil {
		return meta, err
	}
	if meta, err = decodeSnapshotMeta(metaPayload); err != nil {
		return corrupt("decode meta", err)
	}
	if err := matchMeta(want, meta); err != nil {
		return meta, err
	}
	// Two passes over the same records: the first verifies every one, the
	// second, which cannot fail, reads them into place.
	lists := [][]*ag.Value{opt.Moments(), params}
	records := data[len(data)-r.Len():]
	for _, list := range lists {
		pr, err := nn.NewParamReader(r, artifact, len(list))
		for i := 0; err == nil && i < len(list); i++ {
			_, err = pr.Next(list[i].T.Shape)
		}
		if err != nil {
			return corrupt("restore training state", err)
		}
	}
	opt.Steps = meta.AdamSteps
	r = bytes.NewReader(records)
	for _, list := range lists {
		pr, err := nn.NewParamReader(r, artifact, len(list))
		if err == nil {
			err = pr.ReadInto(list)
		}
		if err != nil {
			return corrupt("restore training state", err)
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
	// every snapshots after every N minibatches (0 = interrupt-only).
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
// a run described by meta (progress fields ignored on input). When
// resuming, it restores params, opt, and *st from the snapshot at
// snap.Path and positions the controller mid-run; a missing file is a
// fresh start. Returns nil when the options are disabled.
//
// Snapshots are topology-aware but topology-free: in a distributed
// run only rank 0 persists (one snapshot file per job, not one per
// rank), and on resume rank 0 reads the file and broadcasts the full
// training state — meta, optimizer moments, parameters — so every
// rank re-enters the run at the same minibatch boundary with bitwise
// identical state. The file itself never records a world size: a run
// snapshotted at one fleet size resumes at any other, exactly as a
// snapshot taken at one worker count resumes at another.
func prepareSnapshots(ex dist.Exchanger, snap SnapshotOptions, meta snapshotMeta, opt *nn.Adam, params []*ag.Value, st *TrainStats) (*epochCtl, error) {
	if !snap.enabled() {
		return nil, nil
	}
	world, rank := ex.World()
	ctl := &epochCtl{every: snap.Every, interrupt: snap.Interrupt, interruptAfter: snap.InterruptAfter}
	if snap.Path != "" && rank == 0 {
		ctl.snap = func(epoch, offset int) error {
			m := meta
			m.Epoch, m.Offset = epoch, offset
			m.Stats, m.AdamSteps = *st, opt.Steps
			return writeSnapshot(snap.Path, m, opt, params)
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
		blob, err := ex.BroadcastBytes(blob)
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
	got, err := restoreSnapshot(body, artifact, meta, opt, params)
	if err != nil {
		return nil, err
	}
	*st = got.Stats
	ctl.startEpoch, ctl.startOffset = got.Epoch, got.Offset
	return ctl, nil
}
