package mtmlf

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"

	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/train_golden.json from the current code")

const trainGoldenPath = "testdata/train_golden.json"

// trainGolden is what one training run leaves behind: FNV-64a over the
// Float64bits of every example's loss in processing order, and SHA-256
// of the trained parameters as tensor records (nn.WriteParams over
// Model.Params()). The parameters, not the whole checkpoint file: a
// change to the file's metadata encoding moves no trained bit, and the
// checkpoint round-trip tests pin the file's bytes.
type trainGolden struct {
	Steps        int    `json:"steps"`
	LossFNV64    string `json:"loss_fnv64"`
	ParamsSHA256 string `json:"params_sha256"`
}

func goldenOf(t *testing.T, m *Model, st TrainStats) trainGolden {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range st.Trajectory {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var params bytes.Buffer
	if err := nn.WriteParams(&params, m.Params()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(params.Bytes())
	return trainGolden{
		Steps:        st.Steps,
		LossFNV64:    fmt.Sprintf("%016x", h.Sum64()),
		ParamsSHA256: hex.EncodeToString(sum[:]),
	}
}

// goldenMLA runs Algorithm 1 over the two-database test fleet's
// in-memory corpus at batch 8 and returns the golden of database 0's
// model (the shared modules plus its featurizer).
func goldenMLA(t *testing.T, workers int) trainGolden {
	t.Helper()
	opts := mlaFixtureOpts()
	opts.BatchSize, opts.Workers = 8, workers
	cats, srcs := mlaCorpus(opts)
	tasks, st, err := TrainMLAStream(NewShared(tinyConfig(), 20), cats, srcs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return goldenOf(t, tasks[0].Model, st)
}

// goldenJoint runs TrainJointStream on a pretrained single-database
// model.
func goldenJoint(t *testing.T, opts TrainOptions) trainGolden {
	t.Helper()
	m, qs := tinySetup(t, 60, 10)
	opts.Epochs, opts.Seed, opts.RecordTrajectory = 2, 61, true
	st, err := m.TrainJointStream(workload.SliceSource(qs), opts)
	if err != nil {
		t.Fatal(err)
	}
	return goldenOf(t, m, st)
}

// TestTrainGolden pins what training produces, bit for bit, against
// the commit that recorded testdata/train_golden.json — the loss
// trajectory and the trained parameter bits of four small runs: Algorithm 1
// at batch 8 on one and two workers, TrainJointStream at batch 1 (one
// slot through dist.Local's fold), and TrainJointStream at batch 4 with
// the sequence-level loss. The drills elsewhere compare topologies
// within one tree; this is what says a change to the backward pass or
// the training loop moved no number. amd64 only: the
// activations, the loss and Adam call math.Exp, Log, Tanh and Pow,
// which are each port's own — Exp is assembly on amd64 (with an FMA
// path when the CPU has one), arm64 and s390x, and gc fuses the pure-Go
// rest on arm64. make cross keeps this repo's numeric packages free of
// fused ops, not package math.
func TestTrainGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s has its own math.Exp/Log/Tanh/Pow", runtime.GOARCH)
	}
	got := map[string]trainGolden{
		"mla_batch8_workers1":  goldenMLA(t, 1),
		"mla_batch8_workers2":  goldenMLA(t, 2),
		"joint_batch1":         goldenJoint(t, TrainOptions{BatchSize: 1, Workers: 1}),
		"joint_batch4_seqloss": goldenJoint(t, TrainOptions{BatchSize: 4, Workers: 2, SeqLevelLoss: true}),
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trainGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(trainGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]trainGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for run, w := range want {
		if g := got[run]; g != w {
			t.Errorf("%s: got %+v, golden %+v", run, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, want %d", len(want), len(got))
	}
}
