package mtmlf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/featurize"
	"mtmlf/internal/nn"
	"mtmlf/internal/tensor"
)

// fillRecord sets every exported field of v, nested structs included,
// to a value a codec could lose: distinct strings, negative and wide
// integers, NaN with a payload, −0 and ±Inf, true, and two-element
// slices. n numbers the fields visited.
func fillRecord(t *testing.T, v reflect.Value, n *int) {
	*n++
	specials := []float64{math.Float64frombits(0x7ff8_0000_0000_0123), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -1.0 / 3}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int64:
		if *n%2 == 0 {
			v.SetInt(-int64(*n))
		} else {
			v.SetInt(int64(*n) << 40)
		}
	case reflect.Float64:
		v.SetFloat(specials[*n%len(specials)])
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range 2 {
			fillRecord(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillRecord(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fillRecord: no value for a %v field", v.Type())
	}
}

// sameBits reports whether a and b are equal, comparing floats bitwise.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func checkRecord[T any](t *testing.T, enc func([]byte, *T) []byte, dec func([]byte) (T, error)) {
	t.Helper()
	var v T
	fillRecord(t, reflect.ValueOf(&v).Elem(), new(int))
	got, err := dec(enc(nil, &v))
	if err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	if !sameBits(reflect.ValueOf(v), reflect.ValueOf(got)) {
		t.Errorf("%T did not survive the round trip: the codec drops or alters a field\n got %+v\nwant %+v", v, got, v)
	}
}

// TestMetaRecordsCarryEveryField: a hand codec drops a struct field it
// was not taught about without any error, where gob carried it. Every
// exported field of the checkpoint and snapshot meta records is set,
// NaN, −0 and ±Inf included, and must come back bit for bit; and the
// field counts are pinned, so a field added to Config, featurize.Config
// or TrainStats fails here until the codec writes it.
func TestMetaRecordsCarryEveryField(t *testing.T) {
	checkRecord(t, appendCheckpointMeta, decodeCheckpointMeta)
	checkRecord(t, appendSnapshotMeta, decodeSnapshotMeta)
	for typ, want := range map[reflect.Type]int{
		reflect.TypeFor[checkpointMeta]():   5,
		reflect.TypeFor[Config]():           13,
		reflect.TypeFor[featurize.Config](): 6,
		reflect.TypeFor[snapshotMeta]():     10,
		reflect.TypeFor[TrainStats]():       3,
	} {
		n := 0
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				n++
			}
		}
		if n != want {
			t.Errorf("%v has %d exported fields, the record codec writes %d", typ, n, want)
		}
	}
}

// snapFixture is a small training state: a tiny model whose shared
// modules an optimizer has stepped twice, and the meta of a run part
// way through its second epoch.
func snapFixture(seed int64) (snapshotMeta, *nn.Adam, *Model) {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel(tinyConfig(), tinyDB(), seed)
	params := m.Shared.Params()
	opt := nn.NewAdam(params, 0.1)
	for range 2 {
		for _, p := range params {
			p.Grad = tensor.New(p.T.Shape...)
			for i := range p.Grad.Data {
				p.Grad.Data[i] = rng.NormFloat64()
			}
		}
		opt.Step()
	}
	meta := snapshotMeta{Kind: "joint", Config: "fixture", N: 10, Epochs: 3, BatchSize: 2, Seed: seed,
		Epoch: 1, Offset: 4, Stats: TrainStats{Steps: 14, FinalLoss: 0.25, Trajectory: []float64{1, 0.5}}, AdamSteps: opt.Steps}
	return meta, opt, m
}

// snapshotBytes writes a snapshot of the fixture and returns the file,
// and the offsets in it of the training section (the meta frame) and of
// the first moment tensor's frame.
func snapshotBytes(t testing.TB, meta snapshotMeta, opt *nn.Adam, m *Model) (data []byte, train, moments int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.snap")
	if err := writeSnapshot(path, m, meta, opt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var shared bytes.Buffer
	if err := SaveShared(&shared, m); err != nil {
		t.Fatal(err)
	}
	train = shared.Len()
	moments = train
	for range 2 { // meta, moment count
		moments += ckptio.SectionLen(int(binary.BigEndian.Uint64(data[moments:])))
	}
	return data, train, moments
}

// parentSnapshot is the fixture in the format an older build wrote: its
// own "MTMLF-SNAP" preamble (version 3), the meta frame, the moments,
// then the parameters.
func parentSnapshot(t testing.TB, meta snapshotMeta, opt *nn.Adam, m *Model) []byte {
	t.Helper()
	b := bytes.NewBufferString("MTMLF-SNAP\x00\x03")
	if err := ckptio.WriteSection(b, appendSnapshotMeta(nil, &meta)); err != nil {
		t.Fatal(err)
	}
	if err := nn.WriteParams(b, opt.Moments()); err != nil {
		t.Fatal(err)
	}
	if err := nn.WriteParams(b, m.Shared.Params()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// identity is meta as a resuming run describes itself: no progress.
func identity(meta snapshotMeta) snapshotMeta {
	return snapshotMeta{Kind: meta.Kind, Config: meta.Config, N: meta.N, Epochs: meta.Epochs, BatchSize: meta.BatchSize, Seed: meta.Seed}
}

// TestSnapshotRoundTripBytes: a snapshot restored into a freshly built
// optimizer and model restores every moment, parameter and the step
// count, so writing it again gives the same file, byte for byte.
func TestSnapshotRoundTripBytes(t *testing.T) {
	meta, opt, m := snapFixture(1)
	data, _, _ := snapshotBytes(t, meta, opt, m)
	_, opt2, m2 := snapFixture(2)
	opt2.Steps = 0
	got, err := restoreSnapshot(data, "snapshot", identity(meta), opt2, m2.Shared)
	if err != nil {
		t.Fatal(err)
	}
	if opt2.Steps != opt.Steps {
		t.Fatalf("restored step count %d, want %d", opt2.Steps, opt.Steps)
	}
	again, _, _ := snapshotBytes(t, got, opt2, m2)
	if !bytes.Equal(data, again) {
		t.Fatal("a restored snapshot writes different bytes")
	}
}

// TestLoadReadsSnapshotAsSharedCheckpoint: a snapshot begins with the
// bytes SaveShared writes for its model, so Load reads it as that
// shared-only checkpoint and restores every shared parameter bit for
// bit.
func TestLoadReadsSnapshotAsSharedCheckpoint(t *testing.T) {
	meta, opt, m := snapFixture(1)
	data, train, _ := snapshotBytes(t, meta, opt, m)
	var shared bytes.Buffer
	if err := SaveShared(&shared, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:train], shared.Bytes()) {
		t.Fatal("a snapshot does not begin with its model's shared-only checkpoint")
	}
	_, _, dst := snapFixture(2)
	info, err := Load(bytes.NewReader(data), dst)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SharedOnly {
		t.Fatal("a snapshot loaded as a full checkpoint")
	}
	want, got := m.Shared.Params(), dst.Shared.Params()
	for i := range want {
		for j, v := range want[i].T.Data {
			if math.Float64bits(got[i].T.Data[j]) != math.Float64bits(v) {
				t.Fatalf("shared parameter %d element %d: loaded %v, snapshot holds %v", i, j, got[i].T.Data[j], v)
			}
		}
	}
}

// TestSnapshotRefusesOldVersion: a snapshot in an older build's format
// (its own "MTMLF-SNAP" preamble) is refused with the typed error,
// saying what to do, before anything is restored.
func TestSnapshotRefusesOldVersion(t *testing.T) {
	meta, opt, m := snapFixture(1)
	data := parentSnapshot(t, meta, opt, m)
	_, opt2, m2 := snapFixture(2)
	before := m2.Shared.Params()[0].T.Data[0]
	_, err := restoreSnapshot(data, "snapshot", identity(meta), opt2, m2.Shared)
	var ce *ckptio.CorruptError
	if !errors.As(err, &ce) || ce.Artifact != "snapshot" || !strings.Contains(err.Error(), "finish that run with the build that wrote it, or start it over") {
		t.Fatalf("got %v, want a snapshot *ckptio.CorruptError giving the remedy", err)
	}
	if m2.Shared.Params()[0].T.Data[0] != before {
		t.Fatal("a refused snapshot touched the parameters")
	}
}
