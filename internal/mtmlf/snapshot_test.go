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
	"runtime"
	"strings"
	"testing"

	"mtmlf/internal/ag"
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

// snapFixture is a small training state: three parameters, an
// optimizer that has stepped twice, and the meta of a run part way
// through its second epoch.
func snapFixture(seed int64) (snapshotMeta, *nn.Adam, []*ag.Value) {
	rng := rand.New(rand.NewSource(seed))
	var params []*ag.Value
	for _, shape := range [][]int{{3, 4}, {4}, {2, 2}} {
		p := ag.Param(tensor.New(shape...))
		for i := range p.T.Data {
			p.T.Data[i] = rng.NormFloat64()
		}
		params = append(params, p)
	}
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
	return meta, opt, params
}

// snapshotBytes writes a snapshot of the fixture and returns the file,
// and the offset of the first moment tensor's frame in it.
func snapshotBytes(t testing.TB, meta snapshotMeta, opt *nn.Adam, params []*ag.Value) ([]byte, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.snap")
	if err := writeSnapshot(path, meta, opt, params); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := snapPreambleSize
	for range 2 { // meta, moment count
		off += ckptio.SectionLen(int(binary.BigEndian.Uint64(data[off:])))
	}
	return data, off
}

// identity is meta as a resuming run describes itself: no progress.
func identity(meta snapshotMeta) snapshotMeta {
	return snapshotMeta{Kind: meta.Kind, Config: meta.Config, N: meta.N, Epochs: meta.Epochs, BatchSize: meta.BatchSize, Seed: meta.Seed}
}

// TestSnapshotRoundTripBytes: a snapshot restored into a freshly built
// optimizer and parameters restores every moment, parameter and the
// step count, so writing it again gives the same file, byte for byte.
func TestSnapshotRoundTripBytes(t *testing.T) {
	meta, opt, params := snapFixture(1)
	data, _ := snapshotBytes(t, meta, opt, params)
	_, opt2, params2 := snapFixture(2)
	opt2.Steps = 0
	got, err := restoreSnapshot(data, "snapshot", identity(meta), opt2, params2)
	if err != nil {
		t.Fatal(err)
	}
	if opt2.Steps != opt.Steps {
		t.Fatalf("restored step count %d, want %d", opt2.Steps, opt.Steps)
	}
	again, _ := snapshotBytes(t, got, opt2, params2)
	if !bytes.Equal(data, again) {
		t.Fatal("a restored snapshot writes different bytes")
	}
}

// TestSnapshotRefusesOldVersion: a v2 snapshot (gob meta and optimizer
// frames) is refused with the typed error, naming its version, before
// anything is restored.
func TestSnapshotRefusesOldVersion(t *testing.T) {
	meta, opt, params := snapFixture(1)
	data, _ := snapshotBytes(t, meta, opt, params)
	binary.BigEndian.PutUint16(data[len(SnapshotMagic):], 2)
	_, opt2, params2 := snapFixture(2)
	before := params2[0].T.Data[0]
	_, err := restoreSnapshot(data, "snapshot", identity(meta), opt2, params2)
	var ce *ckptio.CorruptError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "unsupported snapshot version 2") {
		t.Fatalf("got %v, want a *ckptio.CorruptError naming version 2", err)
	}
	if params2[0].T.Data[0] != before {
		t.Fatal("a refused snapshot touched the parameters")
	}
}

// FuzzSnapshot: arbitrary bytes resumed from must end in an error or a
// restore — never a panic — and never allocate more than the
// destination optimizer and parameters, 4 MiB, and 8 bytes per input
// byte. The seeds are a valid snapshot, torn and bit-flipped ones, a v2
// preamble, and a moment record whose frame claims a gigabyte.
//
//	go test ./internal/mtmlf -run=NONE -fuzz=FuzzSnapshot -fuzztime=5m
func FuzzSnapshot(f *testing.F) {
	meta, opt, params := snapFixture(1)
	valid, moments := snapshotBytes(f, meta, opt, params)
	mutate := func(edit func([]byte)) []byte {
		b := bytes.Clone(valid)
		edit(b)
		return b
	}
	for _, seed := range [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[:moments],
		mutate(func(b []byte) { b[snapPreambleSize+9] ^= 1 }),  // meta record
		mutate(func(b []byte) { b[moments+12] ^= 0x10 }),       // a moment's bits
		mutate(func(b []byte) { b[len(SnapshotMagic)+1] = 2 }), // v2
		mutate(func(b []byte) { binary.BigEndian.PutUint64(b[moments:], 1<<30-1) }),
		{},
	} {
		f.Add(seed)
	}
	_, dstOpt, dstParams := snapFixture(2)
	want := identity(meta)
	dest := 0
	for _, p := range dstParams {
		dest += 3 * 8 * p.T.Size() // the parameter and its two moments
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := restoreSnapshot(data, "snapshot", want, dstOpt, dstParams)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(dest)+4<<20+8*uint64(len(data)); grew > limit {
			t.Fatalf("restoring %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err == nil {
			for i, p := range dstParams {
				if p.T.HasNaN() {
					t.Fatalf("restored a snapshot whose parameter %d is not finite", i)
				}
			}
		}
	})
}
