package mtmlf

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"mtmlf/internal/nn"
)

// FuzzLoadModel: arbitrary bytes fed to every checkpoint entry point
// must return an error (or a valid model) — never panic, never divide
// by zero on a hostile Config, and never allocate more than a constant,
// a small multiple of the bytes supplied, and the one destination a
// load that gets past the metadata builds. The seed corpus covers both
// save flavors, the three refused older versions, and the torn-write /
// bit-flip / lying-length shapes the deterministic durability tests
// sweep; the fuzzer explores the cross-product from there.
//
// Run longer than the CI smoke with:
//
//	go test ./internal/mtmlf -run=NONE -fuzz=FuzzLoadModel -fuzztime=5m
func FuzzLoadModel(f *testing.F) {
	db := tinyDB()
	m := NewModel(tinyConfig(), db, 17)
	var full, shared bytes.Buffer
	if err := Save(&full, m); err != nil {
		f.Fatal(err)
	}
	if err := SaveShared(&shared, m); err != nil {
		f.Fatal(err)
	}
	v4 := full.Bytes()
	v1, v2, v3 := oldCheckpoints(v4)
	end := structuralEnd(v4)
	flipMeta := bytes.Clone(v4)
	flipMeta[20] ^= 1
	flipTensor := bytes.Clone(v4)
	flipTensor[len(flipTensor)/2] ^= 0x10
	// The first tensor frame claims a gigabyte: refused from its header,
	// against the destination's shape, without reading or allocating it.
	hugeFrame := bytes.Clone(v4)
	binary.BigEndian.PutUint64(hugeFrame[end-27:], 1<<30-1)
	// Well-formed and CRC-valid, but one weight is NaN: must be
	// rejected (nn.ErrNonFinite), not loaded.
	poisoned := NewModel(tinyConfig(), db, 17)
	poisoned.Shared.CardHead.Layers[0].W.T.Data[0] = math.NaN()
	var nan bytes.Buffer
	if err := Save(&nan, poisoned); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		v4,
		shared.Bytes(),
		v1,             // refused: predates the preamble
		v2,             // refused: framed, version 2
		v4[:len(v4)/2], // torn write, mid tensor
		v4[:end-27],    // torn write, on a frame boundary
		v4[:11],        // truncated preamble
		flipMeta,       // bit rot under the meta checksum
		flipTensor,     // bit rot under a tensor checksum
		hugeFrame,      // a lying frame length
		nan.Bytes(),    // non-finite weight under a valid checksum
		[]byte(CheckpointMagic),
		{},
		v3, // refused: framed, version 3 (a gob meta frame)
	} {
		f.Add(seed)
	}
	// dst is a sink: a load that fails part way leaves it partially
	// overwritten, which no later execution minds.
	dst := NewModel(tinyConfig(), db, 3)
	// What one load may allocate besides its input: the destination it
	// builds (the f64 model, of which a replica is a fraction), the
	// ANALYZE pass over the database, and the read buffers. Measured on
	// the valid seed, with room; a declared length that sized an
	// allocation would be a gigabyte.
	perLoad := uint64(m.ParamBytes()) + 4<<20
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// Errors (typed or otherwise) are the expected outcome on
		// mutated inputs; the property under test is that no entry point
		// ever panics — and that nothing non-finite gets through.
		if m, _, err := LoadModel(bytes.NewReader(data), db); err == nil {
			for i, p := range m.Params() {
				if p.T.HasNaN() {
					t.Fatalf("LoadModel accepted a checkpoint whose parameter %d is not finite", i)
				}
			}
		}
		if lm, _, err := LoadLowered(bytes.NewReader(data), db, nn.PrecisionF32, nil); err == nil {
			if w := lm.CardHead.Layers[0].W; w.HasNaN() {
				t.Fatal("LoadLowered accepted a checkpoint whose card head is not finite")
			}
		}
		_, _ = Load(bytes.NewReader(data), dst)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 3*perLoad+8*uint64(len(data)); grew > limit {
			t.Fatalf("loading %d bytes three ways allocated %d, limit %d", len(data), grew, limit)
		}
	})
}
