package mtmlf

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLoadModel: arbitrary bytes fed to both checkpoint entry points
// must return an error (or a valid model) — never panic, never divide
// by zero on a hostile Config, never allocate unboundedly. The seed
// corpus covers both format versions, both save flavors, and the
// torn-write / bit-flip shapes the deterministic durability tests
// sweep; the fuzzer explores the cross-product from there.
//
// Run longer than the CI smoke with:
//
//	go test ./internal/mtmlf -run=NONE -fuzz=FuzzLoadModel -fuzztime=5m
func FuzzLoadModel(f *testing.F) {
	db := tinyDB()
	m := NewModel(tinyConfig(), db, 17)
	var v2, shared bytes.Buffer
	if err := Save(&v2, m); err != nil {
		f.Fatal(err)
	}
	if err := SaveShared(&shared, m); err != nil {
		f.Fatal(err)
	}
	v1 := writeV1Checkpoint(f, m, false)
	flip2 := bytes.Clone(v2.Bytes())
	flip2[20] ^= 1
	flip1 := bytes.Clone(v1)
	flip1[len(flip1)/2] ^= 0x10
	// Well-formed and CRC-valid, but one weight is NaN: must be
	// rejected (nn.ErrNonFinite), not loaded.
	poisoned := NewModel(tinyConfig(), db, 17)
	poisoned.Shared.CardHead.Layers[0].W.T.Data[0] = math.NaN()
	var nan bytes.Buffer
	if err := Save(&nan, poisoned); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		v2.Bytes(),
		shared.Bytes(),
		v1,
		writeV1Checkpoint(f, m, true),
		v2.Bytes()[:len(v2.Bytes())/2], // torn write
		v2.Bytes()[:11],                // truncated preamble
		flip2,                          // bit rot under a checksum
		flip1,                          // bit rot with no checksum (v1)
		nan.Bytes(),                    // non-finite weight under a valid checksum
		[]byte(CheckpointMagic),
		{},
	} {
		f.Add(seed)
	}
	// Corrupt inputs fail before any weight is copied, so one
	// destination model is safe to reuse across executions.
	dst := NewModel(tinyConfig(), db, 3)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Errors (typed or otherwise) are the expected outcome on
		// mutated inputs; the property under test is that neither entry
		// point ever panics — and that nothing non-finite gets through.
		if m, _, err := LoadModel(bytes.NewReader(data), db); err == nil {
			for i, p := range m.Params() {
				if p.T.HasNaN() {
					t.Fatalf("LoadModel accepted a checkpoint whose parameter %d is not finite", i)
				}
			}
		}
		_, _ = Load(bytes.NewReader(data), dst)
	})
}
