package mtmlf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/nn"
)

func loadFileInto(path string, m *Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = Load(f, m)
	return err
}

// oldCheckpoints are the three superseded layouts, built by hand from a
// current file as far as a loader reads before refusing: v1 was one gob
// stream with no preamble (here the gob header it opened with, naming
// the magic and version 1), v2 and v3 the framed preamble with their
// version in front of the sections (a gob meta frame, then one gob
// parameter section in v2 and tensor records in v3).
func oldCheckpoints(v4 []byte) (v1, v2, v3 []byte) {
	v1 = append([]byte("\x29\x7f\x03\x01\x01\x06header\x01\x0a"+CheckpointMagic+"\x01\x02\x00"), v4[ckptPreambleSize:]...)
	framed := func(version uint16) []byte {
		return append(binary.BigEndian.AppendUint16([]byte(CheckpointMagic), version), v4[ckptPreambleSize:]...)
	}
	return v1, framed(2), framed(3)
}

// TestOldCheckpointVersionsRejected: v1–v3 files — which exist only
// where this repo's tests made them — are refused by every loader with
// the typed error, naming the version, and re-saving is the remedy.
func TestOldCheckpointVersionsRejected(t *testing.T) {
	m, _ := tinySetup(t, 71, 1)
	var v4 bytes.Buffer
	if err := Save(&v4, m); err != nil {
		t.Fatal(err)
	}
	v1, v2, v3 := oldCheckpoints(v4.Bytes())
	dst := NewModel(m.Shared.Cfg, m.Feat.DB, 3)
	for i, data := range [][]byte{v1, v2, v3} {
		want := fmt.Sprintf("unsupported checkpoint version %d", i+1)
		for name, err := range loadAny(m, dst, data) {
			var ce *ckptio.CorruptError
			if !errors.As(err, &ce) || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "re-save") {
				t.Fatalf("%s: got %v, want a *ckptio.CorruptError saying %q and to re-save", name, err, want)
			}
		}
	}
}

// loadAny runs every checkpoint entry point over data — Load into dst,
// and the two serving loaders, which build their own destination — and
// returns each one's error by name. dst is a sink: a load that fails
// part way leaves it partially overwritten, which the next attempt
// does not mind.
func loadAny(m, dst *Model, data []byte) map[string]error {
	_, errLoad := Load(bytes.NewReader(data), dst)
	_, _, errLoadModel := LoadModel(bytes.NewReader(data), m.Feat.DB)
	_, _, errLoadLowered := LoadLowered(bytes.NewReader(data), m.Feat.DB, nn.PrecisionInt8, nil)
	return map[string]error{"Load": errLoad, "LoadModel": errLoadModel, "LoadLowered": errLoadLowered}
}

// requireCorrupt fails unless every loader refuses data with the typed
// corruption error.
func requireCorrupt(t *testing.T, what string, m, dst *Model, data []byte) {
	t.Helper()
	for name, err := range loadAny(m, dst, data) {
		var ce *ckptio.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: %s returned %v, want *ckptio.CorruptError", what, name, err)
		}
	}
}

// structuralEnd returns the offset just past everything in a v4
// checkpoint that is not tensor data of the second tensor onward:
// preamble, meta frame, count frame, and the first tensor frame's
// header, shape prefix and first elements.
func structuralEnd(ckpt []byte) int {
	off := ckptPreambleSize
	for frame := 0; frame < 2; frame++ { // meta, count
		off += ckptio.SectionLen(int(binary.BigEndian.Uint64(ckpt[off:])))
	}
	return off + 8 + 3 + 16
}

// sweep calls visit for every offset below structuralEnd and about 48
// evenly spaced ones after it — across the tensor frames, where every
// byte is under the same three checks (frame length, checksum, shape).
func sweep(ckpt []byte, visit func(k, i int)) {
	end := structuralEnd(ckpt)
	stride := max((len(ckpt)-end)/48, 1)
	k := 0
	for i := 0; i < len(ckpt); i++ {
		if i < end || (i-end)%stride == 0 {
			visit(k, i)
			k++
		}
	}
}

// TestCheckpointDetectsBitFlips: single-bit flips anywhere in a v4
// checkpoint — preamble, frame headers, meta record, tensor count, shape
// prefixes, element bits, checksums — must fail every loader with
// *ckptio.CorruptError, never load, never panic: every bit of the
// structural part, and one rotating bit at each of the sampled offsets
// across the tensors. The full cross-product is FuzzLoadModel's.
func TestCheckpointDetectsBitFlips(t *testing.T) {
	m, _ := tinySetup(t, 72, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	ckpt := buf.Bytes()
	dst := NewModel(m.Shared.Cfg, m.Feat.DB, 3)
	end := structuralEnd(ckpt)
	sweep(ckpt, func(k, i int) {
		bits := []int{k % 8}
		if i < end {
			bits = []int{0, 1, 2, 3, 4, 5, 6, 7}
		}
		for _, bit := range bits {
			ckpt[i] ^= 1 << bit
			requireCorrupt(t, fmt.Sprintf("flip byte %d bit %d", i, bit), m, dst, ckpt)
			ckpt[i] ^= 1 << bit
		}
	})
}

// TestCheckpointDetectsTruncation: truncated prefixes of a v4
// checkpoint fail typed — the torn-write shape a crash mid-save (or a
// FailingWriter, below) produces. A cut between two tensor frames is
// the one a format of many frames adds: the file ends cleanly on a
// frame boundary and only the count says tensors are missing.
func TestCheckpointDetectsTruncation(t *testing.T) {
	m, _ := tinySetup(t, 73, 1)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	ckpt := buf.Bytes()
	dst := NewModel(m.Shared.Cfg, m.Feat.DB, 3)
	sweep(ckpt, func(_, n int) {
		requireCorrupt(t, fmt.Sprintf("truncate to %d bytes", n), m, dst, ckpt[:n])
	})
	last := m.Params()[len(m.Params())-1].T
	boundary := len(ckpt) - ckptio.SectionLen(3+8*last.Size())
	requireCorrupt(t, "cut on the last frame boundary", m, dst, ckpt[:boundary])
}

// TestCheckpointSaveThroughFailingWriter: an injected write failure
// (full disk, killed process) surfaces from Save, and whatever prefix
// landed is rejected as corrupt — the unit-level version of the
// SIGKILL drill in scripts/crash_resume_smoke.sh.
func TestCheckpointSaveThroughFailingWriter(t *testing.T) {
	m, _ := tinySetup(t, 74, 1)
	var full bytes.Buffer
	if err := Save(&full, m); err != nil {
		t.Fatal(err)
	}
	dst := NewModel(m.Shared.Cfg, m.Feat.DB, 3)
	for _, cut := range []int64{0, 5, 11, 12, 40, int64(structuralEnd(full.Bytes())), int64(full.Len()) / 2, int64(full.Len()) - 1} {
		var torn bytes.Buffer
		if err := Save(&ckptio.FailingWriter{W: &torn, FailAfter: cut}, m); !errors.Is(err, ckptio.ErrInjected) {
			t.Fatalf("cut %d: Save returned %v, want injected failure", cut, err)
		}
		requireCorrupt(t, fmt.Sprintf("cut %d", cut), m, dst, torn.Bytes())
	}
}

// TestCheckpointRejectsNonFinite: a faithfully saved NaN or Inf is
// refused by every loader with nn.ErrNonFinite — at a reduced tier too,
// where the value would otherwise be rounded or quantized into the
// replica without anyone having looked at it.
func TestCheckpointRejectsNonFinite(t *testing.T) {
	db := tinyDB()
	dst := NewModel(tinyConfig(), db, 3)
	for _, poison := range []func(m *Model){
		func(m *Model) { m.Shared.CardHead.Layers[0].W.T.Data[0] = math.NaN() },
		func(m *Model) { m.Feat.Encs[db.Tables[len(db.Tables)-1].Name].Proj.W.T.Data[5] = math.Inf(-1) },
	} {
		m := NewModel(tinyConfig(), db, 17)
		poison(m)
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		for name, err := range loadAny(m, dst, buf.Bytes()) {
			if !errors.Is(err, nn.ErrNonFinite) {
				t.Fatalf("%s: got %v, want nn.ErrNonFinite", name, err)
			}
		}
	}
}

// TestSaveFileAtomic: SaveFile replaces the destination atomically
// and never leaves a torn file behind a failed producer.
func TestSaveFileAtomic(t *testing.T) {
	m, _ := tinySetup(t, 75, 1)
	path := t.TempDir() + "/model.ckpt"
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	restored := NewModel(m.Shared.Cfg, m.Feat.DB, 42)
	if err := loadFileInto(path, restored); err != nil {
		t.Fatalf("load after SaveFile: %v", err)
	}
	if err := SaveSharedFile(path, m); err != nil {
		t.Fatal(err)
	}
	if err := loadFileInto(path, restored); err != nil {
		t.Fatalf("load after SaveSharedFile: %v", err)
	}
}
