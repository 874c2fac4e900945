package mtmlf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/datagen"
	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

// TestFullCheckpointRoundTripBitwise is the regression test for the
// Shared-only save/load bug: train a model (featurizer pretraining
// included), save a full checkpoint, load it into a model built from
// a DIFFERENT seed — so every weight starts different — and require
// bitwise identical cardinality, cost, and join-order outputs. The
// old nn.Save(Shared.Params()) path fails this: the restored
// featurizer stays random, so the (F) embeddings (and everything
// downstream) diverge.
func TestFullCheckpointRoundTripBitwise(t *testing.T) {
	m, qs := tinySetup(t, 61, 6)
	if _, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{Epochs: 1, Seed: 62}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}

	// Two saves of one model are the same bytes (what the drills `cmp`).
	var again bytes.Buffer
	if err := Save(&again, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two saves of one model differ")
	}

	restored := NewModel(m.Shared.Cfg, m.Feat.DB, 999)
	info, err := Load(bytes.NewReader(buf.Bytes()), restored)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != CheckpointVersion || info.SharedOnly {
		t.Fatalf("info = %+v", info)
	}
	// And a loaded model saves the file it was loaded from.
	again.Reset()
	if err := Save(&again, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("a loaded model saves different bytes")
	}
	if want := len(m.Params()); info.Tensors != want || info.Bytes != int64(buf.Len()) || info.ParamBytes != m.ParamBytes() {
		t.Fatalf("info counts %d tensors, %d bytes, %d parameter bytes; the file has %d, %d, %d",
			info.Tensors, info.Bytes, info.ParamBytes, want, buf.Len(), m.ParamBytes())
	}
	// LoadModel builds its own destination, without drawing: every
	// parameter must still come out bit for bit the saved one.
	built, _, err := LoadModel(bytes.NewReader(buf.Bytes()), m.Feat.DB)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Params() {
		for _, got := range [][]float64{restored.Params()[i].T.Data, built.Params()[i].T.Data} {
			for j, v := range p.T.Data {
				if math.Float64bits(got[j]) != math.Float64bits(v) {
					t.Fatalf("parameter %d element %d: %v != %v", i, j, got[j], v)
				}
			}
		}
	}
	if info.DBName != m.Feat.DB.Name {
		t.Fatalf("DBName %q, want %q", info.DBName, m.Feat.DB.Name)
	}

	for _, lq := range qs {
		a, b := m.EstimateNodeCards(lq), restored.EstimateNodeCards(lq)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("card[%d]: %v != %v (not bitwise)", i, a[i], b[i])
			}
		}
		ac, bc := m.EstimateNodeCosts(lq), restored.EstimateNodeCosts(lq)
		for i := range ac {
			if ac[i] != bc[i] {
				t.Fatalf("cost[%d]: %v != %v (not bitwise)", i, ac[i], bc[i])
			}
		}
		ao := m.InferJoinOrder(lq.Q, lq.Plan)
		bo := restored.InferJoinOrder(lq.Q, lq.Plan)
		if len(ao) != len(bo) {
			t.Fatalf("join order lengths %d != %d", len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("join order[%d]: %q != %q", i, ao[i], bo[i])
			}
		}
	}
}

// TestSharedOnlyCheckpointSkipsFeaturizer: the transfer escape hatch
// restores (S)+(T) and leaves the destination featurizer untouched.
func TestSharedOnlyCheckpointSkipsFeaturizer(t *testing.T) {
	m, qs := tinySetup(t, 63, 3)
	if _, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{Epochs: 1, Seed: 64}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveShared(&buf, m); err != nil {
		t.Fatal(err)
	}
	restored := NewModel(m.Shared.Cfg, m.Feat.DB, 777)
	featBefore := restored.Feat.Params()[0].T.Data[0]
	info, err := Load(bytes.NewReader(buf.Bytes()), restored)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SharedOnly {
		t.Fatal("info.SharedOnly = false")
	}
	if restored.Feat.Params()[0].T.Data[0] != featBefore {
		t.Fatal("shared-only load modified featurizer weights")
	}
	sa, sb := m.Shared.Params(), restored.Shared.Params()
	for i := range sa {
		for j := range sa[i].T.Data {
			if sa[i].T.Data[j] != sb[i].T.Data[j] {
				t.Fatalf("shared param %d differs after load", i)
			}
		}
	}
	// A shared-only checkpoint must be rejected by the serving loader.
	if _, _, err := LoadModel(bytes.NewReader(buf.Bytes()), m.Feat.DB); err == nil {
		t.Fatal("LoadModel accepted a shared-only checkpoint")
	}
}

// TestLoadModelReconstructsConfig: the serving entry point builds the
// model from the checkpoint's config echo and matches the source
// model exactly.
func TestLoadModelReconstructsConfig(t *testing.T) {
	m, qs := tinySetup(t, 65, 2)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	restored, info, err := LoadModel(bytes.NewReader(buf.Bytes()), m.Feat.DB)
	if err != nil {
		t.Fatal(err)
	}
	if info.Config != m.Shared.Cfg {
		t.Fatalf("config echo %+v != %+v", info.Config, m.Shared.Cfg)
	}
	lq := qs[0]
	a, b := m.EstimateNodeCards(lq), restored.EstimateNodeCards(lq)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("card[%d] differs", i)
		}
	}
}

// TestCheckpointRejections covers the typed failure modes: foreign
// magic, future version, config drift, table-list drift, and bare
// tensor records without a preamble.
func TestCheckpointRejections(t *testing.T) {
	m, _ := tinySetup(t, 66, 1)

	// preamble is a framed-file preamble with any magic and version.
	preamble := func(magic string, version uint16) []byte {
		return binary.BigEndian.AppendUint16([]byte(magic), version)
	}

	t.Run("wrong magic", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(preamble("NOT--MTMLF", CheckpointVersion)), m); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("want magic error, got %v", err)
		}
	})

	t.Run("future version", func(t *testing.T) {
		_, err := Load(bytes.NewReader(preamble(CheckpointMagic, CheckpointVersion+1)), m)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", CheckpointVersion+1)) {
			t.Fatalf("want an error naming version %d, got %v", CheckpointVersion+1, err)
		}
	})

	t.Run("headerless legacy stream", func(t *testing.T) {
		var buf bytes.Buffer
		if err := nn.WriteParams(&buf, m.Shared.Params()); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()), m); err == nil {
			t.Fatal("accepted a headerless parameter stream")
		}
	})

	t.Run("tensor count mismatch", func(t *testing.T) {
		// A full checkpoint's preamble and meta in front of Shared's
		// tensor records only: every frame is valid, the file is not.
		var full, records bytes.Buffer
		if err := Save(&full, m); err != nil {
			t.Fatal(err)
		}
		if err := nn.WriteParams(&records, m.Shared.Params()); err != nil {
			t.Fatal(err)
		}
		metaEnd := ckptPreambleSize + ckptio.SectionLen(int(binary.BigEndian.Uint64(full.Bytes()[ckptPreambleSize:])))
		short := append(bytes.Clone(full.Bytes()[:metaEnd]), records.Bytes()...)
		for name, err := range loadAny(m, NewModel(m.Shared.Cfg, m.Feat.DB, 1), short) {
			if err == nil || !strings.Contains(err.Error(), "count mismatch") {
				t.Fatalf("%s: want count mismatch error, got %v", name, err)
			}
		}
	})

	t.Run("config mismatch", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		cfg := m.Shared.Cfg
		cfg.Blocks++
		other := NewModel(cfg, m.Feat.DB, 1)
		if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil || !strings.Contains(err.Error(), "config") {
			t.Fatalf("want config error, got %v", err)
		}
	})

	t.Run("table mismatch", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		db2 := tinyDB()
		db2.Tables = db2.Tables[:len(db2.Tables)-1]
		other := NewModel(m.Shared.Cfg, db2, 1)
		if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil || !strings.Contains(err.Error(), "table") {
			t.Fatalf("want table error, got %v", err)
		}
	})

	t.Run("row-count mismatch (seed/scale drift)", func(t *testing.T) {
		// The synthetic generators keep table names fixed across seeds
		// and scales; a database regenerated with different parameters
		// must be caught by the per-table row-count fingerprint, not
		// load cleanly with featurizer weights fit to different data.
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		db2 := datagen.SyntheticIMDB(5, 0.04) // tinyDB is seed 5, scale 0.05
		other := NewModel(m.Shared.Cfg, db2, 1)
		if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil || !strings.Contains(err.Error(), "rows") {
			t.Fatalf("want row-count error, got %v", err)
		}
		if _, _, err := LoadModel(bytes.NewReader(buf.Bytes()), db2); err == nil || !strings.Contains(err.Error(), "rows") {
			t.Fatalf("LoadModel: want row-count error, got %v", err)
		}
	})
}

// TestLoadLoweredMatchesLower: the replica streamed from a checkpoint
// is the replica LoadModel + Lower builds — every lowered tensor, int8
// scale and quantized byte, and the float64 decoder beside them — so
// the two answer every estimate and join order bit for bit. (The serve
// benchmark's oracle repeats the second half end to end.)
func TestLoadLoweredMatchesLower(t *testing.T) {
	m, qs := tinySetup(t, 67, 6)
	if _, err := m.TrainJointStream(workload.SliceSource(qs), TrainOptions{Epochs: 1, Seed: 68}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadModel(bytes.NewReader(buf.Bytes()), m.Feat.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []nn.Precision{nn.PrecisionF32, nn.PrecisionInt8} {
		want := loaded.Lower(p)
		got, info, err := LoadLowered(bytes.NewReader(buf.Bytes()), m.Feat.DB, p, nil)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if info.Tensors != len(m.Params()) || info.Bytes != int64(buf.Len()) || info.ParamBytes != m.ParamBytes() {
			t.Fatalf("%v: info %+v does not describe a file of %d tensors, %d bytes", p, info, len(m.Params()), buf.Len())
		}
		if got.ParamBytes() != want.ParamBytes() {
			t.Fatalf("%v: streamed replica holds %d parameter bytes, lowered one %d", p, got.ParamBytes(), want.ParamBytes())
		}
		for name, pair := range map[string][2]any{
			"NodeProj":     {got.NodeProj, want.NodeProj},
			"TreePos.Proj": {got.TreePos.Proj, want.TreePos.Proj},
			"JoinEmb":      {got.JoinEmb, want.JoinEmb},
			"Share":        {got.Share, want.Share},
			"CardHead":     {got.CardHead, want.CardHead},
			"CostHead":     {got.CostHead, want.CostHead},
			"Feat.Encs":    {got.Feat.Encs, want.Feat.Encs},
			"Feat.Src.Cfg": {got.Feat.Src.Cfg, want.Feat.Src.Cfg},
			"Cfg":          {got.Cfg, want.Cfg},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("%v: %s of the streamed replica differs from the lowered one", p, name)
			}
		}
		gj, wj := got.JO.Params(), want.JO.Params()
		for i := range wj {
			for j, v := range wj[i].T.Data {
				if math.Float64bits(gj[i].T.Data[j]) != math.Float64bits(v) {
					t.Fatalf("%v: Trans_JO parameter %d element %d differs", p, i, j)
				}
			}
		}
		for _, lq := range qs {
			if a, b := got.EstimateNodeCards(lq), want.EstimateNodeCards(lq); !slices.Equal(a, b) {
				t.Fatalf("%v: cards %v != %v", p, a, b)
			}
			if a, b := got.EstimateNodeCosts(lq), want.EstimateNodeCosts(lq); !slices.Equal(a, b) {
				t.Fatalf("%v: costs %v != %v", p, a, b)
			}
			if a, b := got.InferJoinOrder(lq.Q, lq.Plan), want.InferJoinOrder(lq.Q, lq.Plan); !slices.Equal(a, b) {
				t.Fatalf("%v: join order %v != %v", p, a, b)
			}
		}
	}
}

// TestLoadAllocatesWhatItKeeps is the memory half of the format's
// reason to exist, in the style of ckptio's
// TestSectionLengthDoesNotSizeTheRead: everything a load allocates, live
// or not, is what it returns plus a constant — no second copy of the
// parameters in a decoder, no whole-file buffer, and at a reduced tier
// no float64 featurizer at any point, only Shared and the one encoder
// every table is decoded through.
func TestLoadAllocatesWhatItKeeps(t *testing.T) {
	db := tinyDB()
	cfg := tinyConfig()
	cfg.Dim, cfg.Feat.Dim = 64, 64 // a 10 MB model: the constant must not hide a copy
	m := NewModel(cfg, db, 17)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	allocated := func(load func()) int {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		load()
		runtime.ReadMemStats(&m1)
		return int(m1.TotalAlloc - m0.TotalAlloc)
	}
	const slack = 4 << 20 // ANALYZE of the database, read buffers, the structs around the tensors
	if got, limit := allocated(func() {
		if _, _, err := LoadModel(bytes.NewReader(buf.Bytes()), db); err != nil {
			t.Fatal(err)
		}
	}), m.ParamBytes()+slack; got > limit {
		t.Fatalf("LoadModel of a %d-byte model allocated %d bytes, limit %d", m.ParamBytes(), got, limit)
	}
	shared, encoder := 0, 0
	for _, p := range m.Shared.Params() {
		shared += 8 * p.T.Size()
	}
	for _, p := range m.Feat.Encs[db.Tables[0].Name].Params() {
		encoder += 8 * p.T.Size()
	}
	for _, p := range []nn.Precision{nn.PrecisionF32, nn.PrecisionInt8} {
		var lm *LoweredModel
		got := allocated(func() {
			var err error
			if lm, _, err = LoadLowered(bytes.NewReader(buf.Bytes()), db, p, nil); err != nil {
				t.Fatal(err)
			}
		})
		if limit := lm.ParamBytes() + shared + encoder + slack; got > limit {
			t.Fatalf("LoadLowered(%v) allocated %d bytes, limit %d = replica %d + f64 Shared %d + one encoder %d + %d",
				p, got, limit, lm.ParamBytes(), shared, encoder, slack)
		}
	}
}
