// Full-model checkpoints.
//
// The paper's deployment story (Section 2.3) ships a pretrained model
// as an artifact: the cloud provider trains, the DBMS loads and
// serves. The (S)+(T) parameters alone are not that artifact — they
// drop the per-database featurizer (F) weights, so a "loaded" model
// would serve from randomly initialized table encoders. The checkpoint
// format here persists everything a serving process needs.
//
// Format v4, the only one this build reads or writes, is a preamble
// followed by ckptio section frames ([8B length][payload][CRC32C]):
//
//	preamble — 10-byte magic "MTMLF-CKPT" + 2-byte big-endian version
//	meta     — one frame, a checkpointMeta in ckptio's record codec: the
//	           Config echo, the database identity (name, table list,
//	           per-table row counts), and whether the file is shared-only
//	count    — one frame: the number of tensors that follow (uvarint)
//	tensors  — one frame per parameter tensor (nn.WriteParams): rank
//	           and extents as uvarints, then the raw little-endian
//	           float64 bits — Model.Params() order (Shared then
//	           Featurizer) for full files, Shared.Params() for
//	           shared-only files
//
// One frame per tensor makes the file streamable at both ends, through
// one buffer the size of the largest tensor (DESIGN.md §7).
//
// Every byte after the preamble is covered by a frame checksum, and
// the preamble itself only has one valid value, so ANY single-bit
// flip or truncation fails the load with a typed *ckptio.CorruptError.
// Files of format v1 (one gob stream), v2 (one gob parameter section)
// and v3 (a gob meta frame) are refused with that same error type,
// naming their version: re-save them with this build's trainer. A
// file's bytes are a function of its content alone.
//
// Loads are strict: wrong magic, another version, a different Config,
// a mismatched table list or tensor count all fail with a descriptive
// error before any weight is touched, and each tensor is verified —
// frame length against its destination's shape, checksum, rank and
// extents, every value finite — before one of its elements is written.
// Round trips are bitwise, which the serving tests rely on: save →
// load → serve must produce the exact floats of the in-memory model.
//
// SaveShared writes a shared-only checkpoint — the paper's transfer
// artifact, loadable into a model for a *different* database (whose
// featurizer then pretrains locally, Algorithm 1 line 4). SaveFile
// and SaveSharedFile are the same artifacts written atomically (temp
// file + fsync + rename), so a crash mid-save never tears a
// checkpoint a server might reload. A training snapshot (snapshot.go)
// is a shared-only checkpoint with a training section after it, which
// the loaders here never read: to them it is that checkpoint.
package mtmlf

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/featurize"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/stats"
	"mtmlf/internal/tensor"
)

const (
	// CheckpointMagic identifies an MTMLF checkpoint stream.
	CheckpointMagic = "MTMLF-CKPT"
	// CheckpointVersion is the one format version this build reads and
	// writes: a raw preamble, then CRC32C-framed meta, tensor count and
	// one frame per tensor.
	CheckpointVersion = 4
	// ckptPreambleSize is the raw preamble: 10 bytes of magic plus a
	// 2-byte big-endian version.
	ckptPreambleSize = 12
)

// CheckpointInfo describes a checkpoint's provenance, echoed into the
// file at save time and returned (validated) by the loaders, plus what
// loading it cost.
type CheckpointInfo struct {
	// Version is the on-disk format version (always CheckpointVersion:
	// no other loads).
	Version int
	// Config is the architecture the weights were trained with; Load
	// requires it to equal the destination model's Config.
	Config Config
	// DBName, Tables, and TableRows identify the database *instance*
	// the featurizer section was trained against: the synthetic
	// generators produce the same table names at every seed and scale,
	// so the per-table row counts are the fingerprint that catches a
	// serve process regenerating a different database than the one
	// the checkpoint was trained on (informational for shared-only
	// files).
	DBName    string
	Tables    []string
	TableRows []int
	// SharedOnly marks a transfer checkpoint: (S)+(T) weights only,
	// no featurizer section.
	SharedOnly bool
	// Tensors and Bytes are the parameter tensors and stream bytes the
	// load consumed; ParamBytes is what those tensors occupy as the
	// float64 model (8 bytes an element), whatever they were loaded as.
	Tensors    int
	Bytes      int64
	ParamBytes int
	// LowerTime is the part of a LoadLowered spent lowering tensors as
	// they landed, as opposed to reading, verifying and decoding them;
	// zero unless the caller supplied a clock.
	LowerTime time.Duration
}

// checkpointMeta is the on-wire metadata record (Version travels in
// the preamble, not here).
type checkpointMeta struct {
	Config     Config
	DBName     string
	Tables     []string
	TableRows  []int
	SharedOnly bool
}

// configFields lists c's fields in record order, the integers and then
// the floats, so the encoder and the decoder walk one list.
func configFields(c *Config) ([]*int, []*float64) {
	f := &c.Feat
	return []*int{&c.Dim, &c.Heads, &c.Blocks, &c.DecBlocks, &c.MaxTables, &c.MaxDepth, &c.BeamWidth,
			&f.Dim, &f.Heads, &f.Blocks, &f.MaxCols, &f.CharDims},
		[]*float64{&c.WCard, &c.WCost, &c.WJo, &c.LR, &c.Lambda, &f.LR}
}

func appendCheckpointMeta(b []byte, m *checkpointMeta) []byte {
	ints, floats := configFields(&m.Config)
	for _, p := range ints {
		b = ckptio.AppendInt(b, *p)
	}
	for _, p := range floats {
		b = ckptio.AppendF64(b, *p)
	}
	b = ckptio.AppendStrs(ckptio.AppendStr(b, m.DBName), m.Tables)
	return ckptio.AppendBool(ckptio.AppendInts(b, m.TableRows), m.SharedOnly)
}

func decodeCheckpointMeta(b []byte) (checkpointMeta, error) {
	var m checkpointMeta
	d := ckptio.NewDec(b)
	ints, floats := configFields(&m.Config)
	for _, p := range ints {
		*p = int(d.Int())
	}
	for _, p := range floats {
		*p = d.F64()
	}
	m.DBName, m.Tables, m.TableRows, m.SharedOnly = d.Str(), d.Strs(), ckptio.Ints[int](&d), d.Bool()
	return m, d.End()
}

// Save writes a full-model checkpoint: Shared (S)+(T) parameters plus
// the per-database Featurizer (F) parameters.
func Save(w io.Writer, m *Model) error {
	return save(w, m, false)
}

// SaveShared writes a shared-only checkpoint — the cross-database
// transfer artifact of Section 2.3. Loading it restores (S)+(T) and
// leaves the destination model's featurizer untouched.
func SaveShared(w io.Writer, m *Model) error {
	return save(w, m, true)
}

// SaveFile writes a full-model checkpoint to path atomically: the
// destination only ever holds a complete checkpoint, even across a
// crash mid-save — the property hot reload (mtmlf-serve re-reading
// the path) and crash-resumed training both depend on.
func SaveFile(path string, m *Model) error {
	return ckptio.WriteFileAtomic(path, func(w io.Writer) error { return Save(w, m) })
}

// SaveSharedFile is SaveShared with SaveFile's atomicity.
func SaveSharedFile(path string, m *Model) error {
	return ckptio.WriteFileAtomic(path, func(w io.Writer) error { return SaveShared(w, m) })
}

func save(w io.Writer, m *Model, sharedOnly bool) error {
	var pre [ckptPreambleSize]byte
	copy(pre[:10], CheckpointMagic)
	binary.BigEndian.PutUint16(pre[10:], CheckpointVersion)
	if _, err := w.Write(pre[:]); err != nil {
		return fmt.Errorf("mtmlf: write checkpoint preamble: %w", err)
	}
	db := m.Feat.DB
	meta := checkpointMeta{
		Config:     m.Shared.Cfg,
		DBName:     db.Name,
		Tables:     db.TableNames(),
		TableRows:  tableRows(db),
		SharedOnly: sharedOnly,
	}
	if err := ckptio.WriteSection(w, appendCheckpointMeta(nil, &meta)); err != nil {
		return fmt.Errorf("mtmlf: write checkpoint meta: %w", err)
	}
	// The full Model.Params() order (Shared then Featurizer), or just
	// Shared.Params() for transfer files.
	params := m.Params()
	if sharedOnly {
		params = m.Shared.Params()
	}
	if err := nn.WriteParams(w, params); err != nil {
		return fmt.Errorf("mtmlf: write parameters: %w", err)
	}
	return nil
}

func tableRows(db *sqldb.DB) []int {
	out := make([]int, len(db.Tables))
	for i, t := range db.Tables {
		out[i] = t.NumRows()
	}
	return out
}

// Load reads a checkpoint into an existing model. The checkpoint's
// Config must equal the model's; for full checkpoints the model's
// database table list must match the one the featurizer was trained
// on (the featurizer parameter order is the table order). Shared-only
// checkpoints load (S)+(T) and skip the featurizer — that is the
// transfer path, so the table lists may differ.
//
// Meta, config, table list and tensor count are all validated before
// any weight is touched, but from there tensors land as they verify: a
// failure at tensor k (a damaged frame, a NaN) leaves m holding the
// file's first k tensors and its own old values after them, and m must
// be discarded.
func Load(r io.Reader, m *Model) (*CheckpointInfo, error) {
	ck, err := openCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if ck.info.Config != m.Shared.Cfg {
		return nil, fmt.Errorf("mtmlf: checkpoint config %+v does not match model config %+v", ck.info.Config, m.Shared.Cfg)
	}
	params := m.Shared.Params()
	if !ck.info.SharedOnly {
		if err := sameDatabase(&ck.info, m.Feat.DB); err != nil {
			return nil, err
		}
		if m.Feat.Frozen() {
			return nil, fmt.Errorf("mtmlf: database %q: a full checkpoint would rewrite its frozen (F) encoders; load into a model from NewForLoad", m.Feat.DB.Name)
		}
		params = m.Params()
	}
	return ck.readAll(params)
}

// LoadModel reads a checkpoint and constructs a ready-to-serve model
// for db using the checkpoint's own Config — the entry point for a
// process that serves at float64 (or wants the model itself), which
// knows the database but not the architecture the weights were trained
// with. Returns an error for shared-only checkpoints: a served model
// needs trained featurizer weights, and a transfer checkpoint by
// definition has none for this database.
func LoadModel(r io.Reader, db *sqldb.DB) (*Model, *CheckpointInfo, error) {
	ck, err := openServable(r, db)
	if err != nil {
		return nil, nil, err
	}
	cfg := ck.info.Config
	// Built without the initialization draws: every weight is about to
	// be overwritten.
	m := &Model{Shared: newShared(cfg, nil), Feat: featurize.NewForLoad(catalog.NewMemory(db), cfg.Feat)}
	info, err := ck.readAll(m.Params())
	if err != nil {
		return nil, nil, err
	}
	return m, info, nil
}

// LoadLowered reads a full checkpoint straight into a reduced-precision
// serving replica (p is PrecisionF32 or PrecisionInt8) — tensor for
// tensor what LoadModel followed by Lower(p) builds — without the
// float64 model ever existing. Shared is small: it is loaded at float64
// and lowered, and its Trans_JO is what the replica decodes with. The
// per-table encoders are nine tenths of the bytes and all of one shape,
// so each is decoded into one scratch float64 encoder that is lowered
// into the replica and reused: the load peaks at the replica plus
// Shared plus one encoder.
//
// Lowering is interleaved with the read, so only the loader can time it
// apart: now (nil for no timing) is read around each lowering step, the
// total reported as CheckpointInfo.LowerTime. A parameter, because this
// package does not read the wall clock (DESIGN.md §8).
func LoadLowered(r io.Reader, db *sqldb.DB, p nn.Precision, now func() time.Time) (*LoweredModel, *CheckpointInfo, error) {
	if p == nn.PrecisionF64 {
		panic("mtmlf: LoadLowered(PrecisionF64) — load the model itself")
	}
	ck, err := openServable(r, db)
	if err != nil {
		return nil, nil, err
	}
	cfg := ck.info.Config
	shared := newShared(cfg, nil)
	scratch := featurize.NewTableEncoder(nil, cfg.Feat)
	sp, ep := shared.Params(), scratch.Params()
	pr, err := ck.params(len(sp) + len(db.Tables)*len(ep))
	if err != nil {
		return nil, nil, err
	}
	if err := pr.ReadInto(sp); err != nil {
		return nil, nil, fmt.Errorf("mtmlf: load parameters: %w", err)
	}
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	tok := &featurize.Tokenizer{DB: db, Stats: stats.Analyze(db), Cfg: cfg.Feat}
	t0 := now()
	lm := &LoweredModel{
		SharedOf: lowerShared[float32](shared, p),
		Feat:     &featurize.Lowered[float32]{Src: tok, Encs: make(map[string]*featurize.TableEncoder[*tensor.F32], len(db.Tables))},
	}
	lowering := now().Sub(t0)
	for _, t := range db.Tables {
		if err := pr.ReadInto(ep); err != nil {
			return nil, nil, fmt.Errorf("mtmlf: load parameters (table %q): %w", t.Name, err)
		}
		t0 = now()
		lm.Feat.Encs[t.Name] = featurize.LowerTableEncoder[float32](scratch, p)
		lowering += now().Sub(t0)
	}
	ck.info.LowerTime = lowering
	return lm, ck.done(pr), nil
}

// ckptStream is a checkpoint open for loading: the reader, counted, and
// the info validated so far.
type ckptStream struct {
	r    io.Reader
	n    int64 // bytes read
	info CheckpointInfo
}

func (c *ckptStream) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// params opens the tensor records, which must number exactly want.
func (c *ckptStream) params(want int) (*nn.ParamReader, error) {
	pr, err := nn.NewParamReader(c, "checkpoint", want)
	if err != nil {
		return nil, fmt.Errorf("mtmlf: load parameters: %w", err)
	}
	c.info.Tensors = want
	return pr, nil
}

// done closes the accounting of a successful load through pr.
func (c *ckptStream) done(pr *nn.ParamReader) *CheckpointInfo {
	c.info.Bytes, c.info.ParamBytes = c.n, 8*pr.Elements()
	return &c.info
}

// readAll reads the whole tensor-record section into params.
func (c *ckptStream) readAll(params []*ag.Value) (*CheckpointInfo, error) {
	pr, err := c.params(len(params))
	if err != nil {
		return nil, err
	}
	if err := pr.ReadInto(params); err != nil {
		return nil, fmt.Errorf("mtmlf: load parameters: %w", err)
	}
	return c.done(pr), nil
}

// openCheckpoint validates everything up to and including the
// metadata, leaving the stream at the tensor count frame.
func openCheckpoint(r io.Reader) (*ckptStream, error) {
	ck := &ckptStream{r: r}
	var pre [ckptPreambleSize]byte
	n, _ := io.ReadFull(ck, pre[:])
	if n < len(CheckpointMagic) || string(pre[:len(CheckpointMagic)]) != CheckpointMagic {
		return nil, ckptio.Corruptf("checkpoint", "no %q magic: not an MTMLF checkpoint (or an unsupported checkpoint version 1 file, which predates the preamble; re-save it with this build's trainer)", CheckpointMagic)
	}
	if n < ckptPreambleSize {
		return nil, ckptio.Corruptf("checkpoint", "truncated preamble (%d bytes)", n)
	}
	if v := int(binary.BigEndian.Uint16(pre[10:])); v != CheckpointVersion {
		// Exactly one value is valid: anything else is an older file, a
		// future one, or bit rot in the version field.
		return nil, ckptio.Corruptf("checkpoint", "unsupported checkpoint version %d (this build reads version %d only; re-save older files with this build's trainer)", v, CheckpointVersion)
	}
	metaPayload, err := ckptio.ReadSection(ck, "checkpoint")
	if err != nil {
		return nil, fmt.Errorf("mtmlf: checkpoint meta: %w", err)
	}
	meta, err := decodeCheckpointMeta(metaPayload)
	if err != nil {
		return nil, ckptio.Corruptf("checkpoint", "meta section passed its checksum but does not decode: %v", err)
	}
	ck.info = CheckpointInfo{
		Version:    CheckpointVersion,
		Config:     meta.Config,
		DBName:     meta.DBName,
		Tables:     meta.Tables,
		TableRows:  meta.TableRows,
		SharedOnly: meta.SharedOnly,
	}
	return ck, nil
}

// openServable is openCheckpoint plus what both serving loaders require
// of a file before allocating anything from its Config: a full
// checkpoint, for this database, with a sane architecture.
func openServable(r io.Reader, db *sqldb.DB) (*ckptStream, error) {
	ck, err := openCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if ck.info.SharedOnly {
		return nil, fmt.Errorf("mtmlf: checkpoint is shared-only (transfer artifact); serving needs a full-model checkpoint")
	}
	if err := sameDatabase(&ck.info, db); err != nil {
		return nil, err
	}
	if err := validateConfig(ck.info.Config); err != nil {
		return nil, err
	}
	return ck, nil
}

// validateConfig rejects architecture configs no trainer could have
// produced — the guard the serving loaders need before trusting a
// decoded Config enough to allocate from it. The meta frame's checksum
// stops bit rot, not a hostile or miswritten file: an unvalidated Heads
// of zero divides by zero inside the attention blocks, and an enormous
// Dim allocates unbounded memory before the tensor count mismatch
// would have failed the load anyway.
func validateConfig(c Config) error {
	bounds := []struct {
		name   string
		v, max int
	}{
		{"Dim", c.Dim, 4096},
		{"Heads", c.Heads, 64},
		{"Blocks", c.Blocks, 64},
		{"DecBlocks", c.DecBlocks, 64},
		{"MaxTables", c.MaxTables, 4096},
		{"MaxDepth", c.MaxDepth, 1024},
		{"Feat.Dim", c.Feat.Dim, 4096},
		{"Feat.Heads", c.Feat.Heads, 64},
		{"Feat.Blocks", c.Feat.Blocks, 64},
		{"Feat.MaxCols", c.Feat.MaxCols, 1 << 16},
		{"Feat.CharDims", c.Feat.CharDims, 1 << 16},
	}
	for _, b := range bounds {
		if b.v < 1 || b.v > b.max {
			return fmt.Errorf("mtmlf: checkpoint config %s = %d outside [1, %d] (damaged checkpoint?)", b.name, b.v, b.max)
		}
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("mtmlf: checkpoint config Heads %d does not divide Dim %d", c.Heads, c.Dim)
	}
	if c.Feat.Dim%c.Feat.Heads != 0 {
		return fmt.Errorf("mtmlf: checkpoint config Feat.Heads %d does not divide Feat.Dim %d", c.Feat.Heads, c.Feat.Dim)
	}
	return nil
}

// sameDatabase verifies the destination database is the instance the
// featurizer section was trained on: same table list (the featurizer
// parameter order) AND same per-table row counts (the synthetic
// generators keep table names fixed across seeds and scales, so a
// serve process started with the wrong -seed/-scale would otherwise
// load cleanly and serve featurizer weights fit to different data).
func sameDatabase(info *CheckpointInfo, db *sqldb.DB) error {
	names := db.TableNames()
	if len(info.Tables) != len(names) {
		return fmt.Errorf("mtmlf: checkpoint trained on %d tables, model database has %d", len(info.Tables), len(names))
	}
	for i := range info.Tables {
		if info.Tables[i] != names[i] {
			return fmt.Errorf("mtmlf: checkpoint table %d is %q, model database has %q", i, info.Tables[i], names[i])
		}
	}
	rows := tableRows(db)
	if len(info.TableRows) != len(rows) {
		return fmt.Errorf("mtmlf: checkpoint lacks per-table row counts (%d for %d tables)", len(info.TableRows), len(rows))
	}
	for i := range rows {
		if info.TableRows[i] != rows[i] {
			return fmt.Errorf("mtmlf: checkpoint table %q has %d rows, model database has %d (database seed/scale mismatch?)",
				info.Tables[i], info.TableRows[i], rows[i])
		}
	}
	return nil
}
