package mtmlf

import (
	"encoding/gob"
	"io"

	"mtmlf/internal/nn"
)

// init pins encoding/gob's process-global type-ID allocation to one
// canonical order. Gob assigns a wire type ID the first time a type is
// encoded anywhere in the process, and those IDs appear in the encoded
// bytes — so without this, a run that writes a training-state snapshot
// before its first checkpoint would save a checkpoint that is
// semantically identical but not byte-identical to one from a run
// that never snapshotted. The durability contract leans on
// byte-identical artifacts (`cmp` in the resume and corpus smoke
// drills), so every gob type this package writes is registered here,
// in one fixed order, before any artifact is produced. Parameters are
// not among them: tensor records (nn.WriteParams) are raw frames, not
// gob.
func init() {
	enc := gob.NewEncoder(io.Discard)
	// The nn header first, where it has always been: corpus files open
	// with it, and its ID must not depend on whether this process writes
	// a corpus before or after a checkpoint. Then the checkpoint's one
	// gob type.
	_ = nn.WriteHeader(enc, CheckpointMagic, CheckpointVersion)
	_ = enc.Encode(checkpointMeta{})
	// Snapshot stream types.
	_ = enc.Encode(snapshotMeta{})
	_ = enc.Encode(nn.AdamState{})
}
