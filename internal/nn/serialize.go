package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"mtmlf/internal/ag"
	"mtmlf/internal/tensor"
)

// ErrNonFinite is returned (wrapped) by DecodeParams for a parameter
// section holding NaN or ±Inf. Such a file is well-formed — its CRC
// matches — but every estimate served from it would be NaN, which
// JSON cannot even carry; refusing it at load is the only place the
// failure is still attributable to the checkpoint.
var ErrNonFinite = errors.New("nn: non-finite parameter")

// paramBlob is the on-wire form of one parameter tensor.
type paramBlob struct {
	Shape []int
	Data  []float64
}

// header is the on-wire checkpoint preamble. Magic identifies the
// artifact kind (so a truncated or foreign file fails loudly instead
// of gob-decoding into garbage), Version gates format evolution.
type header struct {
	Magic   string
	Version int
}

// WriteHeader writes a magic/version preamble to a gob stream.
// Higher-level checkpoint formats (internal/mtmlf's full-model
// checkpoint) start with this so loaders can reject foreign files and
// future versions with a descriptive error.
func WriteHeader(enc *gob.Encoder, magic string, version int) error {
	return enc.Encode(header{Magic: magic, Version: version})
}

// ReadHeader reads a preamble written by WriteHeader, validates the
// magic and that the file's version is in [1, maxVersion], and
// returns the file's version.
func ReadHeader(dec *gob.Decoder, magic string, maxVersion int) (int, error) {
	var h header
	if err := dec.Decode(&h); err != nil {
		return 0, fmt.Errorf("nn: decode checkpoint header: %w", err)
	}
	if h.Magic != magic {
		return 0, fmt.Errorf("nn: bad checkpoint magic %q, want %q", h.Magic, magic)
	}
	if h.Version < 1 || h.Version > maxVersion {
		return 0, fmt.Errorf("nn: unsupported checkpoint version %d (supported 1..%d)", h.Version, maxVersion)
	}
	return h.Version, nil
}

// EncodeParams writes one parameter section (shapes + data, in order)
// to a gob stream. Gob transmits float64s as their exact bit patterns,
// so a save/load round trip is bitwise lossless.
func EncodeParams(enc *gob.Encoder, params []*ag.Value) error {
	blobs := make([]paramBlob, len(params))
	for i, p := range params {
		blobs[i] = paramBlob{Shape: p.T.Shape, Data: p.T.Data}
	}
	return enc.Encode(blobs)
}

// DecodeParams reads a section written by EncodeParams into params,
// validating the element count, every tensor's shape, and that every
// value is finite (ErrNonFinite) before any data is copied — a
// checkpoint for a different architecture (or a reordered parameter
// list) fails with a descriptive error instead of silently smearing
// weights across the wrong tensors, and a rejected file leaves params
// exactly as they were.
func DecodeParams(dec *gob.Decoder, params []*ag.Value) error {
	var blobs []paramBlob
	if err := dec.Decode(&blobs); err != nil {
		return fmt.Errorf("nn: decode parameters: %w", err)
	}
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: parameter count mismatch: file has %d, model has %d", len(blobs), len(params))
	}
	for i, b := range blobs {
		p := params[i]
		if !slices.Equal(b.Shape, p.T.Shape) {
			return fmt.Errorf("nn: parameter %d shape mismatch: file %v, model %v", i, b.Shape, p.T.Shape)
		}
		if len(b.Data) != p.T.Size() {
			return fmt.Errorf("nn: parameter %d size mismatch: file %d, model %d", i, len(b.Data), p.T.Size())
		}
		if (&tensor.Tensor{Data: b.Data}).HasNaN() {
			return fmt.Errorf("%w: parameter %d %v holds NaN or Inf", ErrNonFinite, i, b.Shape)
		}
	}
	for i, b := range blobs {
		copy(params[i].T.Data, b.Data)
	}
	return nil
}

// Save writes the parameters (in order) to w using encoding/gob. Load
// with the same architecture restores them; this is how pre-trained
// MTMLF (S)+(T) modules are shipped to a "new DB" in the paper's
// cloud-service workflow (Section 2.3). The full-model checkpoint
// format (internal/mtmlf Save/Load) wraps this section encoding with
// a magic/version/config header.
func Save(w io.Writer, params []*ag.Value) error {
	return EncodeParams(gob.NewEncoder(w), params)
}

// Load reads parameters written by Save into the given parameter list,
// which must match in count and per-tensor shape.
func Load(r io.Reader, params []*ag.Value) error {
	return DecodeParams(gob.NewDecoder(r), params)
}

// CopyParams copies parameter values from src to dst (shapes must match
// pairwise). Used when cloning a pre-trained module for fine-tuning so
// the original stays intact.
func CopyParams(dst, src []*ag.Value) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: CopyParams count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if dst[i].T.Size() != src[i].T.Size() {
			return fmt.Errorf("nn: CopyParams size mismatch at %d", i)
		}
		copy(dst[i].T.Data, src[i].T.Data)
	}
	return nil
}
