package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
)

// ErrNonFinite is returned (wrapped) by ParamReader for a tensor record
// holding NaN or ±Inf. Such a file is well-formed — its CRC
// matches — but every estimate served from it would be NaN, which
// JSON cannot even carry; refusing it at load is the only place the
// failure is still attributable to the checkpoint.
var ErrNonFinite = errors.New("nn: non-finite parameter")

// Tensor records are the one on-disk form of a parameter list, shared
// by checkpoints and training snapshots (layout and rationale: DESIGN.md
// §7): a count frame (uvarint), then one ckptio frame per tensor — rank
// and extents as uvarints, then the elements' float64 bits,
// little-endian, verbatim, so a round trip is bitwise lossless.

// WriteParams writes params (in order) as tensor records, building
// every frame in one reused buffer.
func WriteParams(w io.Writer, params []*ag.Value) error {
	buf := ckptio.NewSection(nil, binary.MaxVarintLen64)
	buf = ckptio.SealSection(binary.AppendUvarint(buf, uint64(len(params))))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, p := range params {
		data := p.T.Data
		buf = appendShape(ckptio.NewSection(buf, (1+len(p.T.Shape))*binary.MaxVarintLen64+8*len(data)), p.T.Shape)
		buf = ckptio.SealSection(ckptio.AppendF64Run(buf, data))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func appendShape(b []byte, shape []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(shape)))
	for _, d := range shape {
		b = binary.AppendUvarint(b, uint64(d))
	}
	return b
}

// ParamReader reads tensor records one at a time through one reused
// buffer, which therefore grows to the largest tensor and no further.
type ParamReader struct {
	r        io.Reader
	artifact string
	buf      []byte
	shape    []byte // the record prefix the next destination requires
	next     int
	elems    int
}

// NewParamReader reads the count frame of a tensor-record stream and
// requires it to announce exactly want tensors: a stream for another
// architecture fails here, before any destination is written. Frame
// damage is reported as a *ckptio.CorruptError naming artifact.
func NewParamReader(r io.Reader, artifact string, want int) (*ParamReader, error) {
	pr := &ParamReader{r: r, artifact: artifact}
	payload, err := ckptio.ReadSectionInto(r, artifact, nil)
	if err != nil {
		return nil, err
	}
	n, used := binary.Uvarint(payload)
	if used <= 0 || used != len(payload) {
		return nil, ckptio.Corruptf(artifact, "tensor count frame passed its checksum but does not decode")
	}
	if n != uint64(want) {
		return nil, fmt.Errorf("nn: parameter count mismatch: file has %d, model has %d", n, want)
	}
	pr.buf = payload
	return pr, nil
}

// nonFinite is the exponent field of a float64, all ones in NaN and
// ±Inf and in nothing else.
const nonFinite = 0x7FF << 52

// Next reads the next tensor record against the shape its destination
// has and returns its elements, still encoded, valid until the
// following call. In order: a frame of any other length is refused
// unread, the checksum is verified, rank and extents are compared, and
// every element is checked finite (ErrNonFinite) — so a caller that
// copies what Next returns never writes one element of a bad tensor.
func (pr *ParamReader) Next(shape []int) ([]byte, error) {
	size := 1
	for _, d := range shape {
		size *= d
	}
	pr.shape = appendShape(pr.shape[:0], shape)
	payload, err := ckptio.ReadSectionSized(pr.r, pr.artifact, pr.buf, len(pr.shape)+8*size)
	if err != nil {
		return nil, fmt.Errorf("nn: parameter %d %v: %w", pr.next, shape, err)
	}
	pr.buf = payload
	if !bytes.HasPrefix(payload, pr.shape) {
		return nil, pr.shapeError(payload, shape)
	}
	raw := payload[len(pr.shape):]
	for i := 0; i < len(raw); i += 8 {
		if binary.LittleEndian.Uint64(raw[i:])&nonFinite == nonFinite {
			return nil, fmt.Errorf("%w: parameter %d %v holds NaN or Inf", ErrNonFinite, pr.next, shape)
		}
	}
	pr.next++
	pr.elems += size
	return raw, nil
}

// Elements returns the number of tensor elements read so far.
func (pr *ParamReader) Elements() int { return pr.elems }

// shapeError names how a record of the right length still describes
// another tensor: a different rank, or the same rank with other extents.
func (pr *ParamReader) shapeError(payload []byte, shape []int) error {
	if rank, n := binary.Uvarint(payload); n <= 0 || rank != uint64(len(shape)) {
		return fmt.Errorf("nn: parameter %d rank mismatch: file %d, model %d", pr.next, rank, len(shape))
	}
	return fmt.Errorf("nn: parameter %d shape mismatch: the file's extents are not the model's %v", pr.next, shape)
}

// ReadInto reads the next len(params) tensor records into params, each
// tensor written only once Next has passed it. Tensors land as they
// verify: after an error the ones before it hold the file's values.
func (pr *ParamReader) ReadInto(params []*ag.Value) error {
	for _, p := range params {
		raw, err := pr.Next(p.T.Shape)
		if err != nil {
			return err
		}
		ckptio.DecodeF64Run(p.T.Data, raw)
	}
	return nil
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
