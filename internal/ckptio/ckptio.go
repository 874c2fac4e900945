// Package ckptio is the durability layer under every on-disk training
// artifact: checkpoints, corpora, and training snapshots. It supplies
// the record codec their structured data is written in (record.go) and
// the two properties the artifacts themselves cannot express:
//
//   - integrity: a section frame wraps each payload in an explicit
//     length and a CRC32C (Castagnoli) checksum, so truncation and bit
//     rot fail the load with a typed *CorruptError instead of decoding
//     into garbage weights;
//   - atomicity: AtomicFile writes into a temp file in the destination
//     directory and commits with fsync + rename + directory fsync, so
//     a crash mid-write leaves either the previous artifact or the new
//     one, never a torn hybrid.
//
// The package also hosts the fault-injection hooks the durability
// tests drive: FailingWriter (fail or short-write after N bytes) and
// the CrashPoint hook that stops a commit at a chosen point so tests
// can observe the on-disk state a real crash would have left.
package ckptio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// CorruptError reports an artifact this build cannot read: one whose
// bytes fail an integrity check — truncation, bit rot, a torn write, or
// hostile input — or one in a format version this build does not read.
// It exists so callers can distinguish "this file is unusable"
// (errors.As) from I/O errors and honest config mismatches.
type CorruptError struct {
	// Artifact names the file kind ("checkpoint", "corpus",
	// "snapshot").
	Artifact string
	// Reason describes the failed check.
	Reason string
}

func (e *CorruptError) Error() string {
	return "ckptio: corrupt " + e.Artifact + ": " + e.Reason
}

// Corruptf builds a *CorruptError with a formatted reason.
func Corruptf(artifact, format string, args ...any) error {
	return &CorruptError{Artifact: artifact, Reason: fmt.Sprintf(format, args...)}
}

// castagnoli is the CRC32C polynomial table — the checksum family
// storage systems standardized on (hardware-accelerated on amd64 and
// arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// The two ends of a section frame, both big-endian: the payload's
// length in front of it, its CRC32C behind.
const (
	sectionHeaderLen = 8
	checksumLen      = 4
)

// SectionLen returns the bytes a payload of n bytes occupies framed.
func SectionLen(n int) int { return sectionHeaderLen + n + checksumLen }

// maxSectionBytes bounds a frame's declared payload length. A flipped
// bit in the length field must fail as corruption, not as a
// multi-gigabyte allocation.
const maxSectionBytes = 1 << 30

// WriteSection writes one framed section: [8B length][payload][4B
// CRC32C of payload].
func WriteSection(w io.Writer, payload []byte) error {
	var hdr [sectionHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum [checksumLen]byte
	binary.BigEndian.PutUint32(sum[:], Checksum(payload))
	_, err := w.Write(sum[:])
	return err
}

// NewSection starts a frame to be built in place, in buf's backing
// array when a frame around size payload bytes fits in it and in a
// grown one when it does not. The caller appends the payload to what it
// returns and hands that to SealSection.
func NewSection(buf []byte, size int) []byte {
	var hdr [sectionHeaderLen]byte
	return append(slices.Grow(buf[:0], SectionLen(size)), hdr[:]...)
}

// SealSection completes a frame begun by NewSection. One Write of the
// result sends the bytes WriteSection would, checksummed once however
// many peers receive them; a frame whose payload did not outgrow the
// size NewSection was given is sealed without allocating.
func SealSection(frame []byte) []byte {
	payload := frame[sectionHeaderLen:]
	binary.BigEndian.PutUint64(frame, uint64(len(payload)))
	return binary.BigEndian.AppendUint32(frame, Checksum(payload))
}

// minSectionRead is the first allocation of a ReadSectionInto that was
// given no buffer (or too small a one).
const minSectionRead = 4096

// ReadSection reads one framed section and verifies its checksum,
// returning the payload. Truncation, an implausible length, and a
// checksum mismatch all return a *CorruptError naming artifact.
func ReadSection(r io.Reader, artifact string) ([]byte, error) {
	return ReadSectionInto(r, artifact, nil)
}

// ReadSectionInto is ReadSection into a buffer the caller keeps: the
// payload lands in buf's backing array (buf's length is ignored) when
// it fits and in a grown one when it does not, so a caller reading
// frames of a steady size — the dist exchange, every round — allocates
// only while they still grow. The payload aliases the buffer, with its
// checksum in the 4 bytes right behind it (a relay resends the frame
// from there); hand it back as buf to reuse it.
func ReadSectionInto(r io.Reader, artifact string, buf []byte) ([]byte, error) {
	return ReadSectionSized(r, artifact, buf, -1)
}

// ReadSectionSized is ReadSectionInto for a frame whose payload length
// the reader already knows (a tensor record: the destination's shape
// fixes it). A header that declares any other length is rejected
// before one payload byte is read. A negative want accepts any length.
func ReadSectionSized(r io.Reader, artifact string, buf []byte, want int) ([]byte, error) {
	// The header is read into the buffer the payload will overwrite: an
	// array of its own would escape through r and cost every call an
	// allocation.
	if cap(buf) < sectionHeaderLen {
		buf = make([]byte, sectionHeaderLen)
	}
	hdr := buf[:sectionHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, Corruptf(artifact, "truncated section header: %v", err)
	}
	n := binary.BigEndian.Uint64(hdr)
	if n > maxSectionBytes {
		return nil, Corruptf(artifact, "section length %d exceeds limit %d (corrupt length field?)", n, maxSectionBytes)
	}
	if want >= 0 && n != uint64(want) {
		return nil, Corruptf(artifact, "section length %d, want exactly %d", n, want)
	}
	// Payload and checksum are read together. The buffer grows only as
	// fast as bytes arrive (doubling): a corrupt length just under the
	// cap must fail at EOF, not allocate a gigabyte first.
	need := int(n) + checksumLen
	buf = buf[:0]
	for len(buf) < need {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(need-len(buf), max(len(buf), minSectionRead)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), need)])
		buf = buf[:len(buf)+m]
		if err != nil && uint64(len(buf)) < n {
			return nil, Corruptf(artifact, "truncated section payload (%d of %d declared bytes): %v", len(buf), n, err)
		}
		if err != nil {
			return nil, Corruptf(artifact, "truncated section checksum: %v", err)
		}
	}
	payload := buf[:n]
	if want, got := binary.BigEndian.Uint32(buf[n:]), Checksum(payload); want != got {
		return nil, Corruptf(artifact, "section checksum mismatch: stored %08x, computed %08x", want, got)
	}
	return payload, nil
}
