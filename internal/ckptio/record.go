package ckptio

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// The record codec: the one encoding of every artifact's structured
// data — a corpus's header, schemas, workloads, examples and index, a
// checkpoint's meta, a snapshot's meta. A record is built from four
// primitives:
//
//   - a uvarint for lengths and flags, a zigzag varint for every Go
//     int, int64 and enum;
//   - a float64 as its eight IEEE-754 bits, little-endian, so NaN
//     payloads, −0 and ±Inf round-trip bitwise;
//   - a string as its uvarint length and bytes;
//   - a bool as one byte, 0 or 1.
//
// Struct fields follow in declaration order, a slice is its uvarint
// length and then its elements, and a nil pointer is a cleared flag
// bit. A zero length decodes to nil, so for any decoded value x,
// decode(encode(x)) is reflect.DeepEqual to x. A record's bytes are a
// function of its content alone: the codec keeps no state between
// records and no registry of types.

// AppendInt appends a signed integer as a zigzag varint.
func AppendInt[T ~int | ~int64](b []byte, v T) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendF64 appends a float64's bits.
func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendStr appends a string.
func AppendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends a bool.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendList appends a slice: its length, then each element as elem
// writes it.
func AppendList[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = elem(b, x)
	}
	return b
}

// AppendInts appends a slice of integers.
func AppendInts[T ~int | ~int64](b []byte, xs []T) []byte { return AppendList(b, xs, AppendInt[T]) }

// AppendF64s appends a slice of float64s.
func AppendF64s(b []byte, xs []float64) []byte {
	return AppendF64Run(binary.AppendUvarint(b, uint64(len(xs))), xs)
}

// nativeLE reports whether this host keeps a float64's bits
// little-endian in memory, so that a run's encoding is its memory.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendF64Run appends v as a run of float64 bits, little-endian and
// without a length: the one float-run encoding of tensor records,
// records and the gradient wire. On a little-endian host it is one copy.
func AppendF64Run(b []byte, v []float64) []byte {
	if !nativeLE {
		return appendF64Loop(b, v)
	}
	return append(b, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))...)
}

// DecodeF64Run decodes the run src, which AppendF64Run wrote and which
// holds len(dst) floats, into dst.
func DecodeF64Run(dst []float64, src []byte) {
	if !nativeLE {
		decodeF64Loop(dst, src)
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), src[:8*len(dst)])
}

// appendF64Loop is AppendF64Run one element at a time, for a big-endian
// host.
func appendF64Loop(b []byte, v []float64) []byte {
	for _, f := range v {
		b = AppendF64(b, f)
	}
	return b
}

// decodeF64Loop is DecodeF64Run one element at a time.
func decodeF64Loop(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// AppendStrs appends a slice of strings.
func AppendStrs(b []byte, xs []string) []byte { return AppendList(b, xs, AppendStr) }

// maxDensity bounds what a record may allocate as it decodes, in bytes
// per record byte. Every element type costs at most this much per byte
// of its own encoding; the densest are the corpus's tables and
// single-table workloads, 40-byte structs that encode in 2 bytes when
// empty. So a valid record never runs out, and no length prefix can buy
// more.
const maxDensity = 20

// Dec reads one record. The first failure sticks: it empties the
// input, so every later read returns a zero value at once, and End
// reports it.
type Dec struct {
	b []byte
	// s, when set, is the whole record as a string: Str returns
	// substrings of it instead of a copy each.
	s string
	// budget is what the record may still allocate.
	budget int
	err    error
}

// NewDec starts decoding the record b.
func NewDec(b []byte) Dec { return Dec{b: b, budget: maxDensity * len(b)} }

// ShareStrings copies the record into one string that every later Str
// returns a substring of, so all of the record's strings share one
// allocation (and keep all of it alive). Call it before the first read.
func (d *Dec) ShareStrings() { d.s = string(d.b) }

// Fail records a decode error, unless one is already recorded.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// Err returns the first failure so far.
func (d *Dec) Err() error { return d.err }

// End reports the record's error, or trailing bytes it did not use.
func (d *Dec) End() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail("%d bytes after the record", len(d.b))
	}
	return d.err
}

// Uvarint reads a length or a flag word.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads an integer AppendInt wrote.
func (d *Dec) Int() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// U32 reads a little-endian CRC32C.
func (d *Dec) U32() uint32 {
	if len(d.b) < 4 {
		d.Fail("truncated checksum")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// F64 reads a float64.
func (d *Dec) F64() float64 {
	if len(d.b) < 8 {
		d.Fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bool reads a bool.
func (d *Dec) Bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.Fail("bad bool")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// Count reads a length prefix of elements at least size bytes each and
// checks it against the bytes left.
func (d *Dec) Count(size int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/size) {
		d.Fail("length %d does not fit in the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// Charge takes n elements of size bytes from the record's allocation
// budget, before they are allocated, and reports whether they fit.
func (d *Dec) Charge(n, size int) bool {
	if n*size > d.budget {
		d.Fail("%d elements of %d bytes exceed what the record may decode to", n, size)
		return false
	}
	d.budget -= n * size
	return true
}

// Str reads a string.
func (d *Dec) Str() string {
	n := d.Count(1)
	var s string
	if d.s != "" {
		at := len(d.s) - len(d.b)
		s = d.s[at : at+n]
	} else if d.Charge(n, 1) {
		s = string(d.b[:n])
	} else {
		return ""
	}
	d.b = d.b[n:]
	return s
}

// List reads a slice AppendList wrote, whose elements encode in at
// least size bytes each.
func List[T any](d *Dec, size int, elem func(*Dec) T) []T {
	var zero T
	n := d.Count(size)
	if n == 0 || !d.Charge(n, int(unsafe.Sizeof(zero))) {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = elem(d)
	}
	return out
}

// Ints reads a slice AppendInts wrote.
func Ints[T ~int | ~int64](d *Dec) []T {
	n := d.Count(1)
	if n == 0 || !d.Charge(n, 8) {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(d.Int())
	}
	return out
}

// F64s reads a slice AppendF64s wrote.
func (d *Dec) F64s() []float64 {
	n := d.Count(8)
	if n == 0 || !d.Charge(n, 8) {
		return nil
	}
	out := make([]float64, n)
	DecodeF64Run(out, d.b)
	d.b = d.b[8*n:]
	return out
}

// Strs reads a slice AppendStrs wrote.
func (d *Dec) Strs() []string { return List(d, 1, (*Dec).Str) }
