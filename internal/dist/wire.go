package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/tensor"
)

// Wire protocol. Every message is one ckptio section frame — an 8-byte
// big-endian length, the payload, and a CRC32C of the payload — so a
// torn or bit-rotted frame fails with a typed *ckptio.CorruptError
// exactly like a damaged checkpoint would, instead of being decoded
// into a garbage gradient. The payload is [1 kind byte][body]; all
// integers are big-endian, all floats are IEEE-754 bit patterns
// (math.Float64bits), so a gradient survives the round trip bitwise.
//
// The two frames of a gradient round are never decoded into values of
// their own: the worker encodes its slots' tensors straight into a
// kept buffer (appendGrads), the coordinator sums from the received
// bytes into kept accumulators and encodes the answer into another
// (reducer), and the worker decodes that into kept Grad tensors
// (installReduced). Their layouts:
//
//	grads:   step u64, n u32, scale f64, slots u32, then per owned slot
//	         (ascending): slot u32, loss f64, entries u32, then per
//	         touched parameter (ascending): param u32, len u32, len × f64
//	reduced: step u64, n u32, n × loss f64, entries u32, then per
//	         touched parameter (ascending): param u32, len u32, len × f64

const (
	// protoMagic opens every handshake.
	protoMagic = "MTMLF-DIST"
	// protoVersion is the exchange protocol version.
	protoVersion = 1
)

// Message kinds. Workers send hello/grads/bcast/barrier/done; the
// coordinator answers helloAck/reduced/bcastOut/barrierAck and may
// send errMsg to abort the fleet with a reason.
const (
	msgAny byte = iota // readMsg only: whatever kind the peer sent
	msgHello
	msgHelloAck
	msgGrads
	msgReduced
	msgBcast
	msgBcastOut
	msgBarrier
	msgBarrierAck
	msgDone
	msgError
)

// kindName names a message kind for error text.
func kindName(k byte) string {
	switch k {
	case msgHello:
		return "hello"
	case msgHelloAck:
		return "hello-ack"
	case msgGrads:
		return "grads"
	case msgReduced:
		return "reduced"
	case msgBcast:
		return "bcast"
	case msgBcastOut:
		return "bcast-out"
	case msgBarrier:
		return "barrier"
	case msgBarrierAck:
		return "barrier-ack"
	case msgDone:
		return "done"
	case msgError:
		return "error"
	}
	return fmt.Sprintf("kind-%d", k)
}

// newMsg starts a message of kind in buf's backing array, grown when a
// body of size bytes would not fit in it. Encoders append the body.
func newMsg(buf []byte, kind byte, size int) []byte {
	return append(ckptio.NewSection(buf, 1+size), kind)
}

// sendMsg seals a message built on newMsg and sends the frame in one
// Write.
func sendMsg(w io.Writer, msg []byte) error {
	_, err := w.Write(ckptio.SealSection(msg))
	return err
}

// readMsg receives one framed message of the given kind into buf's
// backing array (grown when it is too small) and returns its payload,
// kind byte included: a caller that keeps the payload as its next buf
// receives steady-sized messages without allocating. msgAny accepts
// every kind but the coordinator's abort, which is always an error.
func readMsg(r io.Reader, buf []byte, kind byte) ([]byte, error) {
	p, err := ckptio.ReadSectionInto(r, "dist", buf)
	if err != nil {
		return nil, err
	}
	if len(p) == 0 {
		return nil, ckptio.Corruptf("dist", "empty message frame")
	}
	if p[0] == msgError {
		c := cursor{b: p[1:]}
		reason := string(c.bytes(int(c.u32()))) // best effort; may be truncated
		return nil, fmt.Errorf("dist: coordinator aborted the fleet: %s", reason)
	}
	if kind != msgAny && p[0] != kind {
		return nil, fmt.Errorf("dist: expected %s message, got %s", kindName(kind), kindName(p[0]))
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// appendF64s bulk-encodes v: one capacity check, then stores.
func appendF64s(b []byte, v []float64) []byte {
	off := len(b)
	b = slices.Grow(b, 8*len(v))[:off+8*len(v)]
	for at := b[off:]; len(v) > 0; at, v = at[8:], v[1:] {
		binary.BigEndian.PutUint64(at, math.Float64bits(v[0]))
	}
	return b
}

// getF64s decodes the bulk-encoded run src, which holds len(dst)
// floats, into dst; addF64s adds it into dst element by element.
// Walking src by reslicing instead of by index is worth a third of
// either loop.
func getF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src))
		src = src[8:]
	}
}

func addF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] += math.Float64frombits(binary.BigEndian.Uint64(src))
		src = src[8:]
	}
}

// cursor is a bounds-checked big-endian decoder. Reads past the end
// set err and return zero values; callers check err once at the end,
// so a truncated body is one error path instead of a panic.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.off {
		c.err = fmt.Errorf("dist: truncated message body (want %d bytes at offset %d of %d)", n, c.off, len(c.b))
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

func (c *cursor) u16() uint16 {
	p := c.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (c *cursor) u32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (c *cursor) u64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (c *cursor) bytes(n int) []byte { return c.take(n) }

// f64s returns the bytes of a run of n floats, still encoded: the
// gradient paths add or copy out of them with no []float64 between. n
// comes off the wire, so it is checked before it is multiplied.
func (c *cursor) f64s(n uint32) []byte {
	if c.err == nil && uint64(n) > uint64(len(c.b)-c.off)/8 {
		c.err = fmt.Errorf("dist: truncated message body (want %d floats at offset %d of %d)", n, c.off, len(c.b))
	}
	return c.take(8 * int(n))
}

// done verifies the whole body was consumed and returns any decode
// error.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("dist: %d trailing bytes after message body", len(c.b)-c.off)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

// hello is the handshake a worker opens its connection with.
type hello struct {
	rank        int
	world       int
	fingerprint string
}

func encodeHello(h hello) []byte {
	b := newMsg(nil, msgHello, 0)
	b = append(b, protoMagic...)
	b = appendU16(b, protoVersion)
	b = appendU32(b, uint32(h.rank))
	b = appendU32(b, uint32(h.world))
	return appendBytes(b, []byte(h.fingerprint))
}

func decodeHello(body []byte) (hello, error) {
	c := cursor{b: body}
	magic := c.bytes(len(protoMagic))
	version := c.u16()
	h := hello{rank: int(c.u32()), world: int(c.u32())}
	h.fingerprint = string(c.bytes(int(c.u32())))
	if err := c.done(); err != nil {
		return h, err
	}
	if string(magic) != protoMagic {
		return h, fmt.Errorf("dist: handshake magic %q, want %q (not an mtmlf dist worker?)", magic, protoMagic)
	}
	if version != protoVersion {
		return h, fmt.Errorf("dist: protocol version %d, coordinator speaks %d", version, protoVersion)
	}
	return h, nil
}

// encodePayload builds a message of kind around one opaque payload
// (bcast/bcast-out/error frames all carry one length-prefixed byte
// string).
func encodePayload(kind byte, payload []byte) []byte {
	return appendBytes(newMsg(nil, kind, 4+len(payload)), payload)
}

func decodePayload(body []byte) ([]byte, error) {
	c := cursor{b: body}
	p := c.bytes(int(c.u32()))
	if err := c.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// appendGrads encodes one rank's half of an AllReduce round — its
// owned slots' losses and per-parameter gradients — into buf's backing
// array, sized exactly before the first byte is written. Parameters a
// slot never touched are simply absent, preserving ag.ReduceGrads's
// nil-Grad semantics across the wire.
func appendGrads(buf []byte, step uint64, params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) []byte {
	size, owned := 8+4+8+4, 0
	for _, slot := range slots {
		if slot == nil {
			continue
		}
		owned++
		size += 4 + 8 + 4
		for _, p := range params {
			if g := slot[p]; g != nil {
				size += 4 + 4 + 8*len(g.Data)
			}
		}
	}
	b := newMsg(buf, msgGrads, size)
	b = appendU64(b, step)
	b = appendU32(b, uint32(len(slots)))
	b = appendF64(b, scale)
	b = appendU32(b, uint32(owned))
	for i, slot := range slots {
		if slot == nil {
			continue
		}
		b = appendU32(b, uint32(i))
		b = appendF64(b, losses[i])
		countAt, entries := len(b), 0
		b = appendU32(b, 0)
		for k, p := range params {
			g := slot[p]
			if g == nil {
				continue
			}
			entries++
			b = appendU32(b, uint32(k))
			b = appendU32(b, uint32(len(g.Data)))
			b = appendF64s(b, g.Data)
		}
		binary.BigEndian.PutUint32(b[countAt:], uint32(entries))
	}
	return b
}

// installReduced decodes the coordinator's answer to round step onto
// this rank: every slot's loss into losses, every reduced gradient onto
// its parameter's Grad. A parameter whose Grad is nil — every one, after
// the trainer's ZeroGrad — gets its tensor from kept (allocated on first
// use, then re-attached round after round) overwritten from the frame;
// one that already holds a gradient accumulates, as ag.ReduceGrads
// does. Parameters the frame does not name keep a nil Grad, which is
// how Adam knows to skip them.
func installReduced(body []byte, step uint64, params []*ag.Value, kept []*tensor.Tensor, losses []float64) error {
	c := cursor{b: body}
	if got := c.u64(); c.err == nil && got != step {
		return fmt.Errorf("dist: reduced frame for step %d, this rank is at step %d", got, step)
	}
	if n := c.u32(); c.err == nil && int(n) != len(losses) {
		return fmt.Errorf("dist: reduced frame has %d losses for an n=%d minibatch", n, len(losses))
	}
	lossBytes := c.f64s(uint32(len(losses)))
	entries := c.u32()
	if c.err != nil {
		return c.err
	}
	getF64s(losses, lossBytes)
	for ; entries > 0; entries-- {
		k := c.u32()
		data := c.f64s(c.u32())
		if c.err != nil {
			return c.err
		}
		if int(k) >= len(params) {
			return fmt.Errorf("dist: reduced gradient for parameter %d, model has %d", k, len(params))
		}
		p := params[k]
		if len(data) != 8*p.T.Size() {
			return fmt.Errorf("dist: reduced gradient for parameter %d has %d elements, parameter has %d",
				k, len(data)/8, p.T.Size())
		}
		if p.Grad != nil {
			addF64s(p.Grad.Data, data)
			continue
		}
		g := kept[k]
		if g == nil || !g.SameShape(p.T) {
			g = tensor.New(p.T.Shape...)
			kept[k] = g
		}
		getF64s(g.Data, data)
		p.Grad = g
	}
	return c.done()
}

// ---------------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------------

// paramAcc is one parameter's running sum at the coordinator.
type paramAcc struct {
	param   uint32
	sum     []float64 // every element +0.0 between rounds
	touched bool      // a slot of the current round added into sum
}

// reducer performs the example-ordered reduction over one round's
// grads frames, straight from their bytes: per parameter, slot
// contributions are summed in ascending slot order — whichever rank
// sent them, in whatever order the frames arrived — and scaled once,
// last; float-op-for-float-op what ag.ReduceGrads does with the full
// slot set in one process. That includes the first operation on a
// parameter being 0 + g, not a copy: 0 + (−0.0) is +0.0, and the
// checkpoints of differently shaped fleets are compared byte for byte.
//
// Everything it holds is kept across rounds. An accumulator is
// allocated the first time a slot names its parameter, from a run of
// floats physically present in the frame, so no length or index read
// off the wire sizes an allocation larger than the frame that carried
// it; after that the parameter's length is fixed and a frame that
// disagrees aborts the fleet.
type reducer struct {
	accs  []paramAcc // ascending param
	slots [][]byte   // the current round's slots, each from its loss on
	out   []byte     // the reduced message
}

// reduce verifies that the round is coherent (same step, same batch
// shape, same scale on every rank; each slot owned exactly once;
// consistent parameter sizes) and returns the reduced message every
// rank receives, unsealed, valid until the next call. bodies[r] is rank
// r's grads body. Any error is terminal: the accumulators are left
// mid-round.
func (rd *reducer) reduce(bodies [][]byte) ([]byte, error) {
	step, scale, err := rd.index(bodies)
	if err != nil {
		return nil, err
	}
	for i, s := range rd.slots {
		if s == nil {
			return nil, fmt.Errorf("dist: no rank owns slot %d of step %d (missing rank?)", i, step)
		}
		c := cursor{b: s[8:]} // past the loss; index walked these bytes: no read can fail
		at, last := 0, -1
		for entries := c.u32(); entries > 0; entries-- {
			param := c.u32()
			data := c.f64s(c.u32())
			if int(param) <= last {
				return nil, fmt.Errorf("dist: slot %d names parameter %d after parameter %d (want ascending)", i, param, last)
			}
			last = int(param)
			for at < len(rd.accs) && rd.accs[at].param < param {
				at++
			}
			if at == len(rd.accs) || rd.accs[at].param != param {
				rd.accs = slices.Insert(rd.accs, at, paramAcc{param: param, sum: make([]float64, len(data)/8)})
			}
			a := &rd.accs[at]
			if 8*len(a.sum) != len(data) {
				return nil, fmt.Errorf("dist: parameter %d gradient size %d from slot %d, %d from an earlier slot or round",
					param, len(data)/8, i, len(a.sum))
			}
			a.touched = true
			addF64s(a.sum, data)
		}
	}
	size, touched := 8+4+8*len(rd.slots)+4, 0
	for i := range rd.accs {
		if rd.accs[i].touched {
			touched++
			size += 4 + 4 + 8*len(rd.accs[i].sum)
		}
	}
	out := newMsg(rd.out, msgReduced, size)
	out = appendU64(out, step)
	out = appendU32(out, uint32(len(rd.slots)))
	for _, s := range rd.slots {
		out = append(out, s[:8]...) // the loss, bit for bit
	}
	out = appendU32(out, uint32(touched))
	for i := range rd.accs {
		a := &rd.accs[i]
		if !a.touched {
			continue
		}
		a.touched = false
		out = appendU32(out, a.param)
		out = appendU32(out, uint32(len(a.sum)))
		at := out[len(out) : len(out)+8*len(a.sum)]
		out = out[:len(out)+len(at)]
		for j, v := range a.sum {
			if scale != 1 {
				v *= scale
			}
			binary.BigEndian.PutUint64(at, math.Float64bits(v))
			at, a.sum[j] = at[8:], 0
		}
	}
	rd.out = out
	return out, nil
}

// index walks every rank's grads body once without touching a float:
// it checks the ranks agree on the round, that each body is well formed
// to its last byte, and files each slot's bytes under its index in
// rd.slots so reduce can visit them in slot order.
func (rd *reducer) index(bodies [][]byte) (step uint64, scale float64, err error) {
	var n uint32
	var scaleBits uint64
	for r, body := range bodies {
		c := cursor{b: body}
		rStep, rN, rScale, owned := c.u64(), c.u32(), c.u64(), c.u32()
		switch {
		case c.err != nil:
			owned = 0 // reported by done below
		case r == 0:
			step, n, scaleBits = rStep, rN, rScale
			// Every slot costs its owner 16 bytes at least, so n is
			// bounded by the bytes received before it sizes anything.
			total := 0
			for _, b := range bodies {
				total += len(b)
			}
			if int(n) > total/16 {
				return 0, 0, fmt.Errorf("dist: step %d: %d frame bytes cannot hold an n=%d minibatch (missing rank?)", step, total, n)
			}
			rd.slots = slices.Grow(rd.slots[:0], int(n))[:n]
			clear(rd.slots)
		case rStep != step || rN != n || rScale != scaleBits:
			return 0, 0, fmt.Errorf("dist: rank drift: rank %d is at step %d (n=%d scale=%v), rank 0 at step %d (n=%d scale=%v) — fleet aborted, restart every rank with -resume",
				r, rStep, rN, math.Float64frombits(rScale), step, n, math.Float64frombits(scaleBits))
		}
		for ; owned > 0 && c.err == nil; owned-- {
			slot, from := c.u32(), c.off
			c.u64() // loss
			for entries := c.u32(); entries > 0 && c.err == nil; entries-- {
				c.u32() // param
				c.f64s(c.u32())
			}
			if c.err != nil {
				break
			}
			if slot >= n {
				return 0, 0, fmt.Errorf("dist: rank %d sent slot %d of an n=%d minibatch", r, slot, n)
			}
			if rd.slots[slot] != nil {
				return 0, 0, fmt.Errorf("dist: slot %d of step %d owned by two ranks (overlapping shards?)", slot, step)
			}
			rd.slots[slot] = body[from:c.off]
		}
		if err := c.done(); err != nil {
			return 0, 0, fmt.Errorf("dist: rank %d gradient frame: %w", r, err)
		}
	}
	return step, math.Float64frombits(scaleBits), nil
}
