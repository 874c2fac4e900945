package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/parallel"
	"mtmlf/internal/tensor"
)

// Wire protocol. Every message is one ckptio section frame — an 8-byte
// big-endian length, the payload, and a CRC32C of the payload — so a
// torn or bit-rotted frame fails with a typed *ckptio.CorruptError
// exactly like a damaged checkpoint would, instead of being decoded
// into a garbage gradient. The payload is [1 kind byte][body]; all
// integers are big-endian, and a run of floats is its IEEE-754 bit
// patterns little-endian (ckptio.AppendF64Run: on a little-endian host,
// one copy of its memory), so a gradient survives the round trip
// bitwise.
//
// A gradient round is a fold along the ranks (see Owns and TCP.AllReduce),
// over links from rank to rank, and its frames are never decoded into
// values of their own: a rank encodes its accumulators straight into a
// kept buffer (fold.appendHop) and the rank it sends them to decodes
// them into its kept accumulators (fold.absorb) or onto its parameters
// (fold.install). Its messages:
//
//	grads:   the prefix, rank r → rank r+1: the slots [0, covered)
//	         summed in slot order
//	reduced: the total, last rank → every other rank: all n slots
//	         summed and scaled
//
// grads and reduced share one layout: step u64, n u32, scale bits u64,
// covered u32, covered × loss f64, entries u32, then per touched
// parameter (ascending): param u32, len u32, len × f64.
//
// The one other lockstep round is the all-gather (TCP.AllGather): every
// rank sends one gather message — its rank u32, then its payload — to
// every other rank.
//
// The coordinator sees only the handshake and the end: a rank's hello
// (which also opens every link between two ranks), the hello-ack that
// carries every rank's address, an error that aborts the fleet at the
// handshake, and each rank's done.

const (
	// protoMagic opens every handshake.
	protoMagic = "MTMLF-DIST"
	// protoVersion is the exchange protocol version: 4 since the ranks
	// exchange frames over links of their own and the coordinator only
	// admits the fleet (3: float runs little-endian, the all-gather).
	protoVersion = 4
)

// Message kinds. Ranks send each other hello/grads/reduced/gather, and
// the coordinator hello/done; the coordinator answers hello with
// helloAck, or with msgError to abort the fleet with a reason.
const (
	msgHello byte = iota + 1
	msgHelloAck
	msgGrads
	msgReduced
	msgGather
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
	case msgGather:
		return "gather"
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
// receives steady-sized messages without allocating. Another kind is
// rank drift, and the coordinator's abort is always an error.
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
		reason := string(c.take(int(c.u32()))) // best effort; may be truncated
		return nil, fmt.Errorf("dist: coordinator aborted the fleet: %s", reason)
	}
	if p[0] != kind {
		return nil, fmt.Errorf("dist: rank drift: expected %s message, got %s", kindName(kind), kindName(p[0]))
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
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

func (c *cursor) u16() uint16 { return binary.BigEndian.Uint16(c.fixed(2)) }
func (c *cursor) u32() uint32 { return binary.BigEndian.Uint32(c.fixed(4)) }
func (c *cursor) u64() uint64 { return binary.BigEndian.Uint64(c.fixed(8)) }

// fixed is take for the fixed-width reads above: past the end it
// returns n zero bytes, which decode as 0.
func (c *cursor) fixed(n int) []byte {
	if p := c.take(n); p != nil {
		return p
	}
	return make([]byte, n)
}

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

// hello is the handshake a rank opens its connection to the coordinator
// and each link to a peer with; addr is where it accepts its peers.
type hello struct {
	rank        int
	world       int
	fingerprint string
	addr        string
}

func encodeHello(h hello) []byte {
	b := newMsg(nil, msgHello, 0)
	b = append(b, protoMagic...)
	b = appendU16(b, protoVersion)
	b = appendU32(b, uint32(h.rank))
	b = appendU32(b, uint32(h.world))
	b = appendBytes(b, []byte(h.fingerprint))
	return appendBytes(b, []byte(h.addr))
}

func decodeHello(body []byte) (hello, error) {
	c := cursor{b: body}
	magic := c.take(len(protoMagic))
	version := c.u16()
	h := hello{rank: int(c.u32()), world: int(c.u32())}
	h.fingerprint = string(c.take(int(c.u32())))
	h.addr = string(c.take(int(c.u32())))
	// Magic and version first: another version's hello may well not
	// parse as this one's.
	switch err := c.done(); {
	case string(magic) != protoMagic:
		return h, fmt.Errorf("dist: handshake magic %q, want %q (not an mtmlf dist worker?)", magic, protoMagic)
	case version != protoVersion:
		return h, fmt.Errorf("dist: protocol version %d, this build speaks %d", version, protoVersion)
	default:
		return h, err
	}
}

// encodeHelloAck builds the coordinator's release of the fleet: every
// rank's address, in rank order.
func encodeHelloAck(addrs []string) []byte {
	b := appendU32(newMsg(nil, msgHelloAck, 0), uint32(len(addrs)))
	for _, a := range addrs {
		b = appendBytes(b, []byte(a))
	}
	return b
}

// decodeHelloAck returns the addresses of a hello-ack body, which must
// name world ranks.
func decodeHelloAck(body []byte, world int) ([]string, error) {
	c := cursor{b: body}
	if n := c.u32(); c.err == nil && int(n) != world {
		return nil, fmt.Errorf("dist: hello-ack names %d ranks, want %d", n, world)
	}
	addrs := make([]string, world)
	for q := range addrs {
		addrs[q] = string(c.take(int(c.u32())))
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return addrs, nil
}

// gatherHead is the front of rank's gather message; the payload
// follows it.
func gatherHead(rank int) []byte { return appendU32([]byte{msgGather}, uint32(rank)) }

// decodeGather returns the payload of a gather body, which must be
// rank from's.
func decodeGather(body []byte, from int) ([]byte, error) {
	c := cursor{b: body}
	rank := c.u32()
	switch {
	case c.err != nil:
		return nil, c.err
	case int(rank) != from:
		return nil, fmt.Errorf("dist: rank drift: rank %d's gather arrived where rank %d's was due", rank, from)
	}
	return body[4:], nil
}

// encodeError builds the coordinator's abort message around its reason.
func encodeError(reason string) []byte {
	return appendBytes(newMsg(nil, msgError, 4+len(reason)), []byte(reason))
}

// ---------------------------------------------------------------------------
// The fold
// ---------------------------------------------------------------------------

// fold is one rank's part of the slot-ordered sum and what it keeps from
// round to round: one accumulator per parameter, allocated the first time
// a slot or a frame names the parameter and sized by this rank's own
// model, never by a length read off the wire. During a round the
// accumulators hold the running sum; at its end the last rank's become
// the parameters' Grad tensors (attach) and every other rank's receive
// the total (install).
type fold struct {
	acc     []*tensor.Tensor
	touched []bool // per parameter: the sum so far has a term for it

	// add's operands, read by sum, which add builds once so that
	// handing the parameters out over the worker pool allocates nothing.
	params []*ag.Value
	slots  []ag.Grads
	s      float64
	sum    func(k int)
}

// start readies f for a round over params. An accumulator still
// attached as its parameter's Grad (a caller that did not ZeroGrad) is
// let go rather than summed into.
func (f *fold) start(params []*ag.Value) {
	if len(f.acc) != len(params) {
		f.acc, f.touched = make([]*tensor.Tensor, len(params)), make([]bool, len(params))
	}
	clear(f.touched)
	for k, p := range params {
		if p.Grad != nil && p.Grad == f.acc[k] {
			f.acc[k] = nil
		}
	}
}

// accFor returns parameter k's accumulator, allocated to p's shape.
func (f *fold) accFor(k int, p *ag.Value) *tensor.Tensor {
	if a := f.acc[k]; a != nil && a.SameShape(p.T) {
		return a
	}
	f.acc[k] = tensor.New(p.T.Shape...)
	return f.acc[k]
}

// add sums the rank's own slots [lo, hi) into the accumulators, then
// multiplies each finished sum by s — the last rank's scale, applied
// once and last as ag.ReduceGrads does, and not at all when s is 1. The
// parameters are handed out over the worker pool (parallel.Each); each
// parameter's sum runs on one goroutine in ascending slot order, so the
// bits do not depend on the pool size.
func (f *fold) add(params []*ag.Value, slots []ag.Grads, lo, hi int, s float64) {
	if f.sum == nil {
		// Parameter k's sum. Its first term is added to zero, as in
		// ag.ReduceGrads: 0 + (−0.0) is +0.0, where a copy would keep
		// the sign.
		f.sum = func(k int) {
			p := f.params[k]
			for _, slot := range f.slots {
				g := slot[p]
				if g == nil {
					continue
				}
				a := f.accFor(k, p)
				if !f.touched[k] {
					clear(a.Data)
					f.touched[k] = true
				}
				a.AddInPlace(g)
			}
			if f.touched[k] && f.s != 1 {
				f.acc[k].ScaleInPlace(f.s)
			}
		}
	}
	f.params, f.slots, f.s = params, slots[lo:hi], s
	parallel.Each(len(params), f.sum)
}

// appendHop encodes the sum so far — of the slots [0, len(losses)) — as
// a message of kind (grads for a prefix, reduced for the total) into
// buf's backing array, sized exactly before the first byte is written.
// Untouched parameters are absent, which keeps ag.ReduceGrads's nil
// Grad across the wire.
func (f *fold) appendHop(buf []byte, kind byte, step uint64, n int, scale float64, losses []float64) []byte {
	size, entries := 8+4+8+4+8*len(losses)+4, 0
	for k, a := range f.acc {
		if f.touched[k] {
			size += 4 + 4 + 8*len(a.Data)
			entries++
		}
	}
	b := newMsg(buf, kind, size)
	b = appendU64(b, step)
	b = appendU32(b, uint32(n))
	b = appendU64(b, math.Float64bits(scale))
	b = appendU32(b, uint32(len(losses)))
	b = ckptio.AppendF64Run(b, losses)
	b = appendU32(b, uint32(entries))
	for k, a := range f.acc {
		if !f.touched[k] {
			continue
		}
		b = appendU32(b, uint32(k))
		b = appendU32(b, uint32(len(a.Data)))
		b = ckptio.AppendF64Run(b, a.Data)
	}
	return b
}

// attach puts the last rank's total on the parameters: an accumulator
// becomes its parameter's Grad, or is added into a Grad the parameter
// already holds, as ag.ReduceGrads does. Parameters no slot touched keep
// a nil Grad, which is how Adam knows to skip them.
func (f *fold) attach(params []*ag.Value) {
	for k, p := range params {
		switch {
		case !f.touched[k]:
		case p.Grad == nil:
			p.Grad = f.acc[k]
		default:
			p.Grad.AddInPlace(f.acc[k])
		}
	}
}

// install takes the total on a rank before the last: into the
// accumulators, then onto the parameters (attach).
func (f *fold) install(body []byte, step uint64, scale float64, params []*ag.Value, losses []float64) error {
	clear(f.touched)
	if err := f.absorb(body, step, scale, len(losses), params, losses); err != nil {
		return err
	}
	f.attach(params)
	return nil
}

// absorb decodes a frame of the chain — a prefix, or the total — into
// the accumulators and its losses into losses[:covered]. It checks the
// frame against the receiving rank: the same step, n (len(losses)) and
// scale as its own round, exactly the slots [0, covered) summed (the
// ones before its block, or all n), and entries in ascending parameter
// order, each naming one of its parameters with that parameter's
// length. Any error is terminal: the fleet aborts, so the accumulators
// are left as they are.
func (f *fold) absorb(body []byte, step uint64, scale float64, covered int, params []*ag.Value, losses []float64) error {
	c := cursor{b: body}
	gotStep, n, gotScale, gotCovered := c.u64(), c.u32(), c.u64(), c.u32()
	switch {
	case c.err != nil:
		return c.err
	case gotStep != step || int(n) != len(losses) || gotScale != math.Float64bits(scale):
		return fmt.Errorf("dist: rank drift: a frame of step %d (n=%d scale=%v) reached a rank at step %d (n=%d scale=%v) — fleet aborted, restart every rank with -resume",
			gotStep, n, math.Float64frombits(gotScale), step, len(losses), scale)
	case int(gotCovered) != covered:
		return fmt.Errorf("dist: step %d: a frame summing slots [0, %d) reached a rank that needs [0, %d)", step, gotCovered, covered)
	}
	lossBytes := c.f64s(gotCovered)
	entries := c.u32()
	if c.err != nil {
		return c.err
	}
	ckptio.DecodeF64Run(losses[:covered], lossBytes)
	for last := -1; entries > 0; entries-- {
		k, data := int(c.u32()), c.f64s(c.u32())
		switch {
		case c.err != nil:
			return c.err
		case k <= last:
			return fmt.Errorf("dist: step %d: a frame names parameter %d after parameter %d (want ascending)", step, k, last)
		case k >= len(params):
			return fmt.Errorf("dist: step %d: a frame names parameter %d, the model has %d", step, k, len(params))
		case len(data) != 8*params[k].T.Size():
			return fmt.Errorf("dist: step %d: a frame has %d floats for parameter %d, which has %d", step, len(data)/8, k, params[k].T.Size())
		}
		last = k
		ckptio.DecodeF64Run(f.accFor(k, params[k]).Data, data)
		f.touched[k] = true
	}
	return c.done()
}
