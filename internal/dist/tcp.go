package dist

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
)

// ---------------------------------------------------------------------------
// TCP worker exchanger
// ---------------------------------------------------------------------------

// TCP is the distributed Exchanger: one rank's connection to the
// coordinator. Create it with DialRetry.
//
// It owns what a gradient round needs and keeps it for the life of the
// connection, so a round in steady state allocates nothing: out, the
// frame this rank sends; in, the frame it receives; fold, one
// accumulator per parameter, which also ends the round as the
// parameter's Grad.
type TCP struct {
	conn  net.Conn
	world int
	rank  int
	step  uint64
	once  sync.Once

	out, in []byte
	fold    fold
	stats   ExchangeStats
}

// ExchangeStats is what a rank's AllReduce calls did and where their
// time went, stage by stage along the chain: WaitPrefix runs from the
// join's first byte written to the prefix's last byte read and verified
// (the ranks before this one are in it; rank 0 has none), Fold is
// decoding the prefix and adding this rank's slots (and, on the last
// rank, scaling), Encode is building and checksumming the outgoing
// frame, WaitTotal runs from its first byte written to the total's last
// byte read (the ranks after this one; on the last rank, only the
// write), and Install is putting the total on the parameters.
type ExchangeStats struct {
	Rounds             int
	BytesUp, BytesDown int64

	WaitPrefix, Fold, Encode, WaitTotal, Install time.Duration
}

func (s ExchangeStats) String() string {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f ms", float64(d)/float64(time.Millisecond)) }
	return fmt.Sprintf("%d rounds, %.2f MB up, %.2f MB down, allreduce %s = wait prefix %s + fold %s + encode %s + wait total %s + install %s",
		s.Rounds, float64(s.BytesUp)/1e6, float64(s.BytesDown)/1e6,
		ms(s.WaitPrefix+s.Fold+s.Encode+s.WaitTotal+s.Install),
		ms(s.WaitPrefix), ms(s.Fold), ms(s.Encode), ms(s.WaitTotal), ms(s.Install))
}

// now is this package's one wall-clock read. It feeds ExchangeStats and
// Coordinator.Waits — what an operator reads at exit — and nothing that
// reaches a gradient, a loss or an artifact.
func now() time.Time {
	return time.Now() //mtmlf:allow:globalrand measurement only, never on the trajectory
}

// Stats returns the totals over this exchanger's AllReduce calls so far.
func (t *TCP) Stats() ExchangeStats { return t.stats }

// DialRetry connects rank (of world) to the coordinator at addr and
// completes the handshake, retrying the connection itself up to
// attempts times, delay apart, so workers may be launched before,
// after, or concurrently with the coordinator. The handshake doubles as
// the startup barrier: the coordinator acknowledges only once every
// rank has connected, so a successful dial means the whole fleet
// exists. fingerprint is an operator-readable description of the
// training job (flags, corpus, seed); the coordinator rejects a fleet
// whose ranks disagree on it, catching misconfigured launches before
// any gradient flows — a configuration error that is not retried.
func DialRetry(addr string, rank, world int, fingerprint string, attempts int, delay time.Duration) (*TCP, error) {
	if world < 1 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("dist: rank %d out of range for world %d", rank, world)
	}
	var conn net.Conn
	var err error
	for try := 0; try < max(attempts, 1); try++ {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(delay)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: no coordinator at %s after %d attempts: %w", addr, max(attempts, 1), err)
	}
	if err = sendMsg(conn, encodeHello(hello{rank: rank, world: world, fingerprint: fingerprint})); err == nil {
		_, err = readMsg(conn, nil, msgHelloAck)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: handshake: %w", err)
	}
	return &TCP{conn: conn, world: world, rank: rank}, nil
}

// World returns the fleet shape.
func (t *TCP) World() (int, int) { return t.world, t.rank }

// AllReduce is this rank's hop of the fold: rank 0 sums its block of
// slots; every later rank joins the round, adds its block to the prefix
// the rank before it sends, and passes the result on; the last rank
// scales the total and sends it, with every slot's loss, to all the
// others, which install it. Each rank sends one gradient. See Exchanger.
func (t *TCP) AllReduce(params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) error {
	t.step++
	n, last := len(slots), t.rank == t.world-1
	lo, hi := block(n, t.world, t.rank)
	start := now()
	prefixed, up, down := start, 0, 0
	t.fold.start(params)
	if t.rank > 0 {
		join := ckptio.SealSection(appendU64(newMsg(t.out, msgJoin, 8), t.step))
		if _, err := t.conn.Write(join); err != nil {
			return fmt.Errorf("dist: join step %d: %w", t.step, err)
		}
		p, err := t.receive(msgGrads, "prefix")
		if err != nil {
			return err
		}
		prefixed, up, down = now(), len(join), ckptio.SectionLen(len(p))
		if err := t.fold.absorb(p[1:], t.step, scale, lo, params, losses); err != nil {
			return err
		}
	}
	t.fold.add(params, slots, lo, hi)
	kind := hopKind(t.rank, t.world)
	if last {
		t.fold.scale(scale)
	}
	folded := now()
	frame := ckptio.SealSection(t.fold.appendHop(t.out, kind, t.step, n, scale, losses[:hi]))
	t.out = frame
	encoded := now()
	if _, err := t.conn.Write(frame); err != nil {
		return fmt.Errorf("dist: send %s (step %d): %w", kindName(kind), t.step, err)
	}
	up += len(frame)
	var total []byte
	if !last {
		p, err := t.receive(msgReduced, "total")
		if err != nil {
			return err
		}
		down, total = down+ckptio.SectionLen(len(p)), p[1:]
	}
	received := now()
	if last {
		t.fold.attach(params)
	} else if err := t.fold.install(total, t.step, scale, params, losses); err != nil {
		return err
	}
	t.stats.Rounds++
	t.stats.BytesUp += int64(up)
	t.stats.BytesDown += int64(down)
	t.stats.WaitPrefix += prefixed.Sub(start)
	t.stats.Fold += folded.Sub(prefixed)
	t.stats.Encode += encoded.Sub(folded)
	t.stats.WaitTotal += received.Sub(encoded)
	t.stats.Install += now().Sub(received)
	return nil
}

// receive reads the round's next frame, of kind, into the kept buffer.
func (t *TCP) receive(kind byte, what string) ([]byte, error) {
	p, err := readMsg(t.conn, t.in, kind)
	if err != nil {
		return nil, fmt.Errorf("dist: receive %s (step %d): %w", what, t.step, err)
	}
	t.in = p
	return p, nil
}

// BroadcastBytes relays rank 0's payload through the coordinator to
// every rank, rank 0 included: each receives rank 0's bcast frame as it
// was sent. See Exchanger.
func (t *TCP) BroadcastBytes(payload []byte) ([]byte, error) {
	if t.rank != 0 {
		payload = nil
	}
	if err := sendMsg(t.conn, encodePayload(msgBcast, payload)); err != nil {
		return nil, fmt.Errorf("dist: send broadcast: %w", err)
	}
	p, err := readMsg(t.conn, nil, msgBcast)
	if err != nil {
		return nil, fmt.Errorf("dist: receive broadcast: %w", err)
	}
	return decodePayload(p[1:])
}

// Barrier blocks until every rank has sent its barrier message; the
// coordinator answers with rank 0's.
func (t *TCP) Barrier() error {
	if err := sendMsg(t.conn, newMsg(nil, msgBarrier, 0)); err != nil {
		return fmt.Errorf("dist: send barrier: %w", err)
	}
	if _, err := readMsg(t.conn, nil, msgBarrier); err != nil {
		return fmt.Errorf("dist: barrier: %w", err)
	}
	return nil
}

// Close tells the coordinator this rank is done and closes the
// connection. Idempotent.
func (t *TCP) Close() error {
	t.once.Do(func() {
		// Best effort: the coordinator may already be gone after an
		// abort, and a close must not mask the original error.
		_ = sendMsg(t.conn, newMsg(nil, msgDone, 0))
		_ = t.conn.Close()
	})
	return nil
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

// Coordinator is the hub of one distributed training job: it accepts
// exactly world ranks, then serves lockstep rounds (gradient, broadcast,
// barrier) until every rank closes. It holds no model and does no
// arithmetic: in a gradient round it checks each hop's kind and step
// and forwards the frame as it arrived — rank r's prefix to rank r+1,
// the last rank's total to every other rank.
//
// It is fail-stop: any connection error, rank drift, or frame
// corruption aborts the whole fleet (a best-effort error message goes
// to every surviving rank) and Run returns the error. A supervisor
// restarts the job; rank 0's training snapshot re-synchronizes everyone.
type Coordinator struct {
	ln    net.Listener
	world int
	waits []time.Duration
}

// NewCoordinator wraps an already-listening socket. The caller owns
// choosing the address (and can print ln.Addr() for the workers);
// Run closes the listener when it returns.
func NewCoordinator(ln net.Listener, world int) *Coordinator {
	return &Coordinator{ln: ln, world: world, waits: make([]time.Duration, world)}
}

// Addr returns the listen address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Waits returns, per rank, how long in total the relay waited for that
// rank's hops (see addWaits); the largest names the straggler. Read it
// after Run has returned.
func (c *Coordinator) Waits() []time.Duration { return c.waits }

// rankConn is one admitted rank. After the handshake its connection is
// read by a serve goroutine and written by Run alone. in is the
// goroutine's receive buffer, kept across rounds; the message it
// delivers aliases it until Run sends on next.
type rankConn struct {
	conn net.Conn
	in   []byte
	next chan struct{} // Run is done with the last message; closed to stop the goroutine
}

// arrival is one message from a rank — its payload, and the whole frame
// it came in — or the error that ended its serve goroutine.
type arrival struct {
	rank       int
	msg, frame []byte
	at         time.Time
	err        error
}

// headerLen is the length header in front of a frame's payload.
const headerLen = 8

// serve is a rank's goroutine: every rank is read concurrently, so a
// rank that dies is noticed whichever rank the round waits for. It sends
// one arrival per message and one for the error it exits on, and reads
// the next message only once Run lets go of the last.
//
// A message is read behind headerLen spare bytes of in, where its length
// header is rebuilt, so the frame can be relayed as it arrived —
// checksum included, with one write and no copy.
func (rc *rankConn) serve(rank int, arrivals chan<- arrival) {
	for {
		p, err := readMsg(rc.conn, rc.in[headerLen:], msgAny)
		if err != nil {
			arrivals <- arrival{rank: rank, err: fmt.Errorf("dist: read from rank %d: %w", rank, err)}
			return
		}
		frame := ckptio.SectionLen(len(p))
		if cap(p) != cap(rc.in)-headerLen { // the read outgrew in
			rc.in = make([]byte, headerLen+cap(p))
			copy(rc.in[headerLen:frame], p[:frame-headerLen])
			p = rc.in[headerLen : headerLen+len(p)]
		}
		binary.BigEndian.PutUint64(rc.in, uint64(len(p)))
		arrivals <- arrival{rank: rank, msg: p, frame: rc.in[:frame], at: now()}
		if _, ok := <-rc.next; !ok {
			return
		}
	}
}

// hopKind is what rank's hop of a world-rank gradient round is: a
// prefix, or from the last rank the total.
func hopKind(rank, world int) byte {
	if rank == world-1 {
		return msgReduced
	}
	return msgGrads
}

// opens names the round a rank's first message of it opens. A gradient
// round (msgJoin) is opened by rank 0's hop and every other rank's join.
func (c *Coordinator) opens(rank int, kind byte) byte {
	if rank == 0 && kind == hopKind(0, c.world) {
		return msgJoin
	}
	return kind
}

// stepOf reads the step a join, grads or reduced message opens with.
func stepOf(msg []byte) uint64 {
	cur := cursor{b: msg[1:]}
	return cur.u64()
}

// Run serves one training job to completion: handshake with every
// rank, lockstep rounds, clean exit once all ranks are done. It returns
// nil only for a clean fleet shutdown.
func (c *Coordinator) Run() error {
	conns := make([]*rankConn, c.world)
	var serving sync.WaitGroup
	defer func() {
		c.ln.Close()
		for _, rc := range conns {
			if rc != nil {
				close(rc.next)
				rc.conn.Close()
			}
		}
		serving.Wait()
	}()
	if err := c.accept(conns); err != nil {
		return err
	}
	// Every rank is connected and validated: release them together.
	// This is the fleet's startup barrier.
	for rank, rc := range conns {
		if err := sendMsg(rc.conn, newMsg(nil, msgHelloAck, 0)); err != nil {
			return c.abort(conns, fmt.Errorf("dist: ack rank %d: %w", rank, err))
		}
	}
	// A serve goroutine has at most one arrival in flight, so sends
	// never block, not even after Run has stopped receiving.
	arrivals := make(chan arrival, c.world)
	for rank, rc := range conns {
		serving.Add(1)
		go func() {
			defer serving.Done()
			rc.serve(rank, arrivals)
		}()
	}
	msgs, frames := make([][]byte, c.world), make([][]byte, c.world)
	opened, hops := make([]time.Time, c.world), make([]time.Time, c.world)
	for {
		// A lockstep round opens with one message from every rank, and
		// they must agree on what it is — a rank asking for a barrier
		// while another says it is done means the fleet has drifted,
		// and fail-stop beats silent divergence. Rank 0's hop is relayed
		// the moment it arrives, ahead of the other ranks' joins.
		for range conns {
			a := <-arrivals
			if a.err != nil {
				return c.abort(conns, a.err)
			}
			msgs[a.rank], frames[a.rank], opened[a.rank] = a.msg, a.frame, a.at
			if a.rank == 0 && a.msg[0] == hopKind(0, c.world) {
				hops[0] = a.at
				if err := c.relay(conns, 0, a); err != nil {
					return c.abort(conns, err)
				}
			}
		}
		kind, step := c.opens(0, msgs[0][0]), stepOf(msgs[0])
		for rank, p := range msgs {
			if c.opens(rank, p[0]) != kind || (kind == msgJoin && stepOf(p) != step) {
				return c.abort(conns, fmt.Errorf("dist: rank drift: rank 0 sent %s, rank %d sent %s",
					kindName(msgs[0][0]), rank, kindName(p[0])))
			}
		}
		var reply []byte
		switch kind {
		case msgDone:
			return nil
		case msgBarrier, msgBcast:
			reply = frames[0]
		case msgJoin:
			if err := c.fold(conns, arrivals, step, opened, hops); err != nil {
				return c.abort(conns, err)
			}
			continue
		default:
			return c.abort(conns, fmt.Errorf("dist: unexpected %s message mid-run", kindName(kind)))
		}
		for rank, rc := range conns {
			if _, err := rc.conn.Write(reply); err != nil {
				return c.abort(conns, fmt.Errorf("dist: answer rank %d's %s: %w", rank, kindName(kind), err))
			}
		}
		for _, rc := range conns {
			rc.next <- struct{}{} // after the writes: the reply is rank 0's frame
		}
	}
}

// fold relays a gradient round's hops after rank 0's, each from the
// rank it is due from, and adds up the round's waits.
func (c *Coordinator) fold(conns []*rankConn, arrivals <-chan arrival, step uint64, opened, hops []time.Time) error {
	for _, rc := range conns {
		rc.next <- struct{}{} // rank 0's hop is relayed, the joins need nothing back
	}
	for hop := 1; hop < c.world; hop++ {
		a := <-arrivals
		switch {
		case a.err != nil:
			return a.err
		case a.rank != hop || a.msg[0] != hopKind(hop, c.world) || stepOf(a.msg) != step:
			return fmt.Errorf("dist: rank drift: rank %d sent %s (step %d) while rank %d's hop of step %d was due",
				a.rank, kindName(a.msg[0]), stepOf(a.msg), hop, step)
		}
		hops[hop] = a.at
		if err := c.relay(conns, hop, a); err != nil {
			return err
		}
		conns[hop].next <- struct{}{}
	}
	addWaits(c.waits, opened, hops)
	return nil
}

// relay forwards rank's hop as it arrived: a prefix to the next rank,
// the total to every rank before the last.
func (c *Coordinator) relay(conns []*rankConn, rank int, a arrival) error {
	to := conns[rank+1 : min(rank+2, c.world)]
	if rank == c.world-1 {
		to = conns[:rank]
	}
	for _, rc := range to {
		if _, err := rc.conn.Write(a.frame); err != nil {
			return fmt.Errorf("dist: relay rank %d's %s of step %d: %w", rank, kindName(a.msg[0]), stepOf(a.msg), err)
		}
	}
	return nil
}

// addWaits adds to each rank's total how long the relay waited for its
// hop of one gradient round: rank 0's from the round's first opener,
// every later rank's (its fold included) from the hop before it, which
// it needed.
func addWaits(waits []time.Duration, opened, hops []time.Time) {
	since := slices.MinFunc(opened, time.Time.Compare)
	for rank, at := range hops {
		waits[rank] += at.Sub(since)
		since = at
	}
}

// accept admits exactly world ranks, validating each handshake and
// cross-checking the job fingerprints.
func (c *Coordinator) accept(conns []*rankConn) error {
	fingerprints := make([]string, c.world)
	for admitted := 0; admitted < c.world; {
		conn, err := c.ln.Accept()
		if err != nil {
			return c.abort(conns, fmt.Errorf("dist: accept: %w", err))
		}
		p, err := readMsg(conn, nil, msgHello)
		if err != nil {
			conn.Close()
			return c.abort(conns, fmt.Errorf("dist: handshake: %w", err))
		}
		h, err := decodeHello(p[1:])
		switch {
		case err != nil:
		case h.world != c.world:
			err = fmt.Errorf("dist: rank %d dialed with -dist-world %d, coordinator serves %d", h.rank, h.world, c.world)
		case h.rank < 0 || h.rank >= c.world:
			err = fmt.Errorf("dist: rank %d out of range for world %d", h.rank, c.world)
		case conns[h.rank] != nil:
			err = fmt.Errorf("dist: two workers claim rank %d (duplicate -dist-rank?)", h.rank)
		}
		if err != nil {
			conn.Close()
			return c.abort(conns, err)
		}
		conns[h.rank] = &rankConn{conn: conn, in: make([]byte, headerLen), next: make(chan struct{}, 1)}
		fingerprints[h.rank] = h.fingerprint
		admitted++
	}
	for rank, fp := range fingerprints {
		if fp != fingerprints[0] {
			return c.abort(conns, fmt.Errorf("dist: job mismatch: rank 0 is running %q, rank %d is running %q",
				fingerprints[0], rank, fp))
		}
	}
	return nil
}

// abort tells every surviving rank why the fleet is going down (best
// effort) and returns err for Run.
func (c *Coordinator) abort(conns []*rankConn, err error) error {
	frame := ckptio.SealSection(encodePayload(msgError, []byte(err.Error())))
	for _, rc := range conns {
		if rc != nil {
			_, _ = rc.conn.Write(frame)
		}
	}
	return err
}
