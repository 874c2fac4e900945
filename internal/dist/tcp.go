package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/tensor"
)

// ---------------------------------------------------------------------------
// TCP worker exchanger
// ---------------------------------------------------------------------------

// TCP is the distributed Exchanger: one rank's connection to the
// coordinator. Create it with Dial or DialRetry.
//
// It owns the three things a gradient round needs and keeps them for
// the life of the connection, so a round in steady state allocates
// nothing: out, the grads frame this rank encodes; in, the reduced
// frame it receives; grads, one Grad tensor per parameter, re-attached
// to the parameters the reduced frame names.
type TCP struct {
	conn  net.Conn
	world int
	rank  int
	step  uint64
	once  sync.Once

	out, in []byte
	grads   []*tensor.Tensor
	stats   ExchangeStats
}

// ExchangeStats is what a rank's AllReduce calls did and where their
// time went: Encode is building and checksumming the grads frame, Wait
// runs from its first byte written to the reduced frame's last byte
// read and verified (the other ranks' compute and the coordinator's
// reduction are in it), Install is decoding onto the parameters.
type ExchangeStats struct {
	Rounds                int
	BytesUp, BytesDown    int64
	Encode, Wait, Install time.Duration
}

func (s ExchangeStats) String() string {
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f ms", float64(d)/float64(time.Millisecond)) }
	return fmt.Sprintf("%d rounds, %.2f MB up, %.2f MB down, allreduce %s = encode %s + wait %s + install %s",
		s.Rounds, float64(s.BytesUp)/1e6, float64(s.BytesDown)/1e6,
		ms(s.Encode+s.Wait+s.Install), ms(s.Encode), ms(s.Wait), ms(s.Install))
}

// now is this package's one wall-clock read. It feeds ExchangeStats and
// Coordinator.Waits — what an operator reads at exit — and nothing that
// reaches a gradient, a loss or an artifact.
func now() time.Time {
	return time.Now() //mtmlf:allow:globalrand measurement only, never on the trajectory
}

// Stats returns the totals over this exchanger's AllReduce calls so far.
func (t *TCP) Stats() ExchangeStats { return t.stats }

// Dial connects rank (of world) to the coordinator at addr and
// completes the handshake. The handshake doubles as the startup
// barrier: the coordinator acknowledges only once every rank has
// connected, so a successful Dial means the whole fleet exists.
// fingerprint is an operator-readable description of the training job
// (flags, corpus, seed); the coordinator rejects a fleet whose ranks
// disagree on it, catching misconfigured launches before any
// gradient flows.
func Dial(addr string, rank, world int, fingerprint string) (*TCP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshake(conn, rank, world, fingerprint)
}

// DialRetry is Dial with a bounded connection-retry loop (attempts
// tries, delay apart) so workers may be launched before, after, or
// concurrently with the coordinator. Only the connection itself is
// retried; a handshake rejection is a configuration error and fails
// immediately.
func DialRetry(addr string, rank, world int, fingerprint string, attempts int, delay time.Duration) (*TCP, error) {
	if attempts < 1 {
		attempts = 1
	}
	var conn net.Conn
	var err error
	for try := 0; try < attempts; try++ {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			return handshake(conn, rank, world, fingerprint)
		}
		time.Sleep(delay)
	}
	return nil, fmt.Errorf("dist: no coordinator at %s after %d attempts: %w", addr, attempts, err)
}

func handshake(conn net.Conn, rank, world int, fingerprint string) (*TCP, error) {
	if world < 1 || rank < 0 || rank >= world {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d out of range for world %d", rank, world)
	}
	t := &TCP{conn: conn, world: world, rank: rank}
	if err := sendMsg(conn, encodeHello(hello{rank: rank, world: world, fingerprint: fingerprint})); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: handshake send: %w", err)
	}
	if _, err := readMsg(conn, nil, msgHelloAck); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: handshake: %w", err)
	}
	return t, nil
}

// World returns the fleet shape.
func (t *TCP) World() (int, int) { return t.world, t.rank }

// AllReduce ships this rank's owned slots to the coordinator and
// installs the slot-ordered reduced gradient and the full loss vector
// it sends back. See Exchanger.
func (t *TCP) AllReduce(params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) error {
	t.step++
	start := now()
	t.out = appendGrads(t.out, t.step, params, slots, losses, scale)
	frame := ckptio.SealSection(t.out)
	encoded := now()
	if _, err := t.conn.Write(frame); err != nil {
		return fmt.Errorf("dist: send gradients (step %d): %w", t.step, err)
	}
	p, err := readMsg(t.conn, t.in, msgReduced)
	if err != nil {
		return fmt.Errorf("dist: receive reduced gradient (step %d): %w", t.step, err)
	}
	t.in = p
	received := now()
	if len(t.grads) != len(params) {
		t.grads = make([]*tensor.Tensor, len(params))
	}
	if err := installReduced(p[1:], t.step, params, t.grads, losses); err != nil {
		return err
	}
	t.stats.Rounds++
	t.stats.BytesUp += int64(len(frame))
	t.stats.BytesDown += int64(ckptio.SectionLen(len(p)))
	t.stats.Encode += encoded.Sub(start)
	t.stats.Wait += received.Sub(encoded)
	t.stats.Install += now().Sub(received)
	return nil
}

// BroadcastBytes relays rank 0's payload through the coordinator to
// every rank. See Exchanger.
func (t *TCP) BroadcastBytes(payload []byte) ([]byte, error) {
	if t.rank != 0 {
		payload = nil
	}
	if err := sendMsg(t.conn, encodePayload(msgBcast, payload)); err != nil {
		return nil, fmt.Errorf("dist: send broadcast: %w", err)
	}
	p, err := readMsg(t.conn, nil, msgBcastOut)
	if err != nil {
		return nil, fmt.Errorf("dist: receive broadcast: %w", err)
	}
	return decodePayload(p[1:])
}

// Barrier blocks until every rank has sent its barrier message.
func (t *TCP) Barrier() error {
	if err := sendMsg(t.conn, newMsg(nil, msgBarrier, 0)); err != nil {
		return fmt.Errorf("dist: send barrier: %w", err)
	}
	if _, err := readMsg(t.conn, nil, msgBarrierAck); err != nil {
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
// exactly world ranks, then serves lockstep exchange rounds (gradient
// reduction, broadcast, barrier) until every rank closes. It holds no
// model state — the slot-ordered reduction is pure arithmetic over
// the frames — so the ranks' parameters stay bitwise identical to
// each other and to the single-process run by construction.
//
// The coordinator is fail-stop: any connection error, rank drift, or
// frame corruption aborts the whole fleet (a best-effort error
// message is sent to every surviving rank) and Run returns the
// error. A supervisor restarts the job; rank 0's training snapshot
// re-synchronizes everyone.
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

// Waits returns, per rank, how long in total that rank's gradient
// frames sat at the coordinator before the last frame of their round
// arrived: time the rank idled for slower ranks. The rank whose wait
// stays near zero is the straggler. Read it after Run has returned.
func (c *Coordinator) Waits() []time.Duration { return c.waits }

// rankConn is one admitted rank. After the handshake its connection
// belongs to a serve goroutine, which alternates reading one message
// and writing the reply Run hands it; in is that goroutine's receive
// buffer, kept across rounds, and the payload it delivers aliases it
// until the reply is handed over.
type rankConn struct {
	conn  net.Conn
	in    []byte
	reply chan []byte // one sealed frame per round; closed by Run to stop the goroutine
}

// arrival is one message from a rank, or the error that ended its
// serve goroutine.
type arrival struct {
	rank int
	msg  []byte
	at   time.Time
	err  error
}

// serve is a rank's goroutine: every rank is read, and written to,
// concurrently, so a frame never queues behind another rank's and a
// rank that dies is noticed whichever rank the round is waiting for.
// It sends exactly one arrival per message read and one for the error
// it exits on, never more than one ahead of Run.
func (rc *rankConn) serve(rank int, arrivals chan<- arrival) {
	for {
		p, err := readMsg(rc.conn, rc.in, msgAny)
		if err != nil {
			arrivals <- arrival{rank: rank, err: fmt.Errorf("dist: read from rank %d: %w", rank, err)}
			return
		}
		rc.in = p
		arrivals <- arrival{rank: rank, msg: p, at: now()}
		frame, ok := <-rc.reply
		if !ok {
			return
		}
		if _, err := rc.conn.Write(frame); err != nil {
			arrivals <- arrival{rank: rank, err: fmt.Errorf("dist: send to rank %d: %w", rank, err)}
			return
		}
	}
}

// Run serves one training job to completion: handshake with every
// rank, lockstep exchange rounds, clean exit once all ranks are done.
// It returns nil only for a clean fleet shutdown.
func (c *Coordinator) Run() error {
	conns := make([]*rankConn, c.world)
	var serving sync.WaitGroup
	defer func() {
		c.ln.Close()
		for _, rc := range conns {
			if rc != nil {
				close(rc.reply)
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
	var rd reducer
	msgs := make([][]byte, c.world)
	at := make([]time.Time, c.world)
	for {
		// One lockstep round: every rank sends exactly one message and
		// every message must agree on the kind — a rank asking for a
		// gradient reduction while another says it is done means the
		// fleet has drifted, and fail-stop beats silent divergence.
		for range conns {
			a := <-arrivals
			if a.err != nil {
				return c.abort(conns, a.err)
			}
			msgs[a.rank], at[a.rank] = a.msg, a.at
		}
		kind := msgs[0][0]
		for rank, p := range msgs {
			if p[0] != kind {
				return c.abort(conns, fmt.Errorf("dist: rank drift: rank 0 sent %s, rank %d sent %s",
					kindName(kind), rank, kindName(p[0])))
			}
		}
		var reply []byte
		var err error
		switch kind {
		case msgDone:
			return nil
		case msgBarrier:
			reply = newMsg(nil, msgBarrierAck, 0)
		case msgBcast:
			reply, err = relayBroadcast(msgs[0][1:])
		case msgGrads:
			addWaits(c.waits, at)
			for rank, p := range msgs {
				msgs[rank] = p[1:]
			}
			reply, err = rd.reduce(msgs)
		default:
			err = fmt.Errorf("dist: unexpected %s message mid-run", kindName(kind))
		}
		if err != nil {
			return c.abort(conns, err)
		}
		// Sealed once; every rank's goroutine writes the same bytes. All
		// of them have written before the next round's last arrival, so
		// the reducer's buffer is free again by the time it is reused.
		reply = ckptio.SealSection(reply)
		for _, rc := range conns {
			rc.reply <- reply
		}
	}
}

// addWaits adds to each rank's total how long its frame of one round,
// stamped at[rank], sat until the round's latest frame. The stamps are
// taken before the hand-over to Run, so the latest need not be the one
// Run received last.
func addWaits(waits []time.Duration, at []time.Time) {
	last := at[0]
	for _, t := range at {
		if t.After(last) {
			last = t
		}
	}
	for rank, t := range at {
		waits[rank] += last.Sub(t)
	}
}

// relayBroadcast turns rank 0's bcast body into the message every rank
// receives.
func relayBroadcast(body []byte) ([]byte, error) {
	payload, err := decodePayload(body)
	if err != nil {
		return nil, fmt.Errorf("dist: rank 0 broadcast frame: %w", err)
	}
	return encodePayload(msgBcastOut, payload), nil
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
		conns[h.rank] = &rankConn{conn: conn, reply: make(chan []byte, 1)}
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
