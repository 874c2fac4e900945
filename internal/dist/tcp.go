package dist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
)

// ---------------------------------------------------------------------------
// TCP worker exchanger
// ---------------------------------------------------------------------------

// TCP is the distributed Exchanger: one rank's link to every other rank,
// and its connection to the coordinator that admitted the fleet. Create
// it with DialRetry.
//
// It owns what a gradient round needs and keeps it for the life of the
// links, so a round in steady state allocates nothing: out, the frame
// this rank sends; in, the frame it receives; fold, one accumulator per
// parameter, which also ends the round as the parameter's Grad.
type TCP struct {
	coord net.Conn
	peers []net.Conn // by rank; nil at this rank's own
	world int
	rank  int
	step  uint64
	once  sync.Once

	failed bool // an exchange failed: Close sends no done

	out, in []byte
	fold    fold
	stats   ExchangeStats
}

// ExchangeStats is what a rank's AllReduce calls did and where their
// time went, stage by stage along the chain: WaitPrefix runs from the
// round's start to the prefix's last byte read and verified (the ranks
// before this one are in it; rank 0 has none), Fold is decoding the
// prefix and adding this rank's slots (and, on the last rank, scaling),
// Encode is building and checksumming the outgoing frame, WaitTotal runs
// from its first byte written to the total's last byte read (the ranks
// after this one; on the last rank, only the writes), and Install is
// putting the total on the parameters.
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

// now is this package's one wall-clock read. It feeds ExchangeStats —
// what an operator reads at exit — and the deadline of the mesh's
// accepts, and nothing that reaches a gradient, a loss or an artifact.
func now() time.Time {
	return time.Now() //mtmlf:allow:globalrand measurement and timeouts only, never on the trajectory
}

// Stats returns the totals over this exchanger's AllReduce calls so far.
func (t *TCP) Stats() ExchangeStats { return t.stats }

// PeerLink, when non-nil, is called with every link a rank opens to a
// peer once the link's hello is through, and the rank uses the
// connection it returns: a test wraps the link to tear a frame the way
// a dying peer would. Test-only; production leaves it nil.
var PeerLink func(rank, peer int, conn net.Conn) net.Conn

// DialRetry connects rank (of world) to the coordinator at addr and
// links it to every other rank, retrying the connection to the
// coordinator up to attempts times, delay apart, so workers may be
// launched before, after, or concurrently with the coordinator. The
// handshake doubles as the startup barrier: the coordinator
// acknowledges only once every rank has connected, so a successful dial
// means the whole fleet exists. fingerprint is an operator-readable
// description of the training job (flags, corpus, seed); the
// coordinator rejects a fleet whose ranks disagree on it, catching
// misconfigured launches before any gradient flows — a configuration
// error that is not retried. Linking the ranks to each other gets the
// same budget, attempts × delay, from the acknowledgement on: a rank
// that dies between the acknowledgement and its links fails every rank
// waiting for it.
func DialRetry(addr string, rank, world int, fingerprint string, attempts int, delay time.Duration) (*TCP, error) {
	if world < 1 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("dist: rank %d out of range for world %d", rank, world)
	}
	attempts = max(attempts, 1)
	var conn net.Conn
	var err error
	for try := 0; try < attempts; try++ {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(delay)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: no coordinator at %s after %d attempts: %w", addr, attempts, err)
	}
	t := &TCP{coord: conn, peers: make([]net.Conn, world), world: world, rank: rank}
	if err := t.mesh(fingerprint, time.Duration(attempts)*delay); err != nil {
		return nil, t.fail(err)
	}
	return t, nil
}

// mesh completes the handshake and links the rank to every other. It
// listens on the address it reaches the coordinator from and sends that
// address in its hello; the acknowledgement carries every rank's. Then
// the rank dials the ranks below it and accepts the ranks above it.
// Every link opens with the dialing rank's hello, answered by the
// accepting rank's, and each end checks the other's rank, world and
// fingerprint. Dials, accepts and hellos give up budget after the
// acknowledgement.
func (t *TCP) mesh(fingerprint string, budget time.Duration) error {
	host, _, err := net.SplitHostPort(t.coord.LocalAddr().String())
	if err != nil {
		return fmt.Errorf("dist: handshake: %w", err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("dist: listen for peers: %w", err)
	}
	defer ln.Close()
	hi := encodeHello(hello{rank: t.rank, world: t.world, fingerprint: fingerprint, addr: ln.Addr().String()})
	var addrs []string
	if err = sendMsg(t.coord, hi); err == nil {
		var p []byte
		if p, err = readMsg(t.coord, nil, msgHelloAck); err == nil {
			addrs, err = decodeHelloAck(p[1:], t.world)
		}
	}
	if err != nil {
		return fmt.Errorf("dist: handshake: %w", err)
	}
	deadline := now().Add(budget)
	dialer := net.Dialer{Deadline: deadline}
	for q := range t.rank {
		c, err := dialer.Dial("tcp", addrs[q])
		if err == nil {
			t.peers[q] = c
			if err = sendMsg(c, hi); err == nil {
				_, err = t.peerHello(c, deadline, fingerprint, q)
			}
		}
		if err != nil {
			return fmt.Errorf("dist: link to rank %d at %s: %w", q, addrs[q], err)
		}
	}
	if err := ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
		return err
	}
	for range t.world - 1 - t.rank {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: waiting for the ranks above %d to link: %w", t.rank, err)
		}
		q, err := t.peerHello(c, deadline, fingerprint, -1)
		if err == nil {
			err = sendMsg(c, hi)
		}
		if err != nil {
			c.Close()
			return fmt.Errorf("dist: link from a peer: %w", err)
		}
		t.peers[q] = c
	}
	if PeerLink != nil {
		for q, c := range t.peers {
			if c != nil {
				t.peers[q] = PeerLink(t.rank, q, c)
			}
		}
	}
	return nil
}

// peerHello reads the hello that opens a link, by deadline, and checks
// it: the same world and job, from rank want — or, for want < 0, from a
// rank above this one not yet linked. It returns the peer's rank.
func (t *TCP) peerHello(c net.Conn, deadline time.Time, fingerprint string, want int) (int, error) {
	if err := c.SetDeadline(deadline); err != nil {
		return 0, err
	}
	var h hello
	p, err := readMsg(c, nil, msgHello)
	if err == nil {
		h, err = decodeHello(p[1:])
	}
	switch {
	case err != nil:
		return 0, err
	case h.world != t.world || h.fingerprint != fingerprint:
		return 0, fmt.Errorf("dist: job mismatch: rank %d is running %q at world %d, its peer rank %d %q at world %d",
			t.rank, fingerprint, t.world, h.rank, h.fingerprint, h.world)
	case want >= 0 && h.rank != want, want < 0 && (h.rank <= t.rank || h.rank >= t.world || t.peers[h.rank] != nil):
		return 0, fmt.Errorf("dist: rank %d got a link hello from rank %d", t.rank, h.rank)
	}
	return h.rank, c.SetDeadline(time.Time{})
}

// World returns the fleet shape.
func (t *TCP) World() (int, int) { return t.world, t.rank }

// AllReduce is this rank's hop of the fold: rank 0 sums its block of
// slots; every later rank adds its block to the prefix the rank before
// it sends, and passes the result on; the last rank scales the total
// and sends it, with every slot's loss, to all the others, which
// install it. Each rank but the last sends one gradient. See Exchanger.
func (t *TCP) AllReduce(params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) error {
	t.step++
	n, last := len(slots), t.rank == t.world-1
	lo, hi := block(n, t.world, t.rank)
	start := now()
	prefixed := start
	t.fold.start(params)
	if t.rank > 0 {
		prefix, err := t.receive(t.rank-1, msgGrads, "prefix")
		if err != nil {
			return err
		}
		prefixed = now()
		if err := t.fold.absorb(prefix, t.step, scale, lo, params, losses); err != nil {
			return t.fail(err)
		}
	}
	kind, s, to := msgReduced, scale, t.peers[:t.rank]
	if !last {
		kind, s, to = msgGrads, 1, t.peers[t.rank+1:t.rank+2]
	}
	t.fold.add(params, slots, lo, hi, s)
	folded := now()
	frame := ckptio.SealSection(t.fold.appendHop(t.out, kind, t.step, n, scale, losses[:hi]))
	t.out = frame
	encoded := now()
	for _, c := range to {
		if _, err := c.Write(frame); err != nil {
			return t.fail(fmt.Errorf("dist: send %s (step %d): %w", kindName(kind), t.step, err))
		}
	}
	var total []byte
	if !last {
		var err error
		if total, err = t.receive(t.world-1, msgReduced, "total"); err != nil {
			return err
		}
	}
	received := now()
	if last {
		t.fold.attach(params)
	} else if err := t.fold.install(total, t.step, scale, params, losses); err != nil {
		return t.fail(err)
	}
	t.stats.Rounds++
	t.stats.BytesUp += int64(len(frame) * len(to))
	t.stats.WaitPrefix += prefixed.Sub(start)
	t.stats.Fold += folded.Sub(prefixed)
	t.stats.Encode += encoded.Sub(folded)
	t.stats.WaitTotal += received.Sub(encoded)
	t.stats.Install += now().Sub(received)
	return nil
}

// receive reads the round's next frame, of kind, from rank from into the
// kept buffer, counts it, and returns its body.
func (t *TCP) receive(from int, kind byte, what string) ([]byte, error) {
	p, err := readMsg(t.peers[from], t.in, kind)
	if err != nil {
		return nil, t.fail(fmt.Errorf("dist: receive %s from rank %d (step %d): %w", what, from, t.step, err))
	}
	t.in = p
	t.stats.BytesDown += int64(ckptio.SectionLen(len(p)))
	return p[1:], nil
}

// AllGather sends this rank's gather frame straight from payload to
// every peer while it reads the peers' frames, in rank order: two ranks
// that each send megabytes cannot both be stuck in a write the other
// has not started to read. See Exchanger.
func (t *TCP) AllGather(payload []byte) ([][]byte, error) {
	sent := make(chan error, 1)
	go func() {
		for q, c := range t.peers {
			if c == nil {
				continue
			}
			if err := ckptio.WriteSection(c, gatherHead(t.rank), payload); err != nil {
				sent <- fmt.Errorf("dist: send gather to rank %d: %w", q, err)
				return
			}
		}
		sent <- nil
	}()
	all := make([][]byte, t.world)
	for q, c := range t.peers {
		if c == nil {
			continue
		}
		p, err := readMsg(c, nil, msgGather)
		if err == nil {
			all[q], err = decodeGather(p[1:], q)
		}
		if err != nil {
			err = t.fail(fmt.Errorf("dist: receive rank %d's gather: %w", q, err))
			<-sent // the closed links end the writes
			return nil, err
		}
	}
	if err := <-sent; err != nil {
		return nil, t.fail(err)
	}
	return all, nil
}

// fail ends the exchanger after an exchange failed and returns err:
// every link closes with no done sent, so each peer that reads from this
// rank fails in turn and the coordinator sees the rank go.
func (t *TCP) fail(err error) error {
	t.failed = true
	t.Close()
	return err
}

// Close tells the coordinator this rank is done — unless an exchange on
// it failed — and closes every link. Idempotent.
func (t *TCP) Close() error {
	t.once.Do(func() {
		if !t.failed {
			// Best effort: the coordinator may already be gone, and a
			// close must not mask the original error.
			_ = sendMsg(t.coord, newMsg(nil, msgDone, 0))
		}
		_ = t.coord.Close()
		for _, c := range t.peers {
			if c != nil {
				_ = c.Close()
			}
		}
	})
	return nil
}

// ---------------------------------------------------------------------------
// Coordinator

// ---------------------------------------------------------------------------

// Coordinator is the rendezvous of one distributed training job: it
// admits exactly world ranks, checks that they run one job, hands every
// rank the others' addresses, then waits for each rank's done. It holds
// no model and reads no gradient: the ranks exchange those over their
// own links.
//
// It is fail-stop: a bad handshake or a job mismatch aborts the fleet
// (a best-effort error message goes to every admitted rank), and a rank
// that goes without its done — it died, or an exchange on it failed —
// makes Run return an error. A supervisor restarts the job; rank 0's
// training snapshot re-synchronizes everyone.
type Coordinator struct {
	ln    net.Listener
	world int
}

// NewCoordinator wraps an already-listening socket. The caller owns
// choosing the address (and can print ln.Addr() for the workers);
// Run closes the listener when it returns.
func NewCoordinator(ln net.Listener, world int) *Coordinator {
	return &Coordinator{ln: ln, world: world}
}

// Addr returns the listen address workers should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Run serves one training job to completion: handshake with every rank,
// then one done from each. It returns nil only for a clean fleet
// shutdown.
func (c *Coordinator) Run() error {
	conns := make([]net.Conn, c.world)
	defer func() {
		c.ln.Close()
		for _, conn := range conns {
			if conn != nil {
				conn.Close()
			}
		}
	}()
	addrs, err := c.accept(conns)
	if err != nil {
		return err
	}
	// Every rank is connected and validated: release them together.
	// This is the fleet's startup barrier.
	ack := encodeHelloAck(addrs)
	for rank, conn := range conns {
		if err := sendMsg(conn, ack); err != nil {
			return c.abort(conns, fmt.Errorf("dist: ack rank %d: %w", rank, err))
		}
	}
	// Every rank is read at once, so a rank that dies is noticed however
	// long the others train. The first error returns, and the deferred
	// close ends the other reads.
	errs := make(chan error, c.world)
	for rank, conn := range conns {
		go func() {
			_, err := readMsg(conn, nil, msgDone)
			if err != nil {
				err = fmt.Errorf("dist: rank %d left without done: %w", rank, err)
			}
			errs <- err
		}()
	}
	for range conns {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// accept admits exactly world ranks, validating each handshake and
// cross-checking the job fingerprints, and returns each rank's address
// for its peers.
func (c *Coordinator) accept(conns []net.Conn) ([]string, error) {
	fingerprints, addrs := make([]string, c.world), make([]string, c.world)
	for admitted := 0; admitted < c.world; {
		conn, err := c.ln.Accept()
		if err != nil {
			return nil, c.abort(conns, fmt.Errorf("dist: accept: %w", err))
		}
		p, err := readMsg(conn, nil, msgHello)
		if err != nil {
			conn.Close()
			return nil, c.abort(conns, fmt.Errorf("dist: handshake: %w", err))
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
			return nil, c.abort(conns, err)
		}
		conns[h.rank] = conn
		fingerprints[h.rank], addrs[h.rank] = h.fingerprint, h.addr
		admitted++
	}
	for rank, fp := range fingerprints {
		if fp != fingerprints[0] {
			return nil, c.abort(conns, fmt.Errorf("dist: job mismatch: rank 0 is running %q, rank %d is running %q",
				fingerprints[0], rank, fp))
		}
	}
	return addrs, nil
}

// abort tells every admitted rank why the fleet is going down (best
// effort) and returns err for Run.
func (c *Coordinator) abort(conns []net.Conn, err error) error {
	frame := ckptio.SealSection(encodeError(err.Error()))
	for _, conn := range conns {
		if conn != nil {
			_, _ = conn.Write(frame)
		}
	}
	return err
}
