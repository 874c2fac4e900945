// Package dist is the gradient-exchange plane: the seam that turns
// the single-process data-parallel training loop into multi-process
// fleet pretraining without changing a single trajectory bit.
//
// The contract it extracts from the trainer is example-ordered
// gradient reduction. A minibatch of n examples is cut into slots
// 0..n-1; rank r owns one contiguous block of them (Owns); each rank
// runs forward/backward only for its owned slots, into private per-slot
// gradient buffers. AllReduce then combines the buffers exactly the
// way ag.ReduceGrads does — per parameter, summed in slot order, scaled
// once — so the reduced gradient (and therefore the Adam step, the loss
// trajectory, and the final checkpoint) is bitwise identical for every
// process count at a fixed topology (seed, batch size, example set),
// as it is for every worker count.
//
// Two backends implement the plane, both with one fold (wire.go) whose
// accumulators are kept from round to round:
//
//   - Local: world 1, in-process: the fold over every slot.
//   - TCP: world worker ranks linked to each other over TCP, with
//     length-prefixed, CRC32C-framed messages (internal/ckptio section
//     framing), plus a coordinator process that only admits the fleet:
//     it checks every rank's handshake and job fingerprint, hands each
//     rank the others' addresses, and waits for every rank's done.
//     Because the blocks are contiguous, the slot-ordered sum is a fold
//     from rank to rank (TCP.AllReduce): rank r reads its prefix from
//     rank r−1 and sends the next one to rank r+1, the last rank sends
//     the total to every other, and every rank ends the round with the
//     same sum and every slot's loss, so optimizers and statistics
//     advance in lockstep.
//
// Failure model: fail-stop. Any broken link, rank drift (mismatched
// step, batch shape or round kind) or frame corruption fails the rank
// that reads it, and that rank closes its links without a done: each
// peer that reads from it fails in turn, so the failure cascades
// through the mesh, and the coordinator, which sees a rank go without
// its done, exits with an error. The drift checks live at the receiver
// because only the receiver holds what a frame must match — its own
// step, batch, scale and model; a middle process would repeat them a
// hop early. A supervisor restarts every process with -resume and rank
// 0's training snapshot re-synchronizes the fleet through BroadcastBytes
// (see mtmlf's snapshot plumbing). Nothing is retried in place —
// determinism comes before availability here.
//
// Besides the gradient fold there is one lockstep collective,
// AllGather: every rank contributes a byte payload and receives every
// other rank's. The ranks pre-train their shares of the fleet's (F)
// encoders and exchange them through it; BroadcastBytes is its case
// where only rank 0 has something to say.
package dist

import (
	"mtmlf/internal/ag"
)

// Exchanger is a gradient-exchange backend. One Exchanger belongs to
// one training run on one rank; implementations need not be safe for
// concurrent calls (the trainer is a single loop).
type Exchanger interface {
	// World returns the fleet shape: world ranks, this process being
	// rank (0-based). world 1 is single-process training.
	World() (world, rank int)

	// AllReduce exchanges one minibatch's gradients. slots[i] is
	// non-nil iff this rank owns slot i (filled by its backward pass),
	// and losses[i] holds the owned slots' losses. On return, every
	// rank has the example-ordered sum of all slots scaled by scale on
	// the parameters' Grad fields (parameters no slot touched keep a
	// nil Grad), and losses is fully populated for all n slots —
	// bitwise identical on every rank to what ag.ReduceGrads would
	// have produced from the full slot set in one process.
	AllReduce(params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) error

	// AllGather sends payload to every other rank and returns the
	// other ranks' payloads, indexed by rank, with this rank's own entry
	// nil: nothing holds on to payload once it is sent. Every rank calls
	// it at the same point of the run.
	AllGather(payload []byte) ([][]byte, error)

	// Close releases the exchanger. For the TCP backend it tells the
	// coordinator this rank is done, unless an exchange on it failed;
	// the coordinator exits cleanly once every rank is done.
	Close() error
}

// Owns reports whether rank owns slot i of an n-slot minibatch in a
// world-rank fleet: rank r owns the contiguous block
// [r·n/world, (r+1)·n/world), so the blocks tile the slots in rank
// order, their sizes differ by at most one, and with n < world some
// ranks own none. The map depends only on (n, world, rank, i).
func Owns(n, world, rank, i int) bool {
	lo, hi := block(n, world, rank)
	return lo <= i && i < hi
}

// block returns the slots [lo, hi) rank owns; see Owns.
func block(n, world, rank int) (lo, hi int) {
	return rank * n / world, (rank + 1) * n / world
}

// BroadcastBytes distributes rank 0's payload to every rank (the
// argument is ignored on other ranks) and returns it on all of them: an
// all-gather in which the other ranks send nothing. The trainer uses it
// to ship the resume point, parameters, and optimizer state from rank
// 0's training snapshot so the whole fleet re-enters the run at one
// consistent minibatch boundary.
func BroadcastBytes(ex Exchanger, payload []byte) ([]byte, error) {
	_, rank := ex.World()
	if rank != 0 {
		payload = nil
	}
	all, err := ex.AllGather(payload)
	if err != nil || rank == 0 {
		return payload, err
	}
	return all[0], nil
}

// Local is the in-process backend: world 1, its AllReduce the fold a TCP
// round runs, with this process as both the first and the last rank.
func Local() Exchanger { return &localExchanger{} }

type localExchanger struct{ fold fold }

func (*localExchanger) World() (int, int) { return 1, 0 }

func (l *localExchanger) AllReduce(params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) error {
	l.fold.start(params)
	l.fold.add(params, slots, 0, len(slots), scale)
	l.fold.attach(params)
	return nil
}

func (*localExchanger) AllGather([]byte) ([][]byte, error) { return make([][]byte, 1), nil }

func (*localExchanger) Close() error { return nil }
