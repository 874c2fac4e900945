package dist

import (
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/tensor"
)

// testShapes is a small heterogeneous parameter list: a matrix, a
// bias row, and a parameter no slot ever touches (its Grad must stay
// nil through every backend).
var testShapes = [][]int{{3, 4}, {1, 4}, {2, 2}}

const untouchedParam = 2

// makeParams builds one rank's private parameter list with
// deterministic contents.
func makeParams() []*ag.Value {
	params := make([]*ag.Value, len(testShapes))
	for k, shape := range testShapes {
		t := tensor.New(shape...)
		for j := range t.Data {
			t.Data[j] = float64(k+1) * (float64(j) + 0.5)
		}
		params[k] = ag.Param(t)
	}
	return params
}

// slotGrad builds slot i's deterministic gradient for parameter k.
// Slot indices leave distinct bit patterns so an out-of-order
// reduction cannot cancel out.
func slotGrad(step, i, k int, p *ag.Value) *tensor.Tensor {
	g := tensor.New(p.T.Shape...)
	for j := range g.Data {
		g.Data[j] = 1.0/float64(step*31+i*7+k+1) + float64(j)*1e-3
	}
	return g
}

// fillSlot builds slot i's Grads buffer. Odd slots skip parameter 1,
// so the reduction must cope with slots that touch different
// parameter subsets.
func fillSlot(step, i int, params []*ag.Value) ag.Grads {
	slot := ag.Grads{}
	for k, p := range params {
		if k == untouchedParam || (k == 1 && i%2 == 1) {
			continue
		}
		slot[p] = slotGrad(step, i, k, p)
	}
	return slot
}

// refReduce computes the single-process reference reduction for one
// step over fresh params, returning the per-parameter Grad tensors.
func refReduce(step, n int, scale float64) []*tensor.Tensor {
	params := makeParams()
	slots := make([]ag.Grads, n)
	for i := range slots {
		slots[i] = fillSlot(step, i, params)
	}
	ag.ReduceGrads(params, slots, scale)
	out := make([]*tensor.Tensor, len(params))
	for k, p := range params {
		out[k] = p.Grad
	}
	return out
}

func checkGradsBitwise(t *testing.T, tag string, params []*ag.Value, want []*tensor.Tensor) {
	t.Helper()
	for k, p := range params {
		switch {
		case p.Grad == nil && want[k] == nil:
		case p.Grad == nil || want[k] == nil:
			t.Fatalf("%s: parameter %d: grad nil-ness differs (got %v, want %v)", tag, k, p.Grad, want[k])
		default:
			for j := range want[k].Data {
				if math.Float64bits(p.Grad.Data[j]) != math.Float64bits(want[k].Data[j]) {
					t.Fatalf("%s: parameter %d element %d: got %x, want %x",
						tag, k, j, math.Float64bits(p.Grad.Data[j]), math.Float64bits(want[k].Data[j]))
				}
			}
		}
	}
}

// TestLocalAllReduceMatchesReduceGrads pins the Local backend's shape
// (world 1, rank 0), its reduction to ag.ReduceGrads's bits, and its
// losses, which at world 1 are all the rank's own and stay as they are.
func TestLocalAllReduceMatchesReduceGrads(t *testing.T) {
	ex := Local()
	if w, r := ex.World(); w != 1 || r != 0 {
		t.Fatalf("Local world = (%d,%d), want (1,0)", w, r)
	}
	n, scale := 5, 1.0/5
	params := makeParams()
	slots := make([]ag.Grads, n)
	losses := make([]float64, n)
	for i := range slots {
		slots[i] = fillSlot(1, i, params)
		losses[i] = float64(i) + 0.25
	}
	if err := ex.AllReduce(params, slots, losses, scale); err != nil {
		t.Fatal(err)
	}
	checkGradsBitwise(t, "local", params, refReduce(1, n, scale))
	for i := range losses {
		if losses[i] != float64(i)+0.25 {
			t.Fatalf("local AllReduce touched losses[%d]", i)
		}
	}
	if _, err := ex.BroadcastBytes([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ex.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

// startCoordinator boots a loopback coordinator and returns its
// address plus the Run error channel.
func startCoordinator(t *testing.T, world int) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(ln, world)
	errc := make(chan error, 1)
	go func() { errc <- c.Run() }()
	return c.Addr(), errc
}

func waitCoordinator(t *testing.T, errc chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not exit")
	}
}

// TestTCPAllReduceMatchesLocal is the plane's core contract: at world
// 1 to 4, every rank's reduced gradients and loss vectors must be
// bitwise identical to the single-process ag.ReduceGrads reduction —
// across several steps, including a short final batch, a batch smaller
// than the fleet (ranks owning no slot) and slots that touch different
// parameter subsets.
func TestTCPAllReduceMatchesLocal(t *testing.T) {
	for _, world := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("world%d", world), func(t *testing.T) {
			addr, coordErr := startCoordinator(t, world)
			batches := []int{4, 5, 1, 2} // n per step; 5 and 1 exercise uneven and empty blocks
			var wg sync.WaitGroup
			rankErr := make(chan error, world)
			for rank := 0; rank < world; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					ex, err := DialRetry(addr, rank, world, "test-job", 50, 20*time.Millisecond)
					if err != nil {
						rankErr <- err
						return
					}
					defer ex.Close()
					params := makeParams()
					for step, n := range batches {
						scale := 1 / float64(n)
						slots := make([]ag.Grads, n)
						losses := make([]float64, n)
						for i := 0; i < n; i++ {
							if !Owns(n, world, rank, i) {
								continue
							}
							slots[i] = fillSlot(step, i, params)
							losses[i] = float64(step*100 + i)
						}
						for _, p := range params {
							p.Grad = nil
						}
						if err := ex.AllReduce(params, slots, losses, scale); err != nil {
							rankErr <- fmt.Errorf("rank %d step %d: %w", rank, step, err)
							return
						}
						want := refReduce(step, n, scale)
						for k, p := range params {
							wantNil := want[k] == nil
							if (p.Grad == nil) != wantNil {
								rankErr <- fmt.Errorf("rank %d step %d param %d: grad nil-ness differs", rank, step, k)
								return
							}
							if wantNil {
								continue
							}
							for j := range want[k].Data {
								if math.Float64bits(p.Grad.Data[j]) != math.Float64bits(want[k].Data[j]) {
									rankErr <- fmt.Errorf("rank %d step %d param %d elem %d: bits differ", rank, step, k, j)
									return
								}
							}
						}
						for i := 0; i < n; i++ {
							if losses[i] != float64(step*100+i) {
								rankErr <- fmt.Errorf("rank %d step %d: losses[%d] = %v, want %v",
									rank, step, i, losses[i], float64(step*100+i))
								return
							}
						}
					}
					if err := ex.Barrier(); err != nil {
						rankErr <- err
					}
				}(rank)
			}
			wg.Wait()
			close(rankErr)
			for err := range rankErr {
				t.Fatal(err)
			}
			waitCoordinator(t, coordErr)
		})
	}
}

// TestTCPBroadcast: rank 0's payload reaches every rank byte-for-byte
// (and rank 0 gets its own copy back through the same path).
func TestTCPBroadcast(t *testing.T) {
	const world = 3
	addr, coordErr := startCoordinator(t, world)
	payload := []byte("resume-state: epoch 3 offset 12")
	var wg sync.WaitGroup
	rankErr := make(chan error, world)
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ex, err := DialRetry(addr, rank, world, "bcast", 50, 20*time.Millisecond)
			if err != nil {
				rankErr <- err
				return
			}
			defer ex.Close()
			in := []byte("ignored on nonzero ranks")
			if rank == 0 {
				in = payload
			}
			got, err := ex.BroadcastBytes(in)
			if err != nil {
				rankErr <- err
				return
			}
			if string(got) != string(payload) {
				rankErr <- fmt.Errorf("rank %d received %q, want %q", rank, got, payload)
			}
		}(rank)
	}
	wg.Wait()
	close(rankErr)
	for err := range rankErr {
		t.Fatal(err)
	}
	waitCoordinator(t, coordErr)
}

// TestTCPFingerprintMismatch: a fleet whose ranks disagree on the job
// fingerprint must abort before any gradient flows.
func TestTCPFingerprintMismatch(t *testing.T) {
	const world = 2
	addr, coordErr := startCoordinator(t, world)
	var wg sync.WaitGroup
	results := make([]error, world)
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fp := "job-a"
			if rank == 1 {
				fp = "job-b"
			}
			ex, err := DialRetry(addr, rank, world, fp, 50, 20*time.Millisecond)
			if err == nil {
				// The coordinator only validates once all ranks are in;
				// the first exchange surfaces the abort.
				err = ex.Barrier()
				ex.Close()
			}
			results[rank] = err
		}(rank)
	}
	wg.Wait()
	select {
	case err := <-coordErr:
		if err == nil || !strings.Contains(err.Error(), "job mismatch") {
			t.Fatalf("coordinator error = %v, want job mismatch", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not exit")
	}
	for rank, err := range results {
		if err == nil {
			t.Fatalf("rank %d saw no error from a mismatched fleet", rank)
		}
	}
}

// TestTCPRankDriftAborts: ranks disagreeing on the minibatch shape is
// drift, and the whole fleet must fail rather than reduce garbage.
func TestTCPRankDriftAborts(t *testing.T) {
	const world = 2
	addr, coordErr := startCoordinator(t, world)
	var wg sync.WaitGroup
	results := make([]error, world)
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ex, err := DialRetry(addr, rank, world, "drift", 50, 20*time.Millisecond)
			if err != nil {
				results[rank] = err
				return
			}
			defer ex.Close()
			params := makeParams()
			n := 4
			if rank == 1 {
				n = 3 // drifted: wrong batch size
			}
			slots := make([]ag.Grads, n)
			losses := make([]float64, n)
			for i := 0; i < n; i++ {
				if Owns(n, world, rank, i) {
					slots[i] = fillSlot(0, i, params)
				}
			}
			results[rank] = ex.AllReduce(params, slots, losses, 0.25)
		}(rank)
	}
	wg.Wait()
	select {
	case err := <-coordErr:
		if err == nil || !strings.Contains(err.Error(), "rank drift") {
			t.Fatalf("coordinator error = %v, want rank drift", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not exit")
	}
	for rank, err := range results {
		if err == nil {
			t.Fatalf("rank %d AllReduce succeeded in a drifted fleet", rank)
		}
	}
}

// TestTCPRoundKindDriftAborts: a rank in a gradient round while another
// is at a barrier is drift, whichever rank is where. Ranks after the
// first wait for a prefix without sending a gradient, so the join they
// open the round with is what lets the coordinator see it instead of
// waiting for ever.
func TestTCPRoundKindDriftAborts(t *testing.T) {
	const world = 2
	for reducer := 0; reducer < world; reducer++ {
		addr, coordErr := startCoordinator(t, world)
		var wg sync.WaitGroup
		results := make([]error, world)
		for rank := 0; rank < world; rank++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ex, err := DialRetry(addr, rank, world, "kind-drift", 50, 20*time.Millisecond)
				if err != nil {
					results[rank] = err
					return
				}
				defer ex.Close()
				if rank != reducer {
					results[rank] = ex.Barrier()
					return
				}
				params := makeParams()
				slots := []ag.Grads{fillSlot(0, 0, params), fillSlot(0, 1, params)}
				results[rank] = ex.AllReduce(params, slots, make([]float64, 2), 0.5)
			}()
		}
		wg.Wait()
		select {
		case err := <-coordErr:
			if err == nil || !strings.Contains(err.Error(), "rank drift") {
				t.Fatalf("rank %d reducing: coordinator error = %v, want rank drift", reducer, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("rank %d reducing: coordinator did not exit", reducer)
		}
		for rank, err := range results {
			if err == nil {
				t.Fatalf("rank %d reducing: rank %d succeeded in a drifted fleet", reducer, rank)
			}
		}
	}
}

// TestTCPHopOutOfTurnAborts: mid-chain, a hop from any rank but the
// one whose turn it is aborts the fleet — here the last rank sends a
// total before the middle rank has forwarded its prefix.
func TestTCPHopOutOfTurnAborts(t *testing.T) {
	const world = 3
	addr, coordErr := startCoordinator(t, world)
	ranks := make([]*TCP, world)
	var wg sync.WaitGroup
	for rank := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if ranks[rank], err = DialRetry(addr, rank, world, "out-of-turn", 50, 20*time.Millisecond); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	defer func() {
		for _, ex := range ranks {
			ex.Close()
		}
	}()
	send := func(rank int, msg []byte) {
		t.Helper()
		if err := sendMsg(ranks[rank].conn, msg); err != nil {
			t.Fatal(err)
		}
	}
	params := makeParams()
	var f fold
	f.start(params)
	send(1, appendU64(newMsg(nil, msgJoin, 8), 1))
	send(2, appendU64(newMsg(nil, msgJoin, 8), 1))
	send(2, f.appendHop(nil, msgReduced, 1, 3, 1, make([]float64, 3)))
	rank0 := make(chan error, 1)
	go func() {
		rank0 <- ranks[0].AllReduce(params, []ag.Grads{fillSlot(1, 0, params), nil, nil}, make([]float64, 3), 1)
	}()
	select {
	case err := <-coordErr:
		if err == nil || !strings.Contains(err.Error(), "rank 2 sent reduced (step 1) while rank 1's hop of step 1 was due") {
			t.Fatalf("coordinator error = %v, want rank 2's total out of turn", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not exit")
	}
	if err := <-rank0; err == nil {
		t.Fatal("rank 0's AllReduce succeeded in an aborted fleet")
	}
}

// TestTCPDuplicateRank: two workers claiming the same rank is a
// launch error the coordinator must reject.
func TestTCPDuplicateRank(t *testing.T) {
	const world = 2
	addr, coordErr := startCoordinator(t, world)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ex, err := DialRetry(addr, 0, world, "dup", 50, 20*time.Millisecond)
			if err == nil {
				err = ex.Barrier()
				ex.Close()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	select {
	case err := <-coordErr:
		if err == nil || !strings.Contains(err.Error(), "rank 0") {
			t.Fatalf("coordinator error = %v, want duplicate rank", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator did not exit")
	}
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("both duplicate-rank workers succeeded")
	}
}

// loopFleet is an in-process fleet over loopback TCP for measuring a
// round: rank 0's AllReduce runs on the caller's goroutine, every other
// rank's on its own, one round per token, every round exchanging the
// same pre-built slots.
type loopFleet struct {
	ranks   []*TCP
	params  [][]*ag.Value
	slots   [][]ag.Grads
	losses  [][]float64
	start   []chan struct{} // per rank above 0: run one round
	done    chan error
	coordCh chan error
}

// newLoopFleet is a 2-rank loopFleet.
func newLoopFleet(tb testing.TB, shapes [][]int, n int) *loopFleet {
	tb.Helper()
	return newLoopFleetOf(tb, 2, shapes, n)
}

// newLoopFleetOf connects a world-rank fleet and fills slot i of an
// n-slot minibatch on its owner with a gradient for every parameter.
func newLoopFleetOf(tb testing.TB, world int, shapes [][]int, n int) *loopFleet {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	coord := NewCoordinator(ln, world)
	f := &loopFleet{
		ranks: make([]*TCP, world), params: make([][]*ag.Value, world),
		slots: make([][]ag.Grads, world), losses: make([][]float64, world),
		start: make([]chan struct{}, world), done: make(chan error), coordCh: make(chan error, 1),
	}
	go func() { f.coordCh <- coord.Run() }()
	dialed := make(chan error, world)
	for rank := range f.ranks {
		go func() {
			var err error
			f.ranks[rank], err = DialRetry(coord.Addr(), rank, world, "loop", 50, 20*time.Millisecond)
			dialed <- err
		}()
	}
	for range f.ranks {
		if err := <-dialed; err != nil {
			tb.Fatal(err)
		}
	}
	for rank := range f.ranks {
		f.params[rank] = make([]*ag.Value, len(shapes))
		for k, shape := range shapes {
			f.params[rank][k] = ag.Param(tensor.New(shape...))
		}
		f.slots[rank], f.losses[rank] = make([]ag.Grads, n), make([]float64, n)
		for i := 0; i < n; i++ {
			if !Owns(n, world, rank, i) {
				continue
			}
			f.slots[rank][i] = ag.Grads{}
			for k, p := range f.params[rank] {
				f.slots[rank][i][p] = slotGrad(1, i, k, p)
			}
		}
	}
	for rank := 1; rank < world; rank++ {
		f.start[rank] = make(chan struct{})
		go func() {
			for range f.start[rank] {
				f.done <- f.allReduce(rank)
			}
		}()
	}
	return f
}

func (f *loopFleet) allReduce(rank int) error {
	for _, p := range f.params[rank] {
		p.Grad = nil
	}
	return f.ranks[rank].AllReduce(f.params[rank], f.slots[rank], f.losses[rank], 1/float64(len(f.slots[rank])))
}

// round runs one AllReduce on every rank.
func (f *loopFleet) round() error {
	for _, start := range f.start[1:] {
		start <- struct{}{}
	}
	err := f.allReduce(0)
	for range f.start[1:] {
		if e := <-f.done; e != nil {
			err = e
		}
	}
	return err
}

// wireBytes is what a round moves: every frame each rank sends up and
// receives down.
func (f *loopFleet) wireBytes() int64 {
	var total int64
	for _, ex := range f.ranks {
		st := ex.Stats()
		total += (st.BytesUp + st.BytesDown) / int64(st.Rounds)
	}
	return total
}

func (f *loopFleet) close(tb testing.TB) {
	tb.Helper()
	for _, start := range f.start[1:] {
		close(start)
	}
	for _, ex := range f.ranks {
		ex.Close()
	}
	if err := <-f.coordCh; err != nil {
		tb.Fatalf("coordinator: %v", err)
	}
}

// modelShapes is a parameter list the size of the benchmark's model:
// about 65k floats, most of them in a few matrices.
var modelShapes = func() [][]int {
	var shapes [][]int
	for i := 0; i < 12; i++ {
		shapes = append(shapes, []int{64, 64}, []int{1, 64})
	}
	return append(shapes, []int{64, 256}, []int{1, 256})
}()

// TestTCPRoundAllocatesNothing: once its buffers have grown, a round
// costs the two workers and the coordinator together a small constant
// number of allocations, the same for a 100-float model and a
// 65 000-float one — frames, accumulators and Grad tensors are all
// kept.
func TestTCPRoundAllocatesNothing(t *testing.T) {
	perRound := func(shapes [][]int) float64 {
		f := newLoopFleet(t, shapes, 8)
		defer f.close(t)
		var err error
		run := func() {
			if e := f.round(); e != nil {
				err = e
			}
		}
		run() // first round: buffers, accumulators and Grad tensors are allocated
		allocs := testing.AllocsPerRun(10, run)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range f.params[0] {
			if p.Grad == nil {
				t.Fatal("a touched parameter ended the round without a gradient")
			}
		}
		return allocs
	}
	small, large := perRound([][]int{{5, 10}, {1, 10}, {8, 5}}), perRound(modelShapes)
	t.Logf("allocations per round, both workers and the coordinator: %v (100 floats), %v (65k floats)", small, large)
	if small > 4 || large > 4 {
		t.Fatalf("a warm round allocates %v (100 floats) / %v (65k floats) times, want a handful at most", small, large)
	}
}

// TestLocalRoundAllocatesNothing: a warm Local() round allocates
// nothing. Its fold's accumulators end every round as the Grad tensors
// and are summed into again once the caller has let go of them.
func TestLocalRoundAllocatesNothing(t *testing.T) {
	round := localRound(t)
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("a warm Local round allocates %v times, want 0", allocs)
	}
}

// TestTCPRankDiesMidFrame: a rank that dies halfway through a frame
// must abort the fleet at once, also while the round is still waiting
// for a different, slower rank — every rank has its own reader, so the
// death is seen whichever rank the coordinator would have read first.
func TestTCPRankDiesMidFrame(t *testing.T) {
	const world = 2
	addr, coordErr := startCoordinator(t, world)
	ranks := make([]*TCP, world)
	var wg sync.WaitGroup
	for rank := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if ranks[rank], err = DialRetry(addr, rank, world, "mid-frame", 50, 20*time.Millisecond); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	defer ranks[0].Close()
	// Rank 0 is still computing: it has sent nothing. Rank 1 gets half
	// of its join out and dies.
	params := makeParams()
	frame := ckptio.SealSection(appendU64(newMsg(nil, msgJoin, 8), 1))
	if _, err := ranks[1].conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	ranks[1].conn.Close()
	select {
	case err := <-coordErr:
		if err == nil || !strings.Contains(err.Error(), "rank 1") {
			t.Fatalf("coordinator error = %v, want rank 1's truncated frame", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator still waiting for rank 0 after rank 1 died mid-frame")
	}
	// Rank 0 learns why when it gets to its exchange.
	err := ranks[0].AllReduce(params, []ag.Grads{fillSlot(1, 0, params), nil}, make([]float64, 2), 0.5)
	if err == nil {
		t.Fatal("rank 0's AllReduce succeeded in an aborted fleet")
	}
}

// TestAddWaits: the relay's wait for rank 0's hop runs from the round's
// earliest opener, whichever rank sent it and in whatever order the
// openers were handed over; every later rank's from the hop before it.
func TestAddWaits(t *testing.T) {
	t0 := time.Unix(100, 0)
	waits := []time.Duration{time.Second, 0, 0}
	opened := []time.Time{t0.Add(3 * time.Millisecond), t0.Add(time.Millisecond), t0.Add(5 * time.Millisecond)}
	hops := []time.Time{t0.Add(3 * time.Millisecond), t0.Add(4 * time.Millisecond), t0.Add(9 * time.Millisecond)}
	addWaits(waits, opened, hops)
	want := []time.Duration{time.Second + 2*time.Millisecond, time.Millisecond, 5 * time.Millisecond}
	if !slices.Equal(waits, want) {
		t.Fatalf("waits %v, want %v", waits, want)
	}
}

// TestOwns pins the slot→rank map to balanced contiguous blocks: every
// slot has exactly one owner, the owners ascend with the slots, block
// sizes differ by at most one, and world 1 owns every slot.
func TestOwns(t *testing.T) {
	if !Owns(6, 1, 0, 5) {
		t.Fatal("world 1 must own every slot")
	}
	for world := 2; world <= 5; world++ {
		for n := 0; n <= 13; n++ {
			sizes := make([]int, world)
			prev := 0
			for i := 0; i < n; i++ {
				owner := -1
				for rank := 0; rank < world; rank++ {
					if Owns(n, world, rank, i) {
						if owner >= 0 {
							t.Fatalf("n=%d world=%d: slot %d owned by ranks %d and %d", n, world, i, owner, rank)
						}
						owner = rank
					}
				}
				if owner < 0 {
					t.Fatalf("n=%d world=%d: slot %d has no owner", n, world, i)
				}
				if owner < prev {
					t.Fatalf("n=%d world=%d: slot %d owned by rank %d after a slot of rank %d (blocks not contiguous)", n, world, i, owner, prev)
				}
				prev = owner
				sizes[owner]++
			}
			if slices.Max(sizes)-slices.Min(sizes) > 1 {
				t.Fatalf("n=%d world=%d: block sizes %v differ by more than one", n, world, sizes)
			}
		}
	}
}
