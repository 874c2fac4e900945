package dist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/tensor"
)

// msgBody takes a message an encoder built through the frame, as a
// peer would, and strips the kind byte: what the decoders take.
func msgBody(msg []byte) []byte {
	p, err := ckptio.ReadSection(bytes.NewReader(ckptio.SealSection(msg)), "test")
	if err != nil {
		panic(err)
	}
	return p[1:]
}

// chain is a world-rank fleet reduced to its folds, one per rank, kept
// across rounds like a TCP exchanger keeps its own.
type chain struct{ folds []fold }

// round runs one gradient round hop by hop, as the links carry it: each
// rank's frame to the next rank, the last rank's total to every other.
// params[r], slots[r] and losses[r] are rank r's; a rank reads only its
// own block of slots. It returns the body of every rank's hop.
func (c *chain) round(step uint64, scale float64, params [][]*ag.Value, slots [][]ag.Grads, losses [][]float64) ([][]byte, error) {
	world := len(c.folds)
	hops := make([][]byte, world)
	for r := range c.folds {
		f, n := &c.folds[r], len(slots[r])
		lo, hi := block(n, world, r)
		f.start(params[r])
		if r > 0 {
			if err := f.absorb(hops[r-1], step, scale, lo, params[r], losses[r]); err != nil {
				return nil, fmt.Errorf("rank %d: %w", r, err)
			}
		}
		kind, s := byte(msgGrads), 1.0
		if r == world-1 {
			kind, s = msgReduced, scale
		}
		f.add(params[r], slots[r], lo, hi, s)
		hops[r] = msgBody(f.appendHop(nil, kind, step, n, scale, losses[r][:hi]))
	}
	c.folds[world-1].attach(params[world-1])
	for r := 0; r < world-1; r++ {
		if err := c.folds[r].install(hops[world-1], step, scale, params[r], losses[r]); err != nil {
			return nil, fmt.Errorf("rank %d install: %w", r, err)
		}
	}
	return hops, nil
}

// prefixBody is rank 0's hop of a 2-rank round of step 1 over the
// slots of fillSlot: the sum of slot 0, carrying its loss.
func prefixBody(params []*ag.Value, losses []float64) []byte {
	var f fold
	f.start(params)
	f.add(params, []ag.Grads{fillSlot(1, 0, params)}, 0, 1, 1)
	return msgBody(f.appendHop(nil, msgGrads, 1, len(losses), 0.5, losses[:1]))
}

// TestWireRoundTrip pins the frame codecs: hello encode→decode is
// lossless, and a hello of another version is refused for its version;
// a hello-ack carries every rank's address, and exactly world of them;
// a one-rank fleet's total installs every bit, −0.0 losses
// included, and accumulates into a Grad already held; and a truncated or
// overlong prefix or total is an error at every cut, never a panic.
func TestWireRoundTrip(t *testing.T) {
	h := hello{rank: 1, world: 3, fingerprint: "fp", addr: "127.0.0.1:40001"}
	gotH, err := decodeHello(msgBody(encodeHello(h)))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("hello round trip: got %+v, want %+v", gotH, h)
	}
	// A version-3 hello has no address; it is refused for its version.
	v3 := appendU16(append(newMsg(nil, msgHello, 0), protoMagic...), 3)
	v3 = appendBytes(appendU32(appendU32(v3, 1), 3), []byte("fp"))
	if _, err := decodeHello(msgBody(v3)); err == nil || !strings.Contains(err.Error(), "protocol version 3") {
		t.Fatalf("a version-3 hello decoded with %v, want its version refused", err)
	}
	addrs := []string{"127.0.0.1:40000", "[::1]:40001"}
	if got, err := decodeHelloAck(msgBody(encodeHelloAck(addrs)), 2); err != nil || !slices.Equal(got, addrs) {
		t.Fatalf("hello-ack round trip: got %q, %v", got, err)
	}
	if _, err := decodeHelloAck(msgBody(encodeHelloAck(addrs)), 3); err == nil {
		t.Fatal("a hello-ack naming 2 ranks decoded for a world of 3")
	}

	params := makeParams()
	slots := []ag.Grads{fillSlot(7, 0, params), fillSlot(7, 1, params), fillSlot(7, 2, params)}
	losses := []float64{math.Pi, math.Copysign(0, -1), 3}
	c := chain{folds: make([]fold, 1)}
	hops, err := c.round(7, 1.0/3, [][]*ag.Value{params}, [][]ag.Grads{slots}, [][]float64{losses})
	if err != nil {
		t.Fatal(err)
	}
	total := hops[0]
	checkGradsBitwise(t, "attached", params, refReduce(7, 3, 1.0/3))
	into, gotLosses := makeParams(), make([]float64, 3)
	var f fold
	f.start(into)
	if err := f.install(total, 7, 1.0/3, into, gotLosses); err != nil {
		t.Fatal(err)
	}
	for i := range losses {
		if math.Float64bits(gotLosses[i]) != math.Float64bits(losses[i]) {
			t.Fatalf("loss %d: bits %x, want %x", i, math.Float64bits(gotLosses[i]), math.Float64bits(losses[i]))
		}
	}
	checkGradsBitwise(t, "installed", into, refReduce(7, 3, 1.0/3))
	// A parameter that already holds a gradient accumulates, like
	// ag.ReduceGrads.
	before := into[0].Grad.Clone()
	f.start(into)
	if err := f.install(total, 7, 1.0/3, into, gotLosses); err != nil {
		t.Fatal(err)
	}
	for j, v := range before.Data {
		if into[0].Grad.Data[j] != v+v {
			t.Fatalf("second install did not accumulate at element %d", j)
		}
	}

	install := func(body []byte, step uint64) error {
		var f fold
		p := makeParams()
		f.start(p)
		return f.install(body, step, 1.0/3, p, gotLosses)
	}
	if install(total, 8) == nil {
		t.Fatal("total of another step installed")
	}
	for cut := 0; cut < len(total); cut++ {
		if install(total[:cut], 7) == nil {
			t.Fatalf("total cut at %d of %d installed without error", cut, len(total))
		}
	}
	if install(append(bytes.Clone(total), 0), 7) == nil {
		t.Fatal("total with a trailing byte installed without error")
	}
	prefix := prefixBody(makeParams(), []float64{1, 2})
	absorb := func(body []byte) error {
		var f fold
		p := makeParams()
		f.start(p)
		return f.absorb(body, 1, 0.5, 1, p, make([]float64, 2))
	}
	if err := absorb(prefix); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(prefix); cut++ {
		if absorb(prefix[:cut]) == nil {
			t.Fatalf("prefix cut at %d of %d absorbed without error", cut, len(prefix))
		}
	}
	if absorb(append(bytes.Clone(prefix), 0)) == nil {
		t.Fatal("prefix with a trailing byte absorbed without error")
	}
}

// TestReducerMatchesReduceGrads is the bitwise contract of the fold:
// over randomised slot sets, every rank of a world-rank chain must end
// the round with exactly what ag.ReduceGrads leaves from the same slots
// in one process, and with every slot's loss, round after round through
// the same kept accumulators. The cases that separate a faithful
// reduction from a plausible one are forced: the first slot to touch a
// parameter carries −0.0 (0 + −0.0 is +0.0; a copy would keep the
// sign), a parameter no slot ever touches, one first touched in a later
// round, blocks of different sizes and ranks that own no slot (n below
// world), and rounds whose parameters still hold the last round's
// gradient, into which the new one accumulates. Local() reduces the same
// slots at world 1 beside every chain, through its own kept fold.
func TestReducerMatchesReduceGrads(t *testing.T) {
	shapes := [][]int{{3, 4}, {1, 4}, {2, 2}, {5, 1}, {1, 1}}
	const never, late = 2, 3 // never touched; first touched in round 3
	newParams := func() []*ag.Value {
		params := make([]*ag.Value, len(shapes))
		for k, shape := range shapes {
			params[k] = ag.Param(tensor.New(shape...))
		}
		return params
	}
	type tcase struct{ world, n int }
	cases := []tcase{{1, 3}, {2, 4}, {2, 5}, {3, 2}, {3, 8}}
	for _, world := range []int{2, 3, 4} {
		for _, n := range []int{1, 3, 7, 8} {
			cases = append(cases, tcase{world, n})
		}
	}
	seen := map[tcase]bool{}
	for _, tc := range cases {
		if seen[tc] {
			continue
		}
		seen[tc] = true
		t.Run(fmt.Sprintf("world%d_n%d", tc.world, tc.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100*tc.world + tc.n)))
			c := chain{folds: make([]fold, tc.world)}
			params := make([][]*ag.Value, tc.world)
			for r := range params {
				params[r] = newParams()
			}
			local, localParams := Local(), newParams()
			var want []*tensor.Tensor
			for round := 1; round <= 5; round++ {
				keep := round == 4 // this round accumulates into the last one's gradient
				ref := newParams()
				for k, p := range ref {
					if keep && want[k] != nil {
						p.Grad = want[k].Clone()
					}
				}
				refSlots, localSlots := make([]ag.Grads, tc.n), make([]ag.Grads, tc.n)
				if !keep {
					for _, p := range localParams {
						p.Grad = nil
					}
				}
				slots, losses := make([][]ag.Grads, tc.world), make([][]float64, tc.world)
				for r := range slots {
					slots[r], losses[r] = make([]ag.Grads, tc.n), make([]float64, tc.n)
					for i := range losses[r] {
						losses[r][i] = math.NaN() // another rank's slot: must come over the wire
					}
					if !keep {
						for _, p := range params[r] {
							p.Grad = nil
						}
					}
				}
				wantLosses := make([]float64, tc.n)
				touched := make([]bool, len(shapes))
				for i := 0; i < tc.n; i++ {
					owner := 0
					for !Owns(tc.n, tc.world, owner, i) {
						owner++
					}
					refSlots[i], slots[owner][i], localSlots[i] = ag.Grads{}, ag.Grads{}, ag.Grads{}
					wantLosses[i] = rng.NormFloat64()
					losses[owner][i] = wantLosses[i]
					for k := range shapes {
						if k == never || (k == late && round < 3) || rng.Intn(3) == 0 {
							continue
						}
						g := tensor.New(shapes[k]...)
						for j := range g.Data {
							g.Data[j] = rng.NormFloat64()
						}
						if !touched[k] {
							g.Data[0] = math.Copysign(0, -1)
							touched[k] = true
						}
						refSlots[i][ref[k]], slots[owner][i][params[owner][k]], localSlots[i][localParams[k]] = g, g, g
					}
				}
				scale := 1 / float64(tc.n)
				if round%2 == 0 {
					scale = 1
				}
				ag.ReduceGrads(ref, refSlots, scale)
				want = make([]*tensor.Tensor, len(ref))
				for k, p := range ref {
					want[k] = p.Grad
				}
				if _, err := c.round(uint64(round), scale, params, slots, losses); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := local.AllReduce(localParams, localSlots, slices.Clone(wantLosses), scale); err != nil {
					t.Fatalf("round %d: Local: %v", round, err)
				}
				checkGradsBitwise(t, fmt.Sprintf("round %d Local", round), localParams, want)
				for r := range params {
					checkGradsBitwise(t, fmt.Sprintf("round %d rank %d", round, r), params[r], want)
					for i, l := range losses[r] {
						if math.Float64bits(l) != math.Float64bits(wantLosses[i]) {
							t.Fatalf("round %d rank %d: loss %d not carried bitwise", round, r, i)
						}
					}
				}
			}
		})
	}
}

// rawFold hand-encodes a grads body: a 2-slot round of step 1 and scale
// 0.5 that covers slot 0, with one entry per {param, floats} pair.
func rawFold(entries ...[2]uint32) []byte {
	b := newMsg(nil, msgGrads, 0)
	b = appendU64(b, 1)                     // step
	b = appendU32(b, 2)                     // n
	b = appendU64(b, math.Float64bits(0.5)) // scale
	b = appendU32(b, 1)                     // covered
	b = ckptio.AppendF64(b, 0.25)
	b = appendU32(b, uint32(len(entries)))
	for _, e := range entries {
		b = appendU32(appendU32(b, e[0]), e[1])
		for j := uint32(0); j < e[1]; j++ {
			b = ckptio.AppendF64(b, 1)
		}
	}
	return msgBody(b)
}

// hugeIndexBody is a well-formed prefix whose only entry names
// parameter 4294967295. A decoder that sizes a table by the index dies
// allocating ~96 GB.
func hugeIndexBody() []byte { return rawFold([2]uint32{math.MaxUint32, 1}) }

// absorbAsRank1 hands body to rank 1 of a 2-rank fleet at step 1 of a
// 2-slot round with scale 0.5, over makeParams.
func absorbAsRank1(body []byte) error {
	var f fold
	params := makeParams()
	f.start(params)
	return f.absorb(body, 1, 0.5, 1, params, make([]float64, 2))
}

// TestReducerSizesNothingByWireIndices: no index, count or length read
// off the wire may size an allocation: the receiving rank sizes its
// accumulators by its own model, and a frame that disagrees with the
// model is refused.
func TestReducerSizesNothingByWireIndices(t *testing.T) {
	valid := rawFold([2]uint32{0, 12})
	if err := absorbAsRank1(valid); err != nil {
		t.Fatal(err)
	}
	patch := func(at int) []byte {
		b := bytes.Clone(valid)
		copy(b[at:], []byte{0xff, 0xff, 0xff, 0xff})
		return b
	}
	for name, body := range map[string][]byte{
		"index":             hugeIndexBody(),
		"n":                 patch(8),
		"n in a cut header": patch(8)[:16],
		"covered":           patch(20),
		"entries":           patch(32),
		"len":               patch(40),
	} {
		var err error
		params, losses := makeParams(), make([]float64, 2)
		allocs := testing.AllocsPerRun(1, func() {
			var f fold
			f.start(params)
			err = f.absorb(body, 1, 0.5, 1, params, losses)
		})
		if err == nil {
			t.Errorf("huge %s: absorbed without error", name)
		}
		// A handful of small objects; the point is that the run returns.
		if allocs > 20 {
			t.Errorf("huge %s: %v allocations for a %d-byte frame", name, allocs, len(body))
		}
	}
}

// TestReducerRejectsIncoherentRounds: what a receiving rank refuses
// beyond malformed bytes: only the receiving rank knows its round and
// its model, so the checks live there.
func TestReducerRejectsIncoherentRounds(t *testing.T) {
	params := makeParams()
	prefix := prefixBody(params, []float64{1, 2})
	absorb := func(step uint64, n int, scale float64, lo int, body []byte) error {
		var f fold
		p := makeParams()
		f.start(p)
		return f.absorb(body, step, scale, lo, p, make([]float64, n))
	}
	for name, tc := range map[string]struct {
		err  error
		want string
	}{
		"step drift":          {absorb(2, 2, 0.5, 1, prefix), "rank drift"},
		"n drift":             {absorb(1, 3, 0.5, 1, prefix), "rank drift"},
		"scale drift":         {absorb(1, 2, 0.25, 1, prefix), "rank drift"},
		"prefix too short":    {absorb(1, 2, 0.5, 2, prefix), "summing slots [0, 1)"},
		"descending":          {absorbAsRank1(rawFold([2]uint32{1, 4}, [2]uint32{0, 12})), "ascending"},
		"repeated":            {absorbAsRank1(rawFold([2]uint32{1, 4}, [2]uint32{1, 4})), "ascending"},
		"out of range":        {absorbAsRank1(rawFold([2]uint32{3, 4})), "the model has 3"},
		"wrong length":        {absorbAsRank1(rawFold([2]uint32{1, 5})), "5 floats for parameter 1"},
		"total short of n":    {new(fold).install(prefix, 1, 0.5, makeParams(), make([]float64, 2)), "summing slots [0, 1)"},
		"total of wrong step": {new(fold).install(prefix, 3, 0.5, makeParams(), make([]float64, 1)), "rank drift"},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, tc.err, tc.want)
		}
	}
}
