package dist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
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

// rankBodies encodes one round the way a world-rank fleet would: rank r
// ships only the slots it owns.
func rankBodies(world int, step uint64, params []*ag.Value, slots []ag.Grads, losses []float64, scale float64) [][]byte {
	bodies := make([][]byte, world)
	for rank := range bodies {
		owned := make([]ag.Grads, len(slots))
		for i := range slots {
			if Owns(world, rank, i) {
				owned[i] = slots[i]
			}
		}
		bodies[rank] = msgBody(appendGrads(nil, step, params, owned, losses, scale))
	}
	return bodies
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestWireRoundTrip pins the frame codecs: hello encode→decode is
// lossless; a grads frame survives reduce→install with every bit,
// −0.0 losses included; and a truncated or overlong body is an error at
// every cut, never a panic.
func TestWireRoundTrip(t *testing.T) {
	h := hello{rank: 1, world: 3, fingerprint: "fp"}
	gotH, err := decodeHello(msgBody(encodeHello(h)))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("hello round trip: got %+v, want %+v", gotH, h)
	}

	params := makeParams()
	slots := []ag.Grads{fillSlot(7, 0, params), fillSlot(7, 1, params), fillSlot(7, 2, params)}
	losses := []float64{math.Pi, math.Copysign(0, -1), 3}
	grads := msgBody(appendGrads(nil, 7, params, slots, losses, 1.0/3))
	var rd reducer
	out, err := rd.reduce([][]byte{grads})
	if err != nil {
		t.Fatal(err)
	}
	reduced := msgBody(out)
	gotLosses := make([]float64, 3)
	if err := installReduced(reduced, 7, params, make([]*tensor.Tensor, len(params)), gotLosses); err != nil {
		t.Fatal(err)
	}
	for i := range losses {
		if math.Float64bits(gotLosses[i]) != math.Float64bits(losses[i]) {
			t.Fatalf("loss %d: bits %x, want %x", i, math.Float64bits(gotLosses[i]), math.Float64bits(losses[i]))
		}
	}
	checkGradsBitwise(t, "round trip", params, refReduce(7, 3, 1.0/3))
	// A parameter that already holds a gradient accumulates, like
	// ag.ReduceGrads.
	before := params[0].Grad.Clone()
	if err := installReduced(reduced, 7, params, make([]*tensor.Tensor, len(params)), gotLosses); err != nil {
		t.Fatal(err)
	}
	for j, v := range before.Data {
		if params[0].Grad.Data[j] != v+v {
			t.Fatalf("second install did not accumulate at element %d", j)
		}
	}

	if err := installReduced(reduced, 8, makeParams(), make([]*tensor.Tensor, len(params)), gotLosses); err == nil {
		t.Fatal("reduced frame of another step installed")
	}
	for cut := 0; cut < len(grads); cut++ {
		if _, err := new(reducer).reduce([][]byte{grads[:cut]}); err == nil {
			t.Fatalf("grads body cut at %d of %d reduced without error", cut, len(grads))
		}
	}
	if _, err := new(reducer).reduce([][]byte{append(bytes.Clone(grads), 0)}); err == nil {
		t.Fatal("grads body with a trailing byte reduced without error")
	}
	for cut := 0; cut < len(reduced); cut++ {
		if err := installReduced(reduced[:cut], 7, makeParams(), make([]*tensor.Tensor, len(params)), gotLosses); err == nil {
			t.Fatalf("reduced body cut at %d of %d installed without error", cut, len(reduced))
		}
	}
	if err := installReduced(append(bytes.Clone(reduced), 0), 7, makeParams(), make([]*tensor.Tensor, len(params)), gotLosses); err == nil {
		t.Fatal("reduced body with a trailing byte installed without error")
	}
}

// TestReducerMatchesReduceGrads is the bitwise contract of the
// streaming reducer: over randomised slot sets it must leave on the
// parameters exactly what ag.ReduceGrads leaves from the same slots in
// one process — whatever order the ranks' frames are handed over in,
// round after round through the same kept accumulators. The cases that
// separate a faithful reduction from a plausible one are forced: the
// first slot to touch a parameter carries −0.0 (0 + −0.0 is +0.0; a
// copy would keep the sign), a parameter no slot ever touches, one that
// is first touched in a later round, and ragged ownership (world 3,
// n 8).
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
	for _, tc := range []struct{ world, n int }{{1, 3}, {2, 4}, {2, 5}, {3, 8}, {3, 2}} {
		t.Run(fmt.Sprintf("world%d_n%d", tc.world, tc.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100*tc.world + tc.n)))
			var rd reducer
			kept := make([]*tensor.Tensor, len(shapes))
			for round := 1; round <= 5; round++ {
				ref, got := newParams(), newParams()
				refSlots, gotSlots := make([]ag.Grads, tc.n), make([]ag.Grads, tc.n)
				losses := make([]float64, tc.n)
				touched := make([]bool, len(shapes))
				for i := 0; i < tc.n; i++ {
					refSlots[i], gotSlots[i] = ag.Grads{}, ag.Grads{}
					losses[i] = rng.NormFloat64()
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
						refSlots[i][ref[k]], gotSlots[i][got[k]] = g, g
					}
				}
				scale := 1 / float64(tc.n)
				if round%2 == 0 {
					scale = 1
				}
				ag.ReduceGrads(ref, refSlots, scale)
				want := make([]*tensor.Tensor, len(ref))
				for k, p := range ref {
					want[k] = p.Grad
				}
				bodies := rankBodies(tc.world, uint64(round), got, gotSlots, losses, scale)
				var first []byte
				for _, perm := range permutations(tc.world) {
					handed := make([][]byte, tc.world)
					for at, rank := range perm {
						handed[at] = bodies[rank]
					}
					out, err := rd.reduce(handed)
					if err != nil {
						t.Fatalf("round %d order %v: %v", round, perm, err)
					}
					if first == nil {
						first = msgBody(out)
					} else if !bytes.Equal(first, msgBody(out)) {
						t.Fatalf("round %d: frames handed over as %v reduce to different bytes", round, perm)
					}
				}
				gotLosses := make([]float64, tc.n)
				if err := installReduced(first, uint64(round), got, kept, gotLosses); err != nil {
					t.Fatal(err)
				}
				checkGradsBitwise(t, fmt.Sprintf("round %d", round), got, want)
				for i := range losses {
					if math.Float64bits(gotLosses[i]) != math.Float64bits(losses[i]) {
						t.Fatalf("round %d: loss %d not carried bitwise", round, i)
					}
				}
			}
		})
	}
}

// hugeIndexBody is a well-formed grads body of a 1-slot round whose
// only entry names parameter 4294967295. A reducer that sizes a table
// by the index dies allocating ~96 GB.
func hugeIndexBody() []byte {
	b := newMsg(nil, msgGrads, 0)
	b = appendU64(b, 1) // step
	b = appendU32(b, 1) // n
	b = appendF64(b, 1) // scale
	b = appendU32(b, 1) // owned slots
	b = appendU32(b, 0) // slot
	b = appendF64(b, 0.5)
	b = appendU32(b, 1) // entries
	b = appendU32(b, math.MaxUint32)
	b = appendU32(b, 1)
	return msgBody(appendF64(b, 2))
}

// TestReducerSizesNothingByWireIndices: no index, count or length read
// off the wire may size an allocation beyond what the frame that
// carried it could hold.
func TestReducerSizesNothingByWireIndices(t *testing.T) {
	params := makeParams()
	valid := msgBody(appendGrads(nil, 1, params, []ag.Grads{fillSlot(1, 0, params)}, []float64{1}, 1))
	hugeN := bytes.Clone(valid)
	copy(hugeN[8:], []byte{0xff, 0xff, 0xff, 0xff}) // n
	hugeSlots := bytes.Clone(valid)
	copy(hugeSlots[20:], []byte{0xff, 0xff, 0xff, 0xff}) // owned slots
	hugeLen := hugeIndexBody()
	copy(hugeLen[len(hugeLen)-12:], []byte{0xff, 0xff, 0xff, 0xff}) // the entry's len
	for name, body := range map[string][]byte{
		"index": hugeIndexBody(), "n": hugeN, "n in a cut header": hugeN[:16], "slots": hugeSlots, "len": hugeLen,
	} {
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = new(reducer).reduce([][]byte{body}) })
		if name != "index" && err == nil {
			t.Errorf("huge %s: reduced without error", name)
		}
		// A handful of small objects; the point is that the run returns.
		if allocs > 20 {
			t.Errorf("huge %s: %v allocations for a %d-byte frame", name, allocs, len(body))
		}
	}
	// The huge index alone is a legal if absurd parameter: it costs one
	// accumulator of the float the frame carried, and the rank that
	// receives it back rejects it against its model.
	out, err := new(reducer).reduce([][]byte{hugeIndexBody()})
	if err != nil {
		t.Fatal(err)
	}
	err = installReduced(msgBody(out), 1, params, make([]*tensor.Tensor, len(params)), make([]float64, 1))
	if err == nil {
		t.Fatal("a reduced gradient for parameter 4294967295 installed on a 3-parameter model")
	}
}

// TestReducerRejectsIncoherentRounds: what the reducer refuses beyond
// malformed bytes.
func TestReducerRejectsIncoherentRounds(t *testing.T) {
	params := makeParams()
	slots := []ag.Grads{fillSlot(1, 0, params), fillSlot(1, 1, params)}
	losses := []float64{1, 2}
	bodies := rankBodies(2, 1, params, slots, losses, 0.5)
	for name, tc := range map[string]struct {
		bodies [][]byte
		want   string
	}{
		"slot owned twice": {[][]byte{bodies[0], bodies[0]}, "owned by two ranks"},
		"slot missing":     {[][]byte{bodies[0], msgBody(appendGrads(nil, 1, params, make([]ag.Grads, 2), losses, 0.5))}, "no rank owns slot 1"},
		"step drift":       {[][]byte{bodies[0], rankBodies(2, 2, params, slots, losses, 0.5)[1]}, "rank drift"},
		"scale drift":      {[][]byte{bodies[0], rankBodies(2, 1, params, slots, losses, 0.25)[1]}, "rank drift"},
	} {
		if _, err := new(reducer).reduce(tc.bodies); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, tc.want)
		}
	}
	// Entries of a slot come in ascending parameter order, as every
	// worker writes them; the merge into the accumulators relies on it.
	swapped := newMsg(nil, msgGrads, 0)
	swapped = appendU32(appendF64(appendU32(appendU64(swapped, 1), 1), 1), 1) // step, n, scale, owned slots
	swapped = appendU32(appendF64(appendU32(swapped, 0), 0.5), 2)             // slot, loss, entries
	for _, param := range []uint32{1, 0} {
		swapped = appendF64(appendU32(appendU32(swapped, param), 1), 2)
	}
	if _, err := new(reducer).reduce([][]byte{msgBody(swapped)}); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("descending parameters: error %v, want one mentioning the order", err)
	}
	// A parameter's length is fixed by the round that first carried it.
	var rd reducer
	if _, err := rd.reduce(rankBodies(1, 1, params, slots, losses, 0.5)); err != nil {
		t.Fatal(err)
	}
	other := []*ag.Value{ag.Param(tensor.New(2, 2))}
	resized := []ag.Grads{{other[0]: tensor.New(2, 2)}, {other[0]: tensor.New(2, 2)}}
	if _, err := rd.reduce(rankBodies(1, 2, other, resized, losses, 0.5)); err == nil {
		t.Fatal("parameter 0 changed size between rounds without error")
	}
}
