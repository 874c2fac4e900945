package dist

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"mtmlf/internal/ag"
	"mtmlf/internal/ckptio"
)

// FuzzWireFrame: arbitrary bytes handed to everything that decodes
// what a peer sent — the frame reader, the hello and payload decoders,
// and a rank's two fold decoders (the prefix it absorbs as rank 1 of a
// 2-rank round whose rank 0 is honest, and the total it installs) —
// must come back as an error or a result, never a panic, and must never
// make a decoder allocate more than a small multiple of the input: no
// count, index or length off the wire sizes anything the bytes behind
// it could not fill. The seeds are one valid message of each kind,
// whole frames and bare bodies, plus the two shapes that broke
// earlier decoders: a gradient of −0.0 and an entry naming parameter
// 4294967295.
//
// Run longer than the CI smoke with:
//
//	go test ./internal/dist -run=NONE -fuzz=FuzzWireFrame -fuzztime=5m
func FuzzWireFrame(f *testing.F) {
	params := makeParams()
	slots := []ag.Grads{fillSlot(1, 0, params), fillSlot(1, 1, params)}
	slots[1][params[0]].Data[0] = math.Copysign(0, -1)
	losses := []float64{0.5, math.Copysign(0, -1)}
	var rank0, rank1 fold
	rank0.start(params)
	rank0.add(params, slots, 0, 1)
	prefix := rank0.appendHop(nil, msgGrads, 1, 2, 0.5, losses[:1])
	rank1.start(params)
	if err := rank1.absorb(msgBody(prefix), 1, 0.5, 1, params, losses); err != nil {
		f.Fatal(err)
	}
	rank1.add(params, slots, 1, 2)
	rank1.scale(0.5)
	for _, msg := range [][]byte{
		encodeHello(hello{rank: 1, world: 2, fingerprint: "seed=1 batch=8"}),
		encodePayload(msgBcast, []byte("resume point")),
		encodePayload(msgError, []byte("rank drift")),
		prefix,
		rank1.appendHop(nil, msgReduced, 1, 2, 0.5, losses),
		appendU64(newMsg(nil, msgJoin, 8), 1),
		newMsg(nil, msgBarrier, 0),
	} {
		f.Add(msgBody(msg))
		f.Add(ckptio.SealSection(msg))
	}
	f.Add(hugeIndexBody())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		if p, err := readMsg(bytes.NewReader(data), nil, msgAny); err == nil && len(p) == 0 {
			t.Fatal("readMsg returned an empty payload without error")
		}
		_, _ = decodeHello(data)
		_, _ = decodePayload(data)
		_ = absorbAsRank1(data)
		var fd fold
		into := makeParams()
		fd.start(into)
		_ = fd.install(data, 1, 0.5, into, make([]float64, 2))

		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
	})
}
