package corpus

import (
	"bytes"
	"runtime"
	"testing"

	"mtmlf/internal/workload"
)

// FuzzCorpusOpen: arbitrary bytes opened as a corpus — and walked
// through every lazily verified section — must return an error, never
// panic. The seed corpus covers a file with and without a single-table
// section plus the truncation and bit-flip shapes the deterministic
// durability tests sweep; the fuzzer explores the cross-product from
// there.
//
// Run longer than the CI smoke with:
//
//	go test ./internal/corpus -run=NONE -fuzz=FuzzCorpusOpen -fuzztime=5m
func FuzzCorpusOpen(f *testing.F) {
	full := durableCorpusBytes(f)
	dbs := durableDatabases(f)
	dbs[0].SingleTable = nil
	var bare bytes.Buffer
	if err := write(&bare, durableMeta, dbs); err != nil {
		f.Fatal(err)
	}
	flip := bytes.Clone(full)
	flip[len(flip)/2] ^= 0x40
	tail := bytes.Clone(full)
	tail[len(tail)-5] ^= 1 // inside the footer/trailer
	for _, seed := range [][]byte{
		full,
		bare.Bytes(),
		full[:len(full)/2], // torn write
		full[:7],           // truncated header
		flip,
		tail,
		[]byte(Magic),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// openWalk touches the header, every schema, single-table, and
		// example section; errors are the expected outcome on mutated
		// inputs — the property under test is that nothing panics.
		_ = openWalk(data)
	})
}

// FuzzCorpusRecord feeds arbitrary bytes straight to every record
// decoder. Behind the section checksums almost every mutation of a
// file dies at the CRC, so FuzzCorpusOpen rarely reaches a decoder with
// hostile bytes; here every input does. A decoder must return an error,
// never panic, and never allocate more than a fixed multiple of the
// input: every length prefix is checked against the bytes left, and
// every allocation is charged against maxDensity bytes per input byte,
// before it is made. The limit adds size-class rounding, the example's
// one string copy, and 64 KiB for fixed-size values and error text.
//
//	go test ./internal/corpus -run=NONE -fuzz=FuzzCorpusRecord -fuzztime=5m
func FuzzCorpusRecord(f *testing.F) {
	dbs := durableDatabases(f)
	rec := toRecord(dbs[0].DB)
	f.Add(appendSchema(nil, &rec))
	f.Add(appendSingleTable(nil, dbs[0].SingleTable))
	for _, lq := range dbs[0].Examples {
		f.Add(appendExample(nil, lq))
	}
	data := durableCorpusBytes(f)
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendFooter(nil, &footer{DBs: r.index, HeaderEnd: 100, HeaderCRC: 7}))
	f.Add(appendHeader(nil, &durableMeta))
	decoders := []func([]byte){
		func(b []byte) { _ = decodeExample(b, new(workload.LabeledQuery)) },
		func(b []byte) { _ = decodeSchema(b, new(dbRecord)) },
		func(b []byte) { _, _ = decodeSingleTable(b) },
		func(b []byte) { _ = decodeFooter(b, new(footer)) },
		func(b []byte) { _, _ = decodeHeader(b) },
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// maxDensity is 20; size classes round a charged allocation up
		// by at most half, and the example decoder copies its record once.
		limit := 32*uint64(len(b)) + 64<<10
		for i, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decode(b)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Fatalf("decoder %d allocated %d bytes for a %d-byte record (limit %d)", i, got, len(b), limit)
			}
		}
	})
}
