package featurize

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

// memoFilters is a mix of filter lists over smallDB's title table: none,
// numeric, LIKE, and the same two filters in both orders.
func memoFilters() [][]sqldb.Filter {
	year := sqldb.Filter{Table: "title", Col: "production_year", Op: sqldb.OpGt, Val: sqldb.IntVal(1950)}
	like := sqldb.Filter{Table: "title", Col: "title", Op: sqldb.OpLike, Val: sqldb.StrVal("%Dark%")}
	return [][]sqldb.Filter{nil, {year}, {like}, {year, like}, {like, year}}
}

// sameBits fails unless got holds want's values exactly.
func sameBits[T tensor.Float](t *testing.T, what string, got, want *tensor.Dense[T]) {
	t.Helper()
	if !tensor.Equal(got, want, 0) {
		t.Fatalf("%s: %v, want %v (not bitwise)", what, got.Data, want.Data)
	}
}

// memoMatchesBare encodes every list three times on a memoized copy of
// l — a miss, then hits from a different session — and checks each row
// against the bare l in a session of its own.
func memoMatchesBare[T tensor.Float](t *testing.T, l *Lowered[T]) {
	var c MemoCounters
	ml := l.Memoized(&c)
	lists := memoFilters()
	for pass := 0; pass < 3; pass++ {
		e := ag.Acquire[T]()
		for i, fl := range lists {
			ref := ag.Acquire[T]()
			want := l.EncodeTableInfer(ref, "title", fl).Clone()
			ag.Release(ref)
			sameBits(t, fmt.Sprintf("pass %d list %d", pass, i), ml.EncodeTableInfer(e, "title", fl), want)
		}
		ag.Release(e)
	}
	n := uint64(len(lists))
	if c.Misses.Load() != n || c.Hits.Load() != 2*n || c.Bypassed.Load() != 0 || c.Resets.Load() != 0 {
		t.Fatalf("counters: %d misses %d hits %d bypassed %d resets, want %d %d 0 0",
			c.Misses.Load(), c.Hits.Load(), c.Bypassed.Load(), c.Resets.Load(), n, 2*n)
	}
	if ml.MemoRows() != len(lists) || l.MemoRows() != 0 {
		t.Fatalf("rows: memoized %d, bare %d; want %d, 0", ml.MemoRows(), l.MemoRows(), len(lists))
	}
}

// TestMemoRowsBitwise: at every tier a memoized Lowered returns, cold
// and warm, the bits the uncached one computes; the two orders of one
// filter pair are different entries; and at float64 those bits are the
// grad-tracked EncodeTable's.
func TestMemoRowsBitwise(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	t.Run("f64", func(t *testing.T) { memoMatchesBare(t, f.Reference()) })
	t.Run("f32", func(t *testing.T) { memoMatchesBare(t, Lower[float32](f, nn.PrecisionF32)) })
	t.Run("int8", func(t *testing.T) { memoMatchesBare(t, Lower[float32](f, nn.PrecisionInt8)) })

	ml := f.Reference().Memoized(new(MemoCounters))
	e := ag.AcquireEval()
	defer ag.ReleaseEval(e)
	for i, fl := range memoFilters() {
		want := f.EncodeTable("title", fl).T
		ml.EncodeTableInfer(e, "title", fl)
		sameBits(t, fmt.Sprintf("grad list %d", i), ml.EncodeTableInfer(e, "title", fl), want)
	}
}

// TestMemoConcurrent: 8 callers on one memo (run under -race), cold
// start, every row equal to the uncached one. Two callers may miss the
// same key and both store; the bits are equal either way.
func TestMemoConcurrent(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	bare := Lower[float32](f, nn.PrecisionF32)
	lists := memoFilters()
	want := make([]*tensor.F32, len(lists))
	ref := ag.AcquireEvalF32()
	for i, fl := range lists {
		want[i] = bare.EncodeTableInfer(ref, "title", fl).Clone()
	}
	ag.ReleaseEvalF32(ref)

	var c MemoCounters
	ml := bare.Memoized(&c)
	const callers, iters = 8, 40
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(lists)
				e := ag.AcquireEvalF32()
				ok := tensor.Equal(ml.EncodeTableInfer(e, "title", lists[i]), want[i], 0)
				ag.ReleaseEvalF32(e)
				if !ok {
					errs <- fmt.Sprintf("caller %d list %d diverged from the uncached row", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if got := c.Hits.Load() + c.Misses.Load(); got != callers*iters || c.Hits.Load() == 0 {
		t.Fatalf("%d hits + %d misses, want %d lookups and some hits", c.Hits.Load(), c.Misses.Load(), callers*iters)
	}
	if ml.MemoRows() != len(lists) {
		t.Fatalf("%d rows, want %d", ml.MemoRows(), len(lists))
	}
}

// TestMemoHitAllocatesNothing pins the hit path — key in a stack
// buffer, map lookup by string(key) — at zero allocations.
func TestMemoHitAllocatesNothing(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	ml := f.Reference().Memoized(new(MemoCounters))
	e := ag.AcquireEval()
	defer ag.ReleaseEval(e)
	for _, fl := range memoFilters() {
		ml.EncodeTableInfer(e, "title", fl)
		if n := testing.AllocsPerRun(100, func() { ml.EncodeTableInfer(e, "title", fl) }); n != 0 {
			t.Fatalf("hit with %d filters: %v allocs/op, want 0", len(fl), n)
		}
	}
}

// tinyFeaturizer has the cheapest encoder the config allows, so the
// budget test can afford ten memo-fulls of encoder passes.
func tinyFeaturizer() *Featurizer {
	cfg := smallConfig()
	cfg.Dim, cfg.Heads = 8, 1
	return New(smallDB(), cfg, 1)
}

func heapNow() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoBudgetHolds is the hostile-caller drill: ten memo-fulls of
// distinct keys (short ones, where the per-entry overhead dominates,
// then ones padded to the key cap) and 1 MiB LIKE patterns. Charged
// bytes never pass memoBudget, what the heap really holds never passes
// what was charged, and answers keep equalling the uncached ones.
func TestMemoBudgetHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the memo ten times over")
	}
	f := tinyFeaturizer()
	bare := Lower[float32](f, nn.PrecisionF32)
	e, ref := ag.AcquireEvalF32(), ag.AcquireEvalF32()
	defer ag.ReleaseEvalF32(e)
	defer ag.ReleaseEvalF32(ref)

	for _, tc := range []struct {
		name string
		pad  int
	}{{"short keys", 0}, {"keys at the cap", memoMaxKey - memoFilterFixed - 32}} {
		t.Run(tc.name, func(t *testing.T) {
			var c MemoCounters
			base := heapNow()
			ml := bare.Memoized(&c)
			pad := strings.Repeat("x", tc.pad)
			flt := []sqldb.Filter{{Table: "title", Col: "title", Op: sqldb.OpEq}}
			var peakCharged int
			var peakHeap uint64
			for i := 0; c.Resets.Load() < 10; i++ {
				flt[0].Val = sqldb.StrVal(fmt.Sprintf("%s%d", pad, i))
				full := ml.memo.bytes
				got := ml.EncodeTableInfer(e, "title", flt)
				if c.Bypassed.Load() != 0 {
					t.Fatalf("key %d, under the cap, was bypassed", i)
				}
				if ml.memo.bytes > memoBudget {
					t.Fatalf("key %d: %d bytes charged, budget %d", i, ml.memo.bytes, memoBudget)
				}
				if ml.memo.bytes < full { // that store reset a full memo
					peakCharged = max(peakCharged, full)
				}
				if i%64 == 0 {
					sameBits(t, fmt.Sprintf("key %d", i), got, bare.EncodeTableInfer(ref, "title", flt))
					sameBits(t, fmt.Sprintf("key %d again", i), ml.EncodeTableInfer(e, "title", flt), got)
					e.Reset()
					ref.Reset()
				}
				// Measure the heap once, when the memo is as full as it gets.
				if peakHeap == 0 && c.Resets.Load() == 1 && ml.memo.bytes+2*(memoMaxKey+memoEntryOverhead) > memoBudget {
					peakHeap = heapNow() - base
				}
			}
			if peakCharged < memoBudget*9/10 {
				t.Fatalf("memo reset at %d charged bytes, budget %d: the charge per entry is far off", peakCharged, memoBudget)
			}
			if peakHeap == 0 || peakHeap > memoBudget {
				t.Fatalf("a full memo holds %d heap bytes, budget %d", peakHeap, memoBudget)
			}
			t.Logf("full memo: %d bytes charged, %d on the heap", peakCharged, peakHeap)
			runtime.KeepAlive(ml)
		})
	}

	t.Run("1 MiB patterns", func(t *testing.T) {
		var c MemoCounters
		ml := bare.Memoized(&c)
		for i := 0; i < 4; i++ {
			flt := []sqldb.Filter{
				{Table: "title", Col: "production_year", Op: sqldb.OpGt, Val: sqldb.IntVal(1950)},
				{Table: "title", Col: "title", Op: sqldb.OpLike, Val: sqldb.StrVal("%" + strings.Repeat(string(rune('a'+i)), 1<<20) + "%")},
			}
			for rep := 0; rep < 2; rep++ {
				sameBits(t, fmt.Sprintf("pattern %d", i),
					ml.EncodeTableInfer(e, "title", flt), bare.EncodeTableInfer(ref, "title", flt))
			}
		}
		if c.Bypassed.Load() != 8 || c.Hits.Load()+c.Misses.Load() != 0 || ml.MemoRows() != 0 || ml.memo.bytes != 0 {
			t.Fatalf("%d bypassed, %d hits, %d misses, %d rows, %d bytes; want 8 0 0 0 0",
				c.Bypassed.Load(), c.Hits.Load(), c.Misses.Load(), ml.MemoRows(), ml.memo.bytes)
		}
	})
}

// decodeMemoKey is the inverse of appendMemoKey; that it exists is the
// proof that no two inputs share a key.
func decodeMemoKey(key []byte) (table string, filters []sqldb.Filter, ok bool) {
	str := func() string {
		n, w := binary.Uvarint(key)
		if w <= 0 || n > uint64(len(key)-w) {
			ok = false
			return ""
		}
		s := string(key[w : w+int(n)])
		key = key[w+int(n):]
		return s
	}
	num := func() int64 {
		v, w := binary.Varint(key)
		if w <= 0 {
			ok = false
			return 0
		}
		key = key[w:]
		return v
	}
	fixed := func() uint64 {
		if len(key) < 8 {
			ok = false
			return 0
		}
		v := binary.BigEndian.Uint64(key)
		key = key[8:]
		return v
	}
	ok = true
	table = str()
	for ok && len(key) > 0 {
		var f sqldb.Filter
		f.Table, f.Col = str(), str()
		f.Op, f.Val.Kind = sqldb.Op(num()), sqldb.Kind(num())
		f.Val.I, f.Val.F = int64(fixed()), math.Float64frombits(fixed())
		f.Val.S = str()
		filters = append(filters, f)
	}
	return table, filters, ok
}

func sameInput(t1 string, f1 []sqldb.Filter, t2 string, f2 []sqldb.Filter) bool {
	if t1 != t2 || len(f1) != len(f2) {
		return false
	}
	for i := range f1 {
		a, b := f1[i], f2[i]
		fa, fb := math.Float64bits(a.Val.F), math.Float64bits(b.Val.F)
		a.Val.F, b.Val.F = 0, 0
		if a != b || fa != fb {
			return false
		}
	}
	return true
}

// TestMemoKeyDistinguishes names the collisions a careless key would
// have.
func TestMemoKeyDistinguishes(t *testing.T) {
	flt := func(col string, v sqldb.Value) sqldb.Filter {
		return sqldb.Filter{Table: "t", Col: col, Op: sqldb.OpEq, Val: v}
	}
	a, b := flt("a", sqldb.IntVal(1)), flt("b", sqldb.StrVal("x"))
	inputs := []struct {
		table   string
		filters []sqldb.Filter
	}{
		{"", nil}, {"t", nil}, {"a", nil}, {"ab", nil},
		{"a", []sqldb.Filter{{Col: "bc"}}}, {"ab", []sqldb.Filter{{Col: "c"}}},
		{"a", []sqldb.Filter{{Table: "bc"}}}, {"a", []sqldb.Filter{{Table: "b", Col: "c"}}},
		{"t", []sqldb.Filter{flt("c", sqldb.IntVal(1))}},
		{"t", []sqldb.Filter{flt("c", sqldb.FloatVal(1))}},
		{"t", []sqldb.Filter{flt("c", sqldb.StrVal("1"))}},
		{"t", []sqldb.Filter{flt("c", sqldb.StrVal(""))}},
		{"t", []sqldb.Filter{flt("c", sqldb.Value{})}},
		{"t", []sqldb.Filter{flt("c", sqldb.FloatVal(math.Copysign(0, -1)))}},
		{"t", []sqldb.Filter{flt("c", sqldb.Value{Kind: sqldb.KindInt, I: 1, F: 1})}},
		{"t", []sqldb.Filter{{Table: "t", Col: "c", Op: sqldb.OpNeq, Val: sqldb.IntVal(1)}}},
		{"t", []sqldb.Filter{a}}, {"t", []sqldb.Filter{a, a}},
		{"t", []sqldb.Filter{a, b}}, {"t", []sqldb.Filter{b, a}},
		{"t", []sqldb.Filter{flt("", sqldb.StrVal("ab")), flt("", sqldb.StrVal(""))}},
		{"t", []sqldb.Filter{flt("", sqldb.StrVal("a")), flt("", sqldb.StrVal("b"))}},
	}
	seen := map[string]int{}
	for i, in := range inputs {
		key := appendMemoKey(nil, in.table, in.filters)
		if key == nil {
			t.Fatalf("input %d: short key refused", i)
		}
		if j, dup := seen[string(key)]; dup {
			t.Fatalf("inputs %d and %d share key %x", j, i, key)
		}
		seen[string(key)] = i
		if tb, fl, ok := decodeMemoKey(key); !ok || !sameInput(tb, fl, in.table, in.filters) {
			t.Fatalf("input %d: key %x decodes to (%q, %v)", i, key, tb, fl)
		}
	}
	long := []sqldb.Filter{flt("c", sqldb.StrVal(strings.Repeat("x", memoMaxKey)))}
	if key := appendMemoKey(nil, "t", long); key != nil {
		t.Fatalf("a %d-byte key was kept, cap %d", len(key), memoMaxKey)
	}
}

// fuzzMemoInput reads a (table, filters) input off b: strings of up to
// four bytes, so that neighbours trade bytes across their boundaries,
// and every numeric field raw.
func fuzzMemoInput(b []byte) (string, []sqldb.Filter) {
	str := func() string {
		if len(b) == 0 {
			return ""
		}
		n := min(int(b[0]%5), len(b)-1)
		s := string(b[1 : 1+n])
		b = b[1+n:]
		return s
	}
	num := func(width int) uint64 {
		var v [8]byte
		b = b[copy(v[:width], b):]
		return binary.LittleEndian.Uint64(v[:])
	}
	table := str()
	var filters []sqldb.Filter
	for len(b) > 0 {
		filters = append(filters, sqldb.Filter{
			Table: str(), Col: str(), Op: sqldb.Op(int8(num(1))),
			Val: sqldb.Value{Kind: sqldb.Kind(int8(num(1))), I: int64(num(8)), F: math.Float64frombits(num(8)), S: str()},
		})
	}
	return table, filters
}

// FuzzMemoKey: a key decodes back to the input it was built from, and
// two different inputs never get equal keys.
func FuzzMemoKey(f *testing.F) {
	f.Add([]byte("\x01a\x00\x02bc"), []byte("\x02ab\x00\x01c"))
	f.Add([]byte("\x01t\x01t\x01c\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"), []byte("\x01t\x01t\x01c\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0\x3f"))
	f.Add([]byte("\x01t"), []byte("\x01t\x00"))
	f.Add([]byte{}, []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ta, fa := fuzzMemoInput(a)
		tb, fb := fuzzMemoInput(b)
		ka, kb := appendMemoKey(nil, ta, fa), appendMemoKey(nil, tb, fb)
		for _, in := range []struct {
			key     []byte
			table   string
			filters []sqldb.Filter
		}{{ka, ta, fa}, {kb, tb, fb}} {
			if in.key == nil {
				continue
			}
			if len(in.key) > memoMaxKey {
				t.Fatalf("key of %d bytes, cap %d", len(in.key), memoMaxKey)
			}
			if tbl, fl, ok := decodeMemoKey(in.key); !ok || !sameInput(tbl, fl, in.table, in.filters) {
				t.Fatalf("key %x of (%q, %v) decodes to (%q, %v)", in.key, in.table, in.filters, tbl, fl)
			}
		}
		if ka != nil && kb != nil && bytes.Equal(ka, kb) != sameInput(ta, fa, tb, fb) {
			t.Fatalf("(%q, %v) and (%q, %v): keys %x and %x", ta, fa, tb, fb, ka, kb)
		}
	})
}

// TestHashStringIsFNV1a: the inlined hash places columns and trigrams
// in the slots hash/fnv did.
func TestHashStringIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "production_year", "%Da", "\x00\xff\x80"} {
		h := fnv.New32a()
		h.Write([]byte(s))
		if got, want := hashString(s), h.Sum32(); got != want {
			t.Fatalf("hashString(%q) = %#x, fnv-1a %#x", s, got, want)
		}
	}
}

// TestFilterTokenRoundsOnce: a float32 row written in place holds the
// float64 token rounded element by element — what the per-filter
// []float64 and a converting copy used to produce.
func TestFilterTokenRoundsOnce(t *testing.T) {
	f := New(smallDB(), smallConfig(), 1)
	for _, fl := range memoFilters() {
		for _, flt := range fl {
			want := f.FilterToken(flt)
			got := make([]float32, len(want))
			writeFilterToken(&f.Tokenizer, got, flt)
			for i := range want {
				if got[i] != float32(want[i]) {
					t.Fatalf("%v slot %d: %v, want %v", flt, i, got[i], float32(want[i]))
				}
			}
		}
	}
}

// benchFeaturizer is Enc_i at the paper's width (Dim 128, 4 heads, 3
// blocks): the encoder pass a hit saves.
func benchFeaturizer() *Featurizer {
	return New(smallDB(), Config{Dim: 128, Heads: 4, Blocks: 3, MaxCols: 8, CharDims: 12, LR: 1e-3}, 1)
}

// BenchmarkEncodeTableHit is a warm lookup from parallel sessions: key
// build, read-locked map read, counter bump. 0 allocs/op; ns/op at
// -cpu 1,2,4 shows what the shared lock and counter cost under
// contention (an encoder pass is ~1 ms at this width).
func BenchmarkEncodeTableHit(b *testing.B) {
	ml := benchFeaturizer().Reference().Memoized(new(MemoCounters))
	flt := memoFilters()[3]
	e := ag.AcquireEval()
	ml.EncodeTableInfer(e, "title", flt)
	ag.ReleaseEval(e)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		e := ag.AcquireEval()
		defer ag.ReleaseEval(e)
		for pb.Next() {
			ml.EncodeTableInfer(e, "title", flt)
		}
	})
}

// BenchmarkEncodeTableMiss sends a constant nobody has sent before on
// every pass, through a memoized and a bare Lowered in turn, and
// reports what the miss adds — key, clone, insert, the odd reset — as
// a share of the bare encoder pass. Expect under 2 %.
func BenchmarkEncodeTableMiss(b *testing.B) {
	bare := benchFeaturizer().Reference()
	ml := bare.Memoized(new(MemoCounters))
	flt := memoFilters()[3]
	e := ag.AcquireEval()
	defer ag.ReleaseEval(e)
	var memoized, uncached time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flt[0].Val.I = int64(i)
		t0 := time.Now()
		ml.EncodeTableInfer(e, "title", flt)
		t1 := time.Now()
		bare.EncodeTableInfer(e, "title", flt)
		uncached += time.Since(t1)
		memoized += t1.Sub(t0)
		e.Reset()
	}
	b.ReportMetric(float64(uncached.Nanoseconds())/float64(b.N), "bare_ns/pass")
	b.ReportMetric(100*float64(memoized-uncached)/float64(uncached), "miss_overhead_%")
}
