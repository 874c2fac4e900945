// The table-encoding memo of a serving bundle.
//
// E(f(T_i)) is a function of the table, its ordered filter list and the
// encoder weights — not of the plan, the endpoint or the request — so a
// Lowered whose weights can no longer change may keep each [1, Dim] row
// it computes and hand it out again. Only Memoized builds such a copy
// and only the serve bundle calls it (DESIGN.md §6): a bundle's weights
// are immutable and a reload builds a new bundle, hence a new memo, so
// there is no invalidation. Every other Lowered has a nil memo and runs
// Enc_i every time.
package featurize

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

const (
	// memoBudget bounds what one memo keeps resident: rows, keys and
	// the map's own slots, charged per entry as below. A memo that
	// would outgrow it starts over with an empty map — traffic that
	// repeats refills it in one pass, and there is no recency list to
	// maintain on the hit path.
	memoBudget = 4 << 20
	// memoMaxKey bounds a stored key (and the stack buffer a lookup
	// builds it in). Longer filter lists — a megabyte LIKE pattern fits
	// in a request body — are encoded without being kept.
	memoMaxKey = 512
	// memoEntryOverhead is charged per entry on top of its key and row
	// bytes: the row's tensor header and shape, the map slot at the
	// map's worst load, and allocator size-class rounding of all four
	// objects. TestMemoBudgetHolds checks the charge against the heap.
	memoEntryOverhead = 192
	// memoFilterFixed is the most key bytes a filter takes besides its
	// three strings: three string lengths, operator, kind, and the
	// integer and float payloads.
	memoFilterFixed = 5*binary.MaxVarintLen64 + 16
)

// MemoCounters are the lifetime counters of the memos filled on behalf
// of one owner (a serve engine shares one set across reloads, so they
// never run backwards). Hits + Misses + Bypassed is the number of table
// encodings requested.
type MemoCounters struct {
	// Hits are encodings answered from the memo; Misses ran Enc_i and
	// stored the row.
	Hits, Misses atomic.Uint64
	// Bypassed ran Enc_i without looking up or storing: the key (or the
	// row) was too long to be worth keeping.
	Bypassed atomic.Uint64
	// Resets counts the times a full memo started over.
	Resets atomic.Uint64
}

// memo maps a (table, ordered filter list) key to the heap-owned
// [1, Dim] row Enc_i produced for it. Rows are read-only once stored.
type memo[T tensor.Float] struct {
	c *MemoCounters
	// mu is an RWMutex because a warm memo is all readers: with two
	// sessions BenchmarkEncodeTableHit reads ~110 ns a lookup under it
	// and ~165 ns under a Mutex.
	mu    sync.RWMutex
	rows  map[string]*tensor.Dense[T]
	bytes int // charged bytes of rows, ≤ memoBudget
}

// Memoized returns a copy of l that memoizes EncodeTableInfer, counting
// into c. The caller promises l's weights never change again — at
// float64 they alias the trainable tensors — which is why the serve
// bundle is the only caller.
func (l *Lowered[T]) Memoized(c *MemoCounters) *Lowered[T] {
	ml := *l
	ml.memo = &memo[T]{c: c, rows: map[string]*tensor.Dense[T]{}}
	return &ml
}

// MemoRows returns the number of rows l's memo holds (0 without one).
func (l *Lowered[T]) MemoRows() int {
	if l.memo == nil {
		return 0
	}
	l.memo.mu.RLock()
	defer l.memo.mu.RUnlock()
	return len(l.memo.rows)
}

// lookup returns the row stored for (table, filters). When there is
// none it returns the key, built in buf, for store to file the row
// under — or a nil key if it is too long to keep.
func (m *memo[T]) lookup(buf []byte, table string, filters []sqldb.Filter) (row *tensor.Dense[T], key []byte) {
	key = appendMemoKey(buf, table, filters)
	if key == nil {
		m.c.Bypassed.Add(1)
		return nil, nil
	}
	m.mu.RLock()
	row = m.rows[string(key)]
	m.mu.RUnlock()
	if row != nil {
		m.c.Hits.Add(1)
		return row, nil
	}
	return nil, key
}

// store files a heap clone of row — session memory, about to be
// recycled — under key. Two callers that missed the same key both get
// here with equal bits; the first one's clone stays.
func (m *memo[T]) store(key []byte, row *tensor.Dense[T]) {
	cost := len(key) + row.Bytes() + memoEntryOverhead
	if cost > memoBudget {
		m.c.Bypassed.Add(1)
		return
	}
	m.c.Misses.Add(1)
	clone := row.Clone()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.rows[string(key)]; dup {
		return
	}
	if m.bytes+cost > memoBudget {
		m.rows = make(map[string]*tensor.Dense[T])
		m.bytes = 0
		m.c.Resets.Add(1)
	}
	m.rows[string(key)] = clone
	m.bytes += cost
}

// appendMemoKey appends the memo key of (table, filters) to dst, or
// returns nil if the key would pass memoMaxKey. Strings are length-
// prefixed and numbers fixed-width or varint, so a key decodes back to
// exactly one input: ("a","bc") and ("ab","c"), Int 1 and Float 1 and
// "1", and the two orders of two filters all differ (FuzzMemoKey).
// Filter order is part of the key because attention sums in sequence
// order; every Filter field is, because FilterToken and the selectivity
// estimate may read any of them.
func appendMemoKey(dst []byte, table string, filters []sqldb.Filter) []byte {
	if len(dst)+binary.MaxVarintLen64+len(table) > memoMaxKey {
		return nil
	}
	dst = appendString(dst, table)
	for i := range filters {
		f := &filters[i]
		if len(dst)+memoFilterFixed+len(f.Table)+len(f.Col)+len(f.Val.S) > memoMaxKey {
			return nil
		}
		dst = appendString(dst, f.Table)
		dst = appendString(dst, f.Col)
		dst = binary.AppendVarint(dst, int64(f.Op))
		dst = binary.AppendVarint(dst, int64(f.Val.Kind))
		dst = binary.BigEndian.AppendUint64(dst, uint64(f.Val.I))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.Val.F))
		dst = appendString(dst, f.Val.S)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}
