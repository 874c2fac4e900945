// Streaming access to labeled workloads. A Source abstracts where
// training examples come from — a fully materialized in-memory slice
// (SliceSource, the legacy path) or an on-disk corpus decoded on
// demand (internal/corpus) — so the training loop never has to hold a
// whole corpus in RAM, and the trajectory it produces cannot depend
// on which backend fed it.
package workload

import (
	"fmt"
	"sort"

	"mtmlf/internal/parallel"
)

// Source is random access to a labeled workload. Example must be safe
// for concurrent callers (the trainer fetches a minibatch's examples
// worker-parallel) and must return the same example bits for the same
// index on every call — that invariance is what keeps the training
// trajectory identical between in-memory and on-disk backends.
type Source interface {
	// Len is the number of examples.
	Len() int
	// Example returns example i (0 <= i < Len). Implementations backed
	// by storage may fail with an I/O error.
	Example(i int) (*LabeledQuery, error)
}

// SliceSource adapts a materialized example slice to Source — the
// in-memory backend.
type SliceSource []*LabeledQuery

// Len implements Source.
func (s SliceSource) Len() int { return len(s) }

// Example implements Source. Like the storage-backed sources, a bad
// index is an error (the Source contract), never a panic.
func (s SliceSource) Example(i int) (*LabeledQuery, error) {
	if i < 0 || i >= len(s) {
		return nil, fmt.Errorf("workload: example %d outside [0, %d)", i, len(s))
	}
	return s[i], nil
}

// SubSource restricts src to the half-open index range [lo, hi) — how
// train/validation/test splits are expressed over a streaming corpus
// without materializing it.
func SubSource(src Source, lo, hi int) (Source, error) {
	if lo < 0 || hi < lo || hi > src.Len() {
		return nil, fmt.Errorf("workload: sub-source [%d, %d) outside [0, %d)", lo, hi, src.Len())
	}
	return &subSource{src: src, lo: lo, n: hi - lo}, nil
}

type subSource struct {
	src Source
	lo  int
	n   int
}

func (s *subSource) Len() int { return s.n }

func (s *subSource) Example(i int) (*LabeledQuery, error) {
	if i < 0 || i >= s.n {
		return nil, fmt.Errorf("workload: example %d outside sub-source of %d", i, s.n)
	}
	return s.src.Example(s.lo + i)
}

// Concat pools sources into one Source with a deterministic global
// index order: all of srcs[0]'s examples first, then srcs[1]'s, and
// so on — the order Algorithm 1 pools per-database workloads in. The
// pool is a view: nothing is materialized, and each access resolves
// to exactly one underlying source, so a streaming epoch over a
// multi-database corpus still touches one minibatch at a time.
func Concat(srcs ...Source) *ConcatSource {
	starts := make([]int, len(srcs)+1)
	for i, s := range srcs {
		starts[i+1] = starts[i] + s.Len()
	}
	return &ConcatSource{srcs: srcs, starts: starts}
}

// ConcatSource is the pooled multi-source Source built by Concat.
type ConcatSource struct {
	srcs   []Source
	starts []int // starts[i] is the global index of srcs[i]'s first example
}

// Len implements Source.
func (c *ConcatSource) Len() int { return c.starts[len(c.srcs)] }

// Locate maps a global index to (source index, local index) — how the
// MLA trainer finds which database (and therefore which featurizer) a
// pooled example belongs to.
func (c *ConcatSource) Locate(i int) (src, local int, err error) {
	if i < 0 || i >= c.Len() {
		return 0, 0, fmt.Errorf("workload: example %d outside [0, %d)", i, c.Len())
	}
	// First source whose start exceeds i, minus one.
	s := sort.SearchInts(c.starts[1:], i+1)
	return s, i - c.starts[s], nil
}

// Example implements Source.
func (c *ConcatSource) Example(i int) (*LabeledQuery, error) {
	s, local, err := c.Locate(i)
	if err != nil {
		return nil, err
	}
	return c.srcs[s].Example(local)
}

// Materialize fetches every example of a source into memory
// (worker-parallel), for consumers that need slices — evaluation
// loops, fine-tune sets, round-trip tests.
func Materialize(src Source) ([]*LabeledQuery, error) {
	if s, ok := src.(SliceSource); ok {
		return s, nil
	}
	n := src.Len()
	out := make([]*LabeledQuery, n)
	if err := parallel.ForErr(n, 1, func(i int) error {
		var err error
		out[i], err = src.Example(i)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}
