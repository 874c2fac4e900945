package mtmlf

import (
	"math"
	"math/rand"
	"sort"

	"mtmlf/internal/ag"
	"mtmlf/internal/nn"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

// JoinOrder is Trans_JO (Figure 2 T.iii): a transformer decoder that
// emits the join order one table per timestamp. Following the seq2seq
// framing of Section 4.2, Trans_Share acts as the encoder and the leaf
// representations (S_1..S_m) are the decoder memory. The output
// distribution P̂_t is computed pointer-style: a scaled dot product
// between the decoder state and the memory rows, so the distribution
// ranges over the query's tables. This keeps the head independent of
// any global table numbering, which is what lets the (T) module
// transfer across databases with different schemas (Section 3.3); the
// paper's fixed n-way softmax is recovered by mapping memory positions
// back to table ids.
type JoinOrder struct {
	Dec *nn.Decoder
	// Start is the learned begin-of-sequence token.
	Start *ag.Value
	// PrevProj embeds the previously selected table's memory row as
	// the next decoder input (the paper's "output of Trans_JO from the
	// previous timestamp" input).
	PrevProj *nn.Linear
	dim      int
	// dec and prevProj are the float64 inference views of Dec and
	// PrevProj (nn/lower.go: they alias the trained weights, so they
	// are built once, here). Trans_JO decodes at float64 in every
	// serving tier, which is what keeps join orders identical across
	// tiers rather than merely close.
	dec      *nn.LoweredDecoder[float64]
	prevProj *nn.LoweredLinear[float64]
}

// NewJoinOrder builds the decoder.
func NewJoinOrder(rng *rand.Rand, cfg Config) *JoinOrder {
	j := &JoinOrder{
		Dec:      nn.NewDecoder(rng, cfg.Dim, cfg.Heads, cfg.DecBlocks),
		Start:    ag.Param(tensor.RandNorm(rng, 1, cfg.Dim, 0.02)),
		PrevProj: nn.NewLinear(rng, cfg.Dim, cfg.Dim),
		dim:      cfg.Dim,
	}
	j.dec = nn.LowerDecoder[float64](j.Dec, nn.PrecisionF64)
	j.prevProj = nn.LowerLinear[float64](j.PrevProj, nn.PrecisionF64)
	return j
}

// Params implements nn.Module.
func (j *JoinOrder) Params() []*ag.Value {
	out := []*ag.Value{j.Start}
	out = append(out, j.PrevProj.Params()...)
	out = append(out, j.Dec.Params()...)
	return out
}

// Logits runs the decoder for len(prev)+1 timestamps with teacher
// forcing: prev holds the memory positions selected at earlier
// timestamps. The result is a [len(prev)+1, m] matrix of unnormalized
// scores over memory positions.
func (j *JoinOrder) Logits(memory *ag.Value, prev []int) *ag.Value {
	tokens := []*ag.Value{j.Start}
	for _, p := range prev {
		row := ag.SliceRows(memory, p, p+1)
		tokens = append(tokens, j.PrevProj.Forward(row))
	}
	x := ag.ConcatRows(tokens...)
	out := j.Dec.Forward(x, memory, nn.CausalMask(len(tokens)))
	scale := 1 / math.Sqrt(float64(j.dim))
	return ag.Scale(ag.MatMulTransB(out, memory), scale)
}

// maskRow builds a [1, m] additive mask blocking the given positions.
func maskRow(m int, blocked func(int) bool) *tensor.Tensor {
	t := tensor.New(1, m)
	for i := 0; i < m; i++ {
		if blocked(i) {
			t.Data[i] = -1e9
		}
	}
	return t
}

// ScoreSequence returns the differentiable log-probability of emitting
// the full position sequence seq, with already-used positions masked
// out of each step's softmax (so probabilities are normalized over the
// remaining tables).
func (j *JoinOrder) ScoreSequence(memory *ag.Value, seq []int) *ag.Value {
	mTabs := memory.Rows()
	logits := j.Logits(memory, seq[:len(seq)-1])
	total := ag.Scalar(0)
	used := make([]bool, mTabs)
	for t, pick := range seq {
		row := ag.SliceRows(logits, t, t+1)
		masked := ag.Add(row, ag.Const(maskRow(mTabs, func(i int) bool { return used[i] })))
		lp := ag.LogSoftmaxRows(masked)
		sel := tensor.New(1, mTabs)
		sel.Data[pick] = 1
		total = ag.Add(total, ag.SumAll(ag.Mul(lp, ag.Const(sel))))
		used[pick] = true
	}
	return total
}

// positionAdjacency builds the query-local adjacency matrix of
// Section 4.3 ("we utilize this relationship to construct a
// corresponding adjacency matrix for each query"): adj[i][j] reports
// whether tables i and j of the query share a join predicate.
func positionAdjacency(q *sqldb.Query) [][]bool {
	pos := map[string]int{}
	for i, t := range q.Tables {
		pos[t] = i
	}
	adj := make([][]bool, len(q.Tables))
	for i := range adj {
		adj[i] = make([]bool, len(q.Tables))
	}
	for _, e := range q.Joins {
		i, iok := pos[e.T1]
		j, jok := pos[e.T2]
		if iok && jok {
			adj[i][j] = true
			adj[j][i] = true
		}
	}
	return adj
}

// legalNext reports which positions may legally extend a partial
// order: unused, and (after the first step) sharing a join key with
// some already-joined table.
func legalNext(adj [][]bool, used []bool, step int) []int {
	var out []int
	for i := range used {
		if used[i] {
			continue
		}
		if step == 0 {
			out = append(out, i)
			continue
		}
		for k := range used {
			if used[k] && adj[i][k] {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// BeamSearchResult is one completed hypothesis.
type BeamSearchResult struct {
	Positions []int
	LogProb   float64
	Legal     bool
}

// BestBeam returns the highest log-probability hypothesis; ok is
// false for an empty result set (under the constrained search, a
// disconnected join graph). Every consumer of a beam search — the
// inference entry points here and the serving engine — picks its
// winner through this one function.
func BestBeam(res []BeamSearchResult) (best BeamSearchResult, ok bool) {
	if len(res) == 0 {
		return BeamSearchResult{}, false
	}
	best = res[0]
	for _, r := range res[1:] {
		if r.LogProb > best.LogProb {
			best = r
		}
	}
	return best, true
}

// OrderTables maps the hypothesis' memory positions to table names
// using the memory row order (Representation/InferRep .Tables).
func (r BeamSearchResult) OrderTables(tables []string) []string {
	out := make([]string, len(r.Positions))
	for i, pos := range r.Positions {
		out[i] = tables[pos]
	}
	return out
}

// BeamSearch decodes a join order with the legality-pruned beam search
// of Section 4.3: at each timestamp only tables sharing a join key
// with the joined prefix are expanded, so every returned top candidate
// is executable. Setting constrained=false disables the pruning and
// also surfaces illegal candidates — the Ū(x) set needed by the
// Equation 3 sequence-level loss.
//
// This is the KV-cached incremental implementation: the memory is
// encoded once, each beam is extended by one token per step against
// its per-layer K/V caches (cloned on beam fork), and the k beams'
// per-step projections run through the batched matmul kernels in one
// dispatch. Beams and log-probs are bitwise identical to a full-prefix
// recompute over Logits (the eps = 0 reference in infer_test.go).
func (j *JoinOrder) BeamSearch(memory *ag.Value, q *sqldb.Query, k int, constrained bool) []BeamSearchResult {
	return j.BeamSearchTensor(memory.T, q, k, constrained)
}

// cachedBeam is one partial hypothesis of the cached search.
type cachedBeam struct {
	seq   []int
	logp  float64
	cache *nn.DecCache[float64]
}

// BeamSearchTensor is BeamSearch over a raw memory tensor — the
// entry point for the no-grad serving path, which has no ag.Value
// wrapping the memory.
func (j *JoinOrder) BeamSearchTensor(mem *tensor.Tensor, q *sqldb.Query, k int, constrained bool) []BeamSearchResult {
	mTabs := mem.Rows()
	adj := positionAdjacency(q)
	e := ag.AcquireEval()
	defer ag.ReleaseEval(e)
	scale := 1 / math.Sqrt(float64(j.dim))

	beams := []cachedBeam{{cache: j.dec.NewCache(e, mem, mTabs)}}
	type candidate struct {
		parent int
		pos    int
		logp   float64
	}
	var cands []candidate
	lastPicks := make([]int, 0, k)
	for step := 0; step < mTabs; step++ {
		// One decoder step for every live beam: new input rows are the
		// projected previously-picked memory rows (the Start token at
		// step 0), batched into a single [numBeams, dim] matrix so the
		// per-step projections fuse into single kernel dispatches.
		var x *tensor.Tensor
		if step == 0 {
			x = j.Start.T
		} else {
			lastPicks = lastPicks[:0]
			for _, b := range beams {
				lastPicks = append(lastPicks, b.seq[len(b.seq)-1])
			}
			x = j.prevProj.Infer(e, e.Gather(mem, lastPicks))
		}
		caches := make([]*nn.DecCache[float64], len(beams))
		for i := range beams {
			caches[i] = beams[i].cache
		}
		out := j.dec.StepBeams(e, x, caches)
		logits := e.Scale(e.MatMulTransB(out, mem), scale)

		cands = cands[:0]
		for bi, b := range beams {
			used := make([]bool, mTabs)
			for _, p := range b.seq {
				used[p] = true
			}
			var candidates []int
			if constrained {
				candidates = legalNext(adj, used, step)
			} else {
				for i := 0; i < mTabs; i++ {
					if !used[i] {
						candidates = append(candidates, i)
					}
				}
			}
			if len(candidates) == 0 {
				continue
			}
			row := logits.Row(bi)
			// Normalize over the candidate set.
			lse := math.Inf(-1)
			for _, c := range candidates {
				lse = logAdd(lse, row[c])
			}
			for _, c := range candidates {
				cands = append(cands, candidate{parent: bi, pos: c, logp: b.logp + row[c] - lse})
			}
		}
		if len(cands) == 0 {
			return nil
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].logp > cands[b].logp })
		if len(cands) > k {
			cands = cands[:k]
		}
		// Fork the surviving hypotheses: the first child of each parent
		// inherits the parent's (already extended) cache, later
		// children clone it.
		next := make([]cachedBeam, len(cands))
		cacheTaken := make([]bool, len(beams))
		for i, c := range cands {
			parent := beams[c.parent]
			cache := parent.cache
			if cacheTaken[c.parent] {
				cache = cache.Clone()
			}
			cacheTaken[c.parent] = true
			seq := make([]int, 0, len(parent.seq)+1)
			seq = append(seq, parent.seq...)
			next[i] = cachedBeam{seq: append(seq, c.pos), logp: c.logp, cache: cache}
		}
		beams = next
	}
	out := make([]BeamSearchResult, 0, len(beams))
	for _, b := range beams {
		out = append(out, BeamSearchResult{
			Positions: b.seq,
			LogProb:   b.logp,
			Legal:     isLegalOrder(adj, b.seq),
		})
	}
	return out
}

// isLegalOrder verifies every prefix of a position sequence is
// connected under the adjacency matrix.
func isLegalOrder(adj [][]bool, seq []int) bool {
	for t := 1; t < len(seq); t++ {
		ok := false
		for _, prevPos := range seq[:t] {
			if adj[seq[t]][prevPos] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if b > a {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// JoinOrderFor predicts the join order for a query from its shared
// representation using constrained beam search; the Section 4.3
// guarantee holds: the returned order is always executable.
func (m *Model) JoinOrderFor(q *sqldb.Query, rep *Representation) []string {
	best, ok := BestBeam(m.Shared.JO.BeamSearch(rep.Memory, q, m.Shared.Cfg.BeamWidth, true))
	if !ok {
		return nil
	}
	return best.OrderTables(rep.Tables)
}
