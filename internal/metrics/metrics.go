// Package metrics implements the paper's evaluation metrics: q-error
// with median/max/mean aggregation (Table 1), the total-time
// improvement ratio (Tables 2–3), and JOEU, the join-order evaluation
// understudy of Section 5.
package metrics

import "sort"

// QError returns max(pred/truth, truth/pred) after clamping both to a
// minimum of 1 (the conventional definition; perfect estimate = 1).
func QError(pred, truth float64) float64 {
	if pred < 1 {
		pred = 1
	}
	if truth < 1 {
		truth = 1
	}
	if pred > truth {
		return pred / truth
	}
	return truth / pred
}

// Summary aggregates a q-error (or any positive metric) sample the way
// the paper's Table 1 reports it.
type Summary struct {
	Median float64
	Max    float64
	Mean   float64
	P90    float64
	P99    float64
	N      int
}

// Summarize computes the Table 1 aggregates of a sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		Median: Percentile(s, 0.5),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		P90:    Percentile(s, 0.9),
		P99:    Percentile(s, 0.99),
		N:      len(s),
	}
}

// Percentile interpolates the p-quantile (0 ≤ p ≤ 1) of a sorted,
// non-empty sample linearly between its two nearest ranks. The products
// are rounded explicitly, float64(a*b), so no port fuses them.
func Percentile(sorted []float64, p float64) float64 {
	pos := float64(p * float64(len(sorted)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// ImprovementRatio returns (baseline - value) / baseline — the paper's
// "overall improvement ratio" over the PostgreSQL total time.
func ImprovementRatio(baseline, value float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - value) / baseline
}

// JOEU is the join order evaluation understudy (Section 5): the length
// of the shared prefix of the generated and optimal join orders
// divided by the sequence length. 1 means optimal; once the prefix
// diverges nothing after it can repair the plan.
func JOEU(generated, optimal []string) float64 {
	n := len(optimal)
	if n == 0 {
		return 0
	}
	shared := 0
	for i := 0; i < n && i < len(generated); i++ {
		if generated[i] != optimal[i] {
			break
		}
		shared++
	}
	return float64(shared) / float64(n)
}

// JOEUInt is JOEU over integer sequences (table indices).
func JOEUInt(generated, optimal []int) float64 {
	n := len(optimal)
	if n == 0 {
		return 0
	}
	shared := 0
	for i := 0; i < n && i < len(generated); i++ {
		if generated[i] != optimal[i] {
			break
		}
		shared++
	}
	return float64(shared) / float64(n)
}
