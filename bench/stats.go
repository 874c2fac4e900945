package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"text/tabwriter"
	"time"
)

// percentile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks, so two runs rarely read the same.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// steady is the value a leg reaches while the box is in its fast state:
// the 90th percentile, towards the better side, of the values of the
// leg's stretches. The box is two cores of a shared host and has two
// speeds: for 10 to 30 s at a time everything on it runs about a fifth
// slower, with no stolen time reported, then fast again. A median over a
// run's stretches is a mix of the two in proportions that differ from
// run to run; the better tenth is the fast state as soon as a tenth of
// the run was spent in it.
func steady(values []float64, higherIsBetter bool) float64 {
	s := slices.Clone(values)
	sort.Float64s(s)
	if higherIsBetter {
		return percentile(s, 0.9)
	}
	return percentile(s, 0.1)
}

func sum(ds []time.Duration) (s time.Duration) {
	for _, d := range ds {
		s += d
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedMs converts to milliseconds and sorts, ready for percentile.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// quartiles are the cut points of Python's statistics.quantiles(v, n=4)
// (its default, exclusive method), which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// byWorkloadMetric collects the untraced runs' values of each
// end-to-end metric per workload.
func byWorkloadMetric(runs []reportRow) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// printSpreads prints, for repeated runs, each end-to-end metric's
// median, quartiles and spread next to its bound.
func printSpreads(w io.Writer, runs []reportRow) {
	vals := byWorkloadMetric(runs)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tn\tq1\tmedian\tq3\tspread\tbound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			v := vals[wl.Name][m.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%.2f\n", wl.Name, m.Name, len(v), q1, q2, q3, spread(v), m.Bound)
		}
	}
	tw.Flush()
}

// compare prints one row per (end-to-end metric, workload) of two
// reports and returns false when any metric of b is worse than a's by
// more than its bound.
func compare(w io.Writer, a, b *report) bool {
	va, vb := byWorkloadMetric(a.Runs), byWorkloadMetric(b.Runs)
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB/A\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			xa, xb := va[wl.Name][m.Name], vb[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "within"
			switch {
			case m.Name != "setup_s" && len(xa) > 1 && spread(xa) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f of %.4g\t%.2f\t%s\n", wl.Name, m.Name, ma, mb, mb/ma, ma, m.Bound, verdict)
		}
	}
	tw.Flush()
	return ok
}
