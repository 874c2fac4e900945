package loadgen

import (
	"math/bits"
	"time"
)

// Histogram is an HDR-style latency histogram: log-linear buckets
// with 32 linear sub-buckets per power-of-two octave, giving a fixed
// relative error of at most 1/32 (~3%) at every magnitude from 1µs to
// ~584000 years, in a constant 1.9K-bucket footprint. Recording is a
// few integer ops — no allocation, no sorting — so the generator's
// hot loop can record every request; percentiles are computed on
// demand by walking the buckets. The zero value is ready to use. Not
// safe for concurrent use: the workers share one recorder, which holds
// a mutex around every Record.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    time.Duration
	max    time.Duration
}

// histBuckets covers magnitudes up to 64 bits: values < 32µs get an
// exact bucket each, larger ones 32 sub-buckets per octave.
const histBuckets = 32 + (64-5)*32

// bucketIndex maps a microsecond value to its bucket.
func bucketIndex(us uint64) int {
	if us < 32 {
		return int(us)
	}
	m := bits.Len64(us)         // ≥ 6
	sub := (us >> (m - 6)) & 31 // 5 bits below the leading 1
	return (m-5)*32 + int(sub)
}

// bucketUpper is the largest microsecond value mapping to bucket i
// (the value percentiles report, so estimates never understate).
func bucketUpper(i int) uint64 {
	if i < 32 {
		return uint64(i)
	}
	m := i/32 + 5
	sub := uint64(i%32) | 32 // restore the leading 1
	return (sub+1)<<(m-6) - 1
}

// Record adds one observed latency.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(uint64(d/time.Microsecond))]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Max returns the largest recorded value (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return h.max }

// Mean returns the arithmetic mean of recorded values (exact).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Percentile returns the value at quantile p in [0,1] — the upper
// bound of the bucket holding the ceil(p·count)-th observation,
// clamped to the exact max. Zero when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if p >= 1 {
		return h.max
	}
	if p < 0 {
		p = 0
	}
	target := uint64(p*float64(h.count) + 0.5)
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			v := time.Duration(bucketUpper(i)) * time.Microsecond
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// PercentileMs is Percentile in float milliseconds (report units).
func (h *Histogram) PercentileMs(p float64) float64 {
	return float64(h.Percentile(p)) / float64(time.Millisecond)
}
