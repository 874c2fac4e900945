package loadgen

import (
	"testing"
	"time"
)

// TestHistogramBucketBounds: every value lands in a bucket whose
// upper bound is ≥ the value and within the advertised 1/32 relative
// error (exact below 32µs).
func TestHistogramBucketBounds(t *testing.T) {
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("value %d: bucket upper %d understates", v, up)
		}
		if v < 32 {
			if up != v {
				t.Fatalf("value %d below 32µs must be exact, got upper %d", v, up)
			}
			continue
		}
		if up-v > v/32 {
			t.Fatalf("value %d: bucket upper %d exceeds 1/32 relative error", v, up)
		}
	}
	// Bucket uppers are monotone — no value can sort into a lower
	// percentile than a smaller value.
	prev := uint64(0)
	for i := 1; i < histBuckets; i++ {
		if u := bucketUpper(i); u <= prev {
			t.Fatalf("bucketUpper not monotone at %d: %d <= %d", i, u, prev)
		} else {
			prev = u
		}
	}
}

// TestHistogramPercentiles: a uniform 1..1000µs population reports
// percentiles within the bucket error bound, and max/mean are exact.
func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for us := 1; us <= 1000; us++ {
		h.Record(time.Duration(us) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Max() != 1000*time.Microsecond {
		t.Fatalf("max %v", h.Max())
	}
	if h.Mean() != 500*time.Microsecond+500*time.Nanosecond {
		t.Fatalf("mean %v", h.Mean())
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := h.Percentile(tc.p)
		if got < tc.want {
			t.Fatalf("p%v = %v understates %v", tc.p*100, got, tc.want)
		}
		if limit := tc.want + tc.want/16; got > limit {
			t.Fatalf("p%v = %v, want <= %v", tc.p*100, got, limit)
		}
	}
	if h.Percentile(1.0) != h.Max() {
		t.Fatalf("p100 %v != max %v", h.Percentile(1.0), h.Max())
	}
	if h.Percentile(-1) != h.Percentile(0) {
		t.Fatal("negative quantile must clamp to 0")
	}
}

// TestHistogramEmpty: the zero value reports zeros, not panics.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Percentile(0.99) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}
