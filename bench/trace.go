package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"mtmlf/internal/ckptio"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one training step) share Req; Parent is the ID of the span that
// caused this one, 0 for a root. Times are nanoseconds since the
// tracer's first span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The spans come from
// the benchmark's own calls into each layer; the programs are not
// instrumented.
type tracer struct {
	enabled bool
	mu      sync.Mutex
	t0      time.Time
	spans   []span
}

// add records a finished span and returns its ID (0 when tracing is off).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if !t.enabled {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.t0.IsZero() {
		t.t0 = start
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, req, name, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
	return id
}

// times returns, per span name, every span's duration and self time:
// its duration minus the part its direct children cover.
func (t *tracer) times() (total, self map[string][]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	total, self = map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], time.Duration(d))
		self[s.Name] = append(self[s.Name], time.Duration(d-covered[s.ID]))
	}
	return total, self
}

func medianUs(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = us(d)
	}
	return median(v)
}

// writeFile writes the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ckptio.WriteFileAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(t.spans)
	})
}
