// Package benchjson is the machine-readable performance report: Go
// benchmark measurements (ns/op, allocs/op, B/op, plus named speedup
// ratios between measurement pairs) and HTTP load-test results
// (throughput + latency percentiles per endpoint per concurrency
// level). It exists so the perf trajectory of the serving path
// accumulates as JSON artifacts (BENCH_PR2.json, BENCH_PR6.json, and
// successors) instead of scrollback: the mtmlf-bench CLI's -json
// flag, the mtmlf-loadgen CLI, and the CI benchmark steps all write
// through it.
package benchjson

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"mtmlf/internal/ckptio"
)

// Entry is one measured benchmark.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Speedup relates a baseline entry to its fast-path counterpart.
type Speedup struct {
	Name        string  `json:"name"`
	Baseline    string  `json:"baseline"`
	Fast        string  `json:"fast"`
	NsSpeedup   float64 `json:"ns_speedup"`
	AllocsRatio float64 `json:"allocs_ratio"`
}

// LoadEntry is one load-generator measurement: one endpoint driven at
// one concurrency level (or open-loop arrival rate) for a fixed
// duration. Latency percentiles come from an HDR-style histogram over
// every successful request (see internal/loadgen).
type LoadEntry struct {
	// Name identifies the measurement, conventionally
	// "<endpoint>/c<concurrency>" (closed loop) or
	// "<endpoint>/r<qps>" (open loop).
	Name     string `json:"name"`
	Endpoint string `json:"endpoint"`
	// Concurrency is the closed-loop worker count; OpenLoopQPS the
	// open-loop target arrival rate (0 when closed-loop).
	Concurrency int     `json:"concurrency"`
	OpenLoopQPS float64 `json:"open_loop_qps,omitempty"`
	DurationSec float64 `json:"duration_sec"`

	// Requests = OK + Shed + DeadlineMisses + Errors: everything the
	// generator attempted against this endpoint.
	Requests       uint64 `json:"requests"`
	OK             uint64 `json:"ok"`
	Shed           uint64 `json:"shed"`            // 429s (after the retry budget)
	DeadlineMisses uint64 `json:"deadline_misses"` // 504s
	Errors         uint64 `json:"errors"`          // everything else non-2xx + transport
	// Retries counts extra attempts triggered by 429 responses when
	// the generator runs with a retry budget (not included in
	// Requests, which counts logical requests).
	Retries uint64 `json:"retries,omitempty"`

	// ThroughputRPS is OK / wall-clock duration — goodput, not offered
	// load.
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
}

// Report is the JSON document.
type Report struct {
	Label      string `json:"label"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is the tensor worker-pool size the measurements ran at
	// (the -workers flag; 0 = all cores). GOMAXPROCS records what the
	// machine had; Workers records what the kernels were allowed to
	// use.
	Workers   int       `json:"workers,omitempty"`
	CreatedAt string    `json:"created_at"`
	Entries   []Entry   `json:"entries"`
	Speedups  []Speedup `json:"speedups"`
	// Load holds load-generator measurements (absent from pure
	// micro-benchmark reports).
	Load []LoadEntry `json:"load,omitempty"`
}

// NewReport creates a report stamped with the runtime environment.
func NewReport(label string) *Report {
	return &Report{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
}

// Measure runs f under the testing benchmark driver (with allocation
// reporting on) and records the result under name.
func (r *Report) Measure(name string, f func(b *testing.B)) Entry {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	e := Entry{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	r.Entries = append(r.Entries, e)
	return e
}

// find returns the entry recorded under name.
func (r *Report) find(name string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// AddSpeedup records the ns/op and allocs/op ratios of two previously
// measured entries (baseline / fast — higher is better).
func (r *Report) AddSpeedup(name, baseline, fast string) error {
	b, ok := r.find(baseline)
	if !ok {
		return fmt.Errorf("benchjson: no entry %q", baseline)
	}
	f, ok := r.find(fast)
	if !ok {
		return fmt.Errorf("benchjson: no entry %q", fast)
	}
	s := Speedup{Name: name, Baseline: baseline, Fast: fast}
	if f.NsPerOp > 0 {
		s.NsSpeedup = b.NsPerOp / f.NsPerOp
	}
	if f.AllocsPerOp > 0 {
		s.AllocsRatio = float64(b.AllocsPerOp) / float64(f.AllocsPerOp)
	} else if b.AllocsPerOp > 0 {
		// Fast path allocates nothing: report the baseline count as
		// the (unbounded) improvement factor.
		s.AllocsRatio = float64(b.AllocsPerOp)
	}
	r.Speedups = append(r.Speedups, s)
	return nil
}

// AddLoad appends one load-generator measurement.
func (r *Report) AddLoad(e LoadEntry) {
	r.Load = append(r.Load, e)
}

// Write marshals the report to path (pretty-printed, trailing
// newline). The write is atomic (temp file + fsync + rename via
// ckptio): BENCH artifacts are uploaded by CI mid-run, and a reader
// must never observe a torn report.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return ckptio.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ReadFile parses a report previously written by Write.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchjson: corrupt report %s: %w", path, err)
	}
	return &r, nil
}

// AppendTo merges r's measurements into the report at path and
// rewrites it atomically, so a BENCH artifact can accumulate a
// trajectory across runs. A missing file starts a fresh report with
// r's label and environment; an existing file keeps its own label and
// gains r's entries, speedups, and load measurements. A corrupt
// existing file is an error and is left untouched — appending must
// never destroy a trajectory it cannot parse.
func (r *Report) AppendTo(path string) error {
	base, err := ReadFile(path)
	switch {
	case os.IsNotExist(err):
		base = r
	case err != nil:
		return err
	default:
		base.Entries = append(base.Entries, r.Entries...)
		base.Speedups = append(base.Speedups, r.Speedups...)
		base.Load = append(base.Load, r.Load...)
	}
	return base.Write(path)
}
