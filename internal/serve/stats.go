// Serving telemetry: the counters behind Engine.Stats and the
// /statsz endpoint. The full field-by-field schema, with operator
// guidance on what each number means under load, is documented in
// docs/OPERATIONS.md — keep the two in sync.
package serve

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtmlf/internal/featurize"
	"mtmlf/internal/metrics"
	"mtmlf/internal/tensor"
)

// latWindow is the latency ring size percentiles are computed over
// (the most recent latWindow requests).
const latWindow = 1024

// latRing holds the most recent latWindow durations.
type latRing struct {
	buf []time.Duration
	n   int // total inserted
}

func (r *latRing) add(d time.Duration) {
	if len(r.buf) < latWindow {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.n%latWindow] = d
	}
	r.n++
}

// stats accumulates serving telemetry. One mutex suffices: the
// critical sections are a few counter bumps against milliseconds of
// model work per request.
type stats struct {
	mu       sync.Mutex
	start    time.Time
	sessions int

	counts  [numEndpoints]uint64
	errors  uint64
	batches uint64
	// fused counts requests that shared their batch with at least one
	// other request — the micro-batching hit rate numerator.
	fused uint64
	// shed counts requests rejected at admission with ErrOverloaded
	// (queue full, ShedOverload on).
	shed uint64
	// deadlineMisses counts requests rejected with ErrDeadline —
	// expired before admission or while queued.
	deadlineMisses uint64
	// reloads counts successful hot checkpoint swaps. Atomic, not under
	// mu: Engine.Reloads serves probes without touching the lock.
	reloads atomic.Uint64
	// panics counts handler panics recovered by the HTTP middleware
	// (each returned a 500 instead of killing the server).
	panics uint64

	// featMemo counts the table-encoding memo traffic of every bundle
	// the engine has served from; atomics, bumped by the workers off mu.
	featMemo featurize.MemoCounters

	lat [numEndpoints]latRing
	// queueWait is submit → batch pickup of served requests, across
	// endpoints.
	queueWait latRing
}

func newStats(sessions int) *stats {
	return &stats{start: time.Now(), sessions: sessions}
}

// record counts one served request: its end-to-end latency d and the
// part of it spent queued before a worker picked it up.
func (s *stats) record(ep Endpoint, d, queued time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[ep]++
	s.lat[ep].add(d)
	s.queueWait.add(queued)
}

func (s *stats) recordError() {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
}

func (s *stats) recordShed() {
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
}

func (s *stats) recordDeadlineMiss() {
	s.mu.Lock()
	s.deadlineMisses++
	s.mu.Unlock()
}

func (s *stats) recordReload() { s.reloads.Add(1) }

func (s *stats) recordPanic() {
	s.mu.Lock()
	s.panics++
	s.mu.Unlock()
}

func (s *stats) recordBatch(size int) {
	s.mu.Lock()
	s.batches++
	if size > 1 {
		s.fused += uint64(size)
	}
	s.mu.Unlock()
}

// EndpointStats is one endpoint's request count and latency
// percentiles (over the most recent latWindow requests).
type EndpointStats struct {
	Requests uint64  `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// PoolStats reports the process-wide tensor-arena telemetry: how many
// pooled buffers were handed out and how many required a fresh
// allocation. ReuseRate → 1 as the serving arenas go warm (the
// steady-state zero-allocation property of the fast path).
type PoolStats struct {
	Gets      uint64  `json:"gets"`
	Allocs    uint64  `json:"allocs"`
	ReuseRate float64 `json:"reuse_rate"`
}

// FeatMemoStats reports the bundle's memo of table encodings
// (featurize/memo.go). Hits, Misses, Bypassed and Resets are lifetime
// counts across reloads; Rows is what the current bundle holds.
// Hits / (Hits + Misses + Bypassed) is the share of Enc_i passes the
// memo saved.
type FeatMemoStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Rows     int    `json:"rows"`
	Resets   uint64 `json:"resets"`
	Bypassed uint64 `json:"bypassed"`
}

// LoadStats describes how the serving bundle came to be — what an
// operator sizing a replica, or asking why one took seconds and
// hundreds of megabytes to come up, needs from the process itself. It
// describes the last successful (re)load.
type LoadStats struct {
	// Version, Tensors and Bytes are the checkpoint's format version,
	// the parameter tensors read and the stream bytes consumed; LoadMs
	// is the read + verify + decode time. All zero for a bundle built
	// from an in-memory model (NewEngine, Reload).
	Version int     `json:"version"`
	Tensors int     `json:"tensors"`
	Bytes   int64   `json:"bytes"`
	LoadMs  float64 `json:"load_ms"`
	// LowerMs is the time spent lowering to the serving tier (0 at
	// f64, which serves a view of the loaded weights).
	LowerMs float64 `json:"lower_ms"`
	// ParamBytes is the resident parameter bytes of the bundle: the
	// weights at the serving tier plus the float64 Trans_JO decoder.
	ParamBytes int `json:"param_bytes"`
}

// StatsSnapshot is the /statsz payload. Schema documented for
// operators in docs/OPERATIONS.md.
type StatsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Sessions      int     `json:"sessions"`
	// Precision is the serving tier ("f64", "f32", "int8") — fixed at
	// engine construction, so operators can confirm which replica a
	// process is answering with.
	Precision string `json:"precision"`
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	// Shed counts 429-rejected requests (queue full under
	// ShedOverload); DeadlineMisses counts 504-rejected ones (expired
	// before batch admission). Neither is in Requests or Errors: they
	// never reached a session.
	Shed           uint64 `json:"shed"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	// Reloads counts successful hot checkpoint swaps since boot.
	Reloads uint64 `json:"reloads"`
	// Panics counts handler panics recovered by the HTTP middleware
	// since boot. Each one was answered with a 500; a non-zero value
	// means a bug worth a look, a growing one means trouble.
	Panics uint64 `json:"panics"`
	// QueueDepth is the instantaneous request-queue occupancy;
	// MaxQueue its bound. Depth pinned at MaxQueue means overload.
	QueueDepth int `json:"queue_depth"`
	MaxQueue   int `json:"max_queue"`
	// QPS is the lifetime average request rate.
	QPS float64 `json:"qps"`

	Card      EndpointStats `json:"card"`
	Cost      EndpointStats `json:"cost"`
	JoinOrder EndpointStats `json:"joinorder"`

	// QueueWait percentiles are submit → batch pickup over the most
	// recent latWindow served requests, all endpoints together: the
	// share of the latencies above spent waiting for a session.
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`

	// Batches is the number of micro-batches served; FusedRequests the
	// requests that shared a batch with at least one other.
	Batches       uint64  `json:"batches"`
	FusedRequests uint64  `json:"fused_requests"`
	AvgBatch      float64 `json:"avg_batch"`

	Pool PoolStats `json:"pool"`

	FeatMemo FeatMemoStats `json:"feat_memo"`

	Checkpoint LoadStats `json:"checkpoint"`
}

// snapshot copies the counters and the four latency rings under the
// lock and sorts the copies after releasing it: record takes the same
// lock on every served request, so a /statsz poll must cost the
// request path four 1024-element memmoves, not four sorts.
func (s *stats) snapshot(queueDepth, maxQueue int) StatsSnapshot {
	s.mu.Lock()
	snap := StatsSnapshot{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Sessions:       s.sessions,
		Errors:         s.errors,
		Shed:           s.shed,
		DeadlineMisses: s.deadlineMisses,
		Reloads:        s.reloads.Load(),
		Panics:         s.panics,
		QueueDepth:     queueDepth,
		MaxQueue:       maxQueue,
		Batches:        s.batches,
		FusedRequests:  s.fused,
		FeatMemo: FeatMemoStats{
			Hits:     s.featMemo.Hits.Load(),
			Misses:   s.featMemo.Misses.Load(),
			Resets:   s.featMemo.Resets.Load(),
			Bypassed: s.featMemo.Bypassed.Load(),
		},
	}
	counts := s.counts
	var lat [numEndpoints][]time.Duration
	for ep := range lat {
		lat[ep] = slices.Clone(s.lat[ep].buf)
	}
	queueWait := slices.Clone(s.queueWait.buf)
	s.mu.Unlock()

	for ep, es := range []*EndpointStats{&snap.Card, &snap.Cost, &snap.JoinOrder} {
		es.Requests = counts[ep]
		es.P50Ms, es.P95Ms, es.P99Ms = ringPercentiles(lat[ep])
		snap.Requests += counts[ep]
	}
	if snap.UptimeSeconds > 0 {
		snap.QPS = float64(snap.Requests) / snap.UptimeSeconds
	}
	snap.QueueWaitP50Ms, _, snap.QueueWaitP99Ms = ringPercentiles(queueWait)
	if snap.Batches > 0 {
		snap.AvgBatch = float64(snap.Requests) / float64(snap.Batches)
	}
	gets, allocs := tensor.PoolCounters()
	snap.Pool = PoolStats{Gets: gets, Allocs: allocs}
	if gets > 0 {
		snap.Pool.ReuseRate = 1 - float64(allocs)/float64(gets)
	}
	return snap
}

// ringPercentiles returns the p50, p95, and p99 of a latency ring in
// milliseconds (zeros for an empty ring).
func ringPercentiles(ring []time.Duration) (p50, p95, p99 float64) {
	if len(ring) == 0 {
		return 0, 0, 0
	}
	ms := make([]float64, len(ring))
	for i, d := range ring {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return metrics.Percentile(ms, 0.50), metrics.Percentile(ms, 0.95), metrics.Percentile(ms, 0.99)
}
