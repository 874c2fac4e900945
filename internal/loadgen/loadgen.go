// Package loadgen is the production load harness for the serving
// stack: it drives the mtmlf-serve HTTP endpoints (/estimate/card,
// /estimate/cost, /joinorder) with a configurable traffic mix,
// Zipf-skewed query popularity over a pre-built query pool, and
// either a closed loop (N workers, each firing its next request the
// moment the previous answer lands — models N waiting DBMS backends)
// or an open loop (requests dispatched at a fixed arrival rate
// regardless of completions — models independent clients, and unlike
// the closed loop it exposes queueing collapse, because arrivals
// don't slow down when the server does).
//
// Every request's latency lands in an HDR-style histogram
// (Histogram); results aggregate per endpoint and export as LoadEntry
// records, which a Report writes as JSON (`mtmlf-loadgen -json <path>`;
// `make load-smoke` writes load-smoke.json).
// Overload shedding (429) and deadline misses (504) are counted
// separately from errors: for a server under deliberate overload they
// are correct behavior, and the split is what lets the smoke test
// assert "zero failed requests" while still pushing past capacity.
//
// The query pool comes from the same generators the server's training
// corpus did — SyntheticPool mirrors mtmlf-serve's schema flags, and
// CorpusPool replays labeled queries straight out of a corpus
// artifact — so offered load has the same shape as training load, and
// a Zipf pick over the pool models the few-hot-queries/long-tail
// popularity of a production plan cache.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/corpus"
	"mtmlf/internal/plan"
	"mtmlf/internal/serve"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// Endpoint paths driven by the generator, in report order.
var endpointPaths = map[string]string{
	"card":      "/estimate/card",
	"cost":      "/estimate/cost",
	"joinorder": "/joinorder",
}

// EndpointOrder fixes the reporting order of endpoints.
var EndpointOrder = []string{"card", "cost", "joinorder"}

// Mix is the traffic mix as relative integer weights.
type Mix struct {
	Card, Cost, JoinOrder int
}

// DefaultMix mirrors a plan-optimization session: estimates dominate,
// join ordering is the occasional expensive call.
func DefaultMix() Mix { return Mix{Card: 50, Cost: 30, JoinOrder: 20} }

// ParseMix parses "card=50,cost=30,joinorder=20" (missing endpoints
// get weight 0; at least one weight must be positive).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix term %q is not name=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q must be a non-negative integer", v)
		}
		switch strings.TrimSpace(k) {
		case "card":
			m.Card = w
		case "cost":
			m.Cost = w
		case "joinorder":
			m.JoinOrder = w
		default:
			return m, fmt.Errorf("loadgen: unknown endpoint %q (want card, cost, joinorder)", k)
		}
	}
	if m.Card+m.Cost+m.JoinOrder <= 0 {
		return m, fmt.Errorf("loadgen: mix %q has no positive weight", s)
	}
	return m, nil
}

// ParseLevels parses a comma list of closed-loop concurrency levels
// ("8,32"). Every level must be a positive integer and the list must
// name at least one: a run of no levels would measure nothing and
// still pass.
func ParseLevels(s string) ([]int, error) {
	var levels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("loadgen: concurrency level %q must be a positive integer", part)
		}
		levels = append(levels, c)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("loadgen: levels %q name no concurrency level", s)
	}
	return levels, nil
}

// Weight returns the weight of a named endpoint.
func (m Mix) Weight(ep string) int {
	switch ep {
	case "card":
		return m.Card
	case "cost":
		return m.Cost
	default:
		return m.JoinOrder
	}
}

// pick draws an endpoint name from the mix.
func (m Mix) pick(rng *rand.Rand) string {
	total := m.Card + m.Cost + m.JoinOrder
	n := rng.Intn(total)
	if n < m.Card {
		return "card"
	}
	if n < m.Card+m.Cost {
		return "cost"
	}
	return "joinorder"
}

// Pool is the fixed set of request bodies load is drawn from. Items
// are pre-marshaled JSON so the hot loop does zero encoding work.
type Pool struct {
	Items [][]byte
	// Source describes provenance for logs ("synthetic seed=1
	// scale=0.06" or "corpus fleet.mtc db=D2").
	Source string
}

// SyntheticPool generates n request bodies against db — the same
// generator family the training workload came from. Plans are the
// left-deep trees the server would synthesize itself, included
// explicitly so the request bytes are self-contained.
func SyntheticPool(db *sqldb.DB, seed int64, n, maxTables int) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: pool size must be positive, got %d", n)
	}
	gen := workload.NewGenerator(db, seed)
	cfg := workload.DefaultConfig()
	if maxTables > 0 {
		cfg.MaxTables = maxTables
	}
	p := &Pool{Source: fmt.Sprintf("synthetic db=%s seed=%d n=%d", db.Name, seed, n)}
	for i := 0; i < n; i++ {
		q := gen.GenQuery(cfg)
		body, err := marshalRequest(q, plan.LeftDeepFromOrder(q.Tables, plan.SeqScan, plan.HashJoin))
		if err != nil {
			return nil, err
		}
		p.Items = append(p.Items, body)
	}
	return p, nil
}

// CorpusPool replays up to n labeled queries (and their plans) from
// one database of a corpus artifact — the pool the server's training
// run actually saw. Empty dbName picks the first database.
func CorpusPool(path, dbName string, n int) (*Pool, error) {
	r, err := corpus.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var cat *corpus.DBCatalog
	if dbName == "" {
		cat, err = r.Catalog(0)
	} else {
		cat, err = r.CatalogByName(dbName)
	}
	if err != nil {
		return nil, err
	}
	exs := cat.Examples()
	total := exs.Len()
	if total == 0 {
		return nil, fmt.Errorf("loadgen: corpus %s db %q has no examples", path, cat.Name())
	}
	if n <= 0 || n > total {
		n = total
	}
	p := &Pool{Source: fmt.Sprintf("corpus %s db=%s n=%d", path, cat.Name(), n)}
	for i := 0; i < n; i++ {
		lq, err := exs.Example(i)
		if err != nil {
			return nil, err
		}
		body, err := marshalRequest(lq.Q, lq.Plan)
		if err != nil {
			return nil, err
		}
		p.Items = append(p.Items, body)
	}
	return p, nil
}

func marshalRequest(q *sqldb.Query, p *plan.Node) ([]byte, error) {
	return json.Marshal(serve.RequestJSON{Query: serve.EncodeQuery(q), Plan: serve.EncodePlan(p)})
}

// Options configures one load run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Mix is the endpoint traffic mix (zero value → DefaultMix).
	Mix Mix
	// Duration bounds the run wall-clock.
	Duration time.Duration
	// Concurrency is the closed-loop worker count (ignored when
	// RateQPS > 0). 0 means 1.
	Concurrency int
	// RateQPS > 0 selects the open loop: arrivals at this fixed rate,
	// each served on its own goroutine, regardless of completions.
	RateQPS float64
	// ZipfS is the Zipf skew over pool items (popularity rank i gets
	// probability ∝ 1/i^s). Must be > 1 to skew; ≤ 1 means uniform.
	ZipfS float64
	// Seed makes pick sequences reproducible.
	Seed int64
	// DeadlineMs, when positive, is sent as the X-Deadline-Ms header
	// on every request (and doubles as the per-request client
	// timeout, plus margin).
	DeadlineMs int
	// ReloadAfter, when positive and shorter than Duration, POSTs
	// /reloadz once at that offset into the run — the hot-reload-
	// under-fire drill.
	ReloadAfter time.Duration
	// Retries is the per-request retry budget for shed (429)
	// responses: each retry waits max(the server's Retry-After,
	// capped exponential backoff) plus jitter, then resends. 0
	// disables retries — a 429 is recorded as shed immediately, the
	// overload-measurement default. Retries abort early when the run
	// ends mid-wait.
	Retries int
	// Client overrides the HTTP client (tests); nil builds one sized
	// to the run.
	Client *http.Client
}

// EndpointResult aggregates one endpoint's outcomes over a run.
type EndpointResult struct {
	Requests       uint64
	OK             uint64
	Shed           uint64 // 429 (after the retry budget, if any)
	DeadlineMisses uint64 // 504
	Errors         uint64 // transport errors + every other non-2xx
	Retries        uint64 // extra 429-triggered attempts (Options.Retries)
	Hist           Histogram
}

// ReloadResult reports the mid-run /reloadz call.
type ReloadResult struct {
	Issued  bool
	OK      bool
	Status  int
	Latency time.Duration
	Detail  string
}

// Result is one load run's aggregate.
type Result struct {
	Elapsed   time.Duration
	Endpoints map[string]*EndpointResult
	Reload    *ReloadResult
}

// LoadEntry is one endpoint driven at one concurrency level (or
// open-loop arrival rate) for a fixed duration. Latency percentiles
// come from the endpoint's Histogram over every successful request.
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

// Report is the JSON document mtmlf-loadgen -json writes: the load
// entries of every level, stamped with the runtime they were measured
// on.
type Report struct {
	Label      string      `json:"label"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CreatedAt  string      `json:"created_at"`
	Load       []LoadEntry `json:"load"`
}

// NewReport creates an empty report stamped with the runtime
// environment.
func NewReport(label string) *Report {
	return &Report{
		Label:      label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
}

// Write marshals the report to path (pretty-printed, trailing
// newline). The write is atomic (temp file + fsync + rename via
// ckptio): CI uploads the report, and a reader must never observe a
// torn one.
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

// LoadEntries exports the run as report entries (fixed endpoint
// order; endpoints with zero mix weight are omitted). name is
// conventionally "c<N>" or "r<QPS>".
func (r *Result) LoadEntries(name string, concurrency int, rateQPS float64, mix Mix) []LoadEntry {
	var out []LoadEntry
	for _, ep := range EndpointOrder {
		res := r.Endpoints[ep]
		if res == nil || mix.Weight(ep) == 0 {
			continue
		}
		e := LoadEntry{
			Name:           ep + "/" + name,
			Endpoint:       ep,
			Concurrency:    concurrency,
			OpenLoopQPS:    rateQPS,
			DurationSec:    r.Elapsed.Seconds(),
			Requests:       res.Requests,
			OK:             res.OK,
			Shed:           res.Shed,
			DeadlineMisses: res.DeadlineMisses,
			Errors:         res.Errors,
			Retries:        res.Retries,
			P50Ms:          res.Hist.PercentileMs(0.50),
			P90Ms:          res.Hist.PercentileMs(0.90),
			P95Ms:          res.Hist.PercentileMs(0.95),
			P99Ms:          res.Hist.PercentileMs(0.99),
			MaxMs:          float64(res.Hist.Max()) / float64(time.Millisecond),
		}
		if r.Elapsed > 0 {
			e.ThroughputRPS = float64(res.OK) / r.Elapsed.Seconds()
		}
		out = append(out, e)
	}
	return out
}

// recorder is the run-wide sink workers record into. One mutex is
// fine: requests cost milliseconds of model time against nanoseconds
// of lock hold.
type recorder struct {
	mu  sync.Mutex
	eps map[string]*EndpointResult
}

func newRecorder() *recorder {
	eps := make(map[string]*EndpointResult, len(EndpointOrder))
	for _, ep := range EndpointOrder {
		eps[ep] = &EndpointResult{}
	}
	return &recorder{eps: eps}
}

func (rec *recorder) record(ep string, status int, lat time.Duration, transportErr bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	r := rec.eps[ep]
	r.Requests++
	switch {
	case transportErr:
		r.Errors++
	case status == http.StatusOK:
		r.OK++
		r.Hist.Record(lat)
	case status == http.StatusTooManyRequests:
		r.Shed++
	case status == http.StatusGatewayTimeout:
		r.DeadlineMisses++
	default:
		r.Errors++
	}
}

func (rec *recorder) retry(ep string) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.eps[ep].Retries++
}

// picker owns one worker's randomness: endpoint mix and Zipf item
// popularity. Each worker gets its own (math/rand sources are not
// concurrency-safe).
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	mix  Mix
	n    int
}

func newPicker(seed int64, mix Mix, poolSize int, zipfS float64) *picker {
	rng := rand.New(rand.NewSource(seed))
	p := &picker{rng: rng, mix: mix, n: poolSize}
	if zipfS > 1 && poolSize > 1 {
		p.zipf = rand.NewZipf(rng, zipfS, 1, uint64(poolSize-1))
	}
	return p
}

func (p *picker) next() (ep string, item int) {
	ep = p.mix.pick(p.rng)
	if p.zipf != nil {
		item = int(p.zipf.Uint64())
	} else {
		item = p.rng.Intn(p.n)
	}
	return ep, item
}

// Run executes one load run against a live server. It verifies
// liveness via /healthz first, so a dead target fails in milliseconds
// instead of timing out a full duration of requests.
func Run(opts Options, pool *Pool) (*Result, error) {
	if pool == nil || len(pool.Items) == 0 {
		return nil, fmt.Errorf("loadgen: empty query pool")
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration must be positive")
	}
	if (opts.Mix == Mix{}) {
		opts.Mix = DefaultMix()
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 1
	}
	client := opts.Client
	if client == nil {
		perHost := opts.Concurrency
		if opts.RateQPS > 0 {
			// Open loop has no worker bound; size keep-alives to the
			// expected outstanding count at a generous 1s latency.
			perHost = int(opts.RateQPS) + 8
		}
		client = &http.Client{
			Transport: &http.Transport{MaxIdleConns: perHost + 8, MaxIdleConnsPerHost: perHost + 8},
		}
	}
	if err := checkHealth(client, opts.BaseURL); err != nil {
		return nil, err
	}

	rec := newRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), opts.Duration)
	defer cancel()

	res := &Result{}
	if opts.ReloadAfter > 0 && opts.ReloadAfter < opts.Duration {
		res.Reload = &ReloadResult{}
		go func() {
			timer := time.NewTimer(opts.ReloadAfter)
			defer timer.Stop()
			select {
			case <-timer.C:
				doReload(client, opts.BaseURL, res.Reload)
			case <-ctx.Done():
			}
		}()
	}

	start := time.Now()
	if opts.RateQPS > 0 {
		runOpenLoop(ctx, client, opts, pool, rec)
	} else {
		runClosedLoop(ctx, client, opts, pool, rec)
	}
	res.Elapsed = time.Since(start)
	res.Endpoints = rec.eps
	return res, nil
}

func checkHealth(client *http.Client, baseURL string) error {
	resp, err := client.Get(baseURL + "/healthz")
	if err != nil {
		return fmt.Errorf("loadgen: target unreachable: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: target unhealthy: /healthz returned %d", resp.StatusCode)
	}
	return nil
}

func runClosedLoop(ctx context.Context, client *http.Client, opts Options, pool *Pool, rec *recorder) {
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := newPicker(opts.Seed+int64(w)*7919, opts.Mix, len(pool.Items), opts.ZipfS)
			for ctx.Err() == nil {
				ep, item := pick.next()
				doRequest(ctx, client, opts, pool.Items[item], ep, rec)
			}
		}(w)
	}
	wg.Wait()
}

func runOpenLoop(ctx context.Context, client *http.Client, opts Options, pool *Pool, rec *recorder) {
	interval := time.Duration(float64(time.Second) / opts.RateQPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	// One picker feeds the dispatcher; requests themselves fan out.
	pick := newPicker(opts.Seed, opts.Mix, len(pool.Items), opts.ZipfS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
			ep, item := pick.next()
			wg.Add(1)
			go func(body []byte, ep string) {
				defer wg.Done()
				doRequest(ctx, client, opts, body, ep, rec)
			}(pool.Items[item], ep)
		}
	}
}

// Retry backoff shape: max(server Retry-After, retryBase·2^attempt
// capped at retryCap) plus up to 50% random jitter so a fleet of shed
// workers doesn't retry in lockstep.
const (
	retryBase = 25 * time.Millisecond
	retryCap  = time.Second
)

// retryDelay computes the wait before retry number attempt (0-based),
// honoring the server's Retry-After hint when it is longer than the
// local backoff.
func retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	d = min(d, retryCap)
	d = max(d, retryAfter)
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// parseRetryAfter reads a 429's Retry-After header (delay-seconds
// form; 0 when absent or unparsable).
func parseRetryAfter(resp *http.Response) time.Duration {
	s, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || s < 0 {
		return 0
	}
	return time.Duration(s) * time.Second
}

// doRequest fires one logical request — retrying shed (429) responses
// within Options.Retries — and records its final outcome. Only the
// wait between retries watches the run context: an attempt in flight
// when the run ends is allowed to finish (closed-loop workers exit at
// the next iteration), so the tail of the histogram is never
// truncated by the run boundary.
func doRequest(ctx context.Context, client *http.Client, opts Options, body []byte, ep string, rec *recorder) {
	for attempt := 0; ; attempt++ {
		status, retryAfter, lat, transportErr := doAttempt(client, opts, body, ep)
		if status == http.StatusTooManyRequests && attempt < opts.Retries {
			timer := time.NewTimer(retryDelay(attempt, retryAfter))
			select {
			case <-timer.C:
				rec.retry(ep)
				continue
			case <-ctx.Done():
				timer.Stop()
				// Run over mid-wait: the shed response stands.
			}
		}
		rec.record(ep, status, lat, transportErr)
		return
	}
}

// doAttempt sends one HTTP request and reports its outcome.
func doAttempt(client *http.Client, opts Options, body []byte, ep string) (status int, retryAfter time.Duration, lat time.Duration, transportErr bool) {
	reqCtx := context.Background()
	if opts.DeadlineMs > 0 {
		// Client-side timeout = deadline + margin: the server is the
		// one enforcing the deadline; the client cap just bounds a
		// stuck connection.
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, time.Duration(opts.DeadlineMs)*time.Millisecond+5*time.Second)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, opts.BaseURL+endpointPaths[ep], bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, true
	}
	req.Header.Set("Content-Type", "application/json")
	if opts.DeadlineMs > 0 {
		req.Header.Set(serve.DeadlineHeader, strconv.Itoa(opts.DeadlineMs))
	}
	start := time.Now()
	resp, err := client.Do(req)
	lat = time.Since(start)
	if err != nil {
		return 0, 0, lat, true
	}
	retryAfter = parseRetryAfter(resp)
	drain(resp)
	return resp.StatusCode, retryAfter, lat, false
}

func doReload(client *http.Client, baseURL string, out *ReloadResult) {
	out.Issued = true
	start := time.Now()
	resp, err := client.Post(baseURL+"/reloadz", "application/json", nil)
	out.Latency = time.Since(start)
	if err != nil {
		out.Detail = err.Error()
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	out.Status = resp.StatusCode
	out.OK = resp.StatusCode == http.StatusOK
	out.Detail = strings.TrimSpace(string(body))
}

// drain empties and closes a response body so the connection returns
// to the keep-alive pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// FormatResult renders a run as the human-readable table the CLI
// prints (sorted fixed endpoint order; zero-weight endpoints
// omitted).
func FormatResult(r *Result, mix Mix) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %9s %9s %6s %6s %6s %6s %9s %9s %9s %9s %9s\n",
		"endpoint", "requests", "ok", "shed", "miss", "err", "retry", "rps", "p50ms", "p95ms", "p99ms", "maxms")
	for _, ep := range EndpointOrder {
		res := r.Endpoints[ep]
		if res == nil || mix.Weight(ep) == 0 {
			continue
		}
		rps := 0.0
		if r.Elapsed > 0 {
			rps = float64(res.OK) / r.Elapsed.Seconds()
		}
		fmt.Fprintf(&b, "%-10s %9d %9d %6d %6d %6d %6d %9.1f %9.2f %9.2f %9.2f %9.2f\n",
			ep, res.Requests, res.OK, res.Shed, res.DeadlineMisses, res.Errors, res.Retries, rps,
			res.Hist.PercentileMs(0.50), res.Hist.PercentileMs(0.95), res.Hist.PercentileMs(0.99),
			float64(res.Hist.Max())/float64(time.Millisecond))
	}
	if r.Reload != nil && r.Reload.Issued {
		fmt.Fprintf(&b, "reload: status=%d ok=%v latency=%s %s\n",
			r.Reload.Status, r.Reload.OK, r.Reload.Latency.Round(time.Millisecond), r.Reload.Detail)
	}
	return b.String()
}
