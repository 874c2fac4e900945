package loadgen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/serve"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("card=50,cost=30,joinorder=20")
	if err != nil || m != (Mix{50, 30, 20}) {
		t.Fatalf("got %+v, %v", m, err)
	}
	m, err = ParseMix(" cost=7 ")
	if err != nil || m != (Mix{Cost: 7}) {
		t.Fatalf("partial mix: got %+v, %v", m, err)
	}
	for _, bad := range []string{"card", "card=x", "card=-1", "latency=3", "card=0,cost=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestParseLevels: a level list that names no positive integer level
// is an error, never a run that measures nothing.
func TestParseLevels(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"8,32", []int{8, 32}},
		{" 4 , 8 ", []int{4, 8}},
		{"1", []int{1}},
		{"4,,8", []int{4, 8}},
		{"", nil},
		{",", nil},
		{" , ", nil},
		{"0", nil},
		{"4,-1", nil},
		{"4,x", nil},
		{"2.5", nil},
		{"8;32", nil},
	} {
		got, err := ParseLevels(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("ParseLevels(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseLevels(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestReportWriteRoundTrip: the entries LoadEntries exports survive
// Write and decode unchanged, under the field names
// scripts/load_smoke.sh reads with jq.
func TestReportWriteRoundTrip(t *testing.T) {
	var res Result
	res.Elapsed = 2 * time.Second
	res.Endpoints = map[string]*EndpointResult{
		"card": {Requests: 120, OK: 100, Shed: 15, DeadlineMisses: 5, Retries: 3},
		"cost": {Requests: 40, OK: 40},
	}
	for i := 1; i <= 100; i++ {
		res.Endpoints["card"].Hist.Record(time.Duration(i) * time.Millisecond)
	}
	res.Endpoints["cost"].Hist.Record(3 * time.Millisecond)
	mix := Mix{Card: 1, Cost: 1}

	r := NewReport("load")
	r.Load = append(r.Load, res.LoadEntries("c8", 8, 0, mix)...)
	r.Load = append(r.Load, res.LoadEntries("r200", 0, 200, mix)...)
	path := filepath.Join(t.TempDir(), "load.json")
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Label != "load" || back.GoVersion == "" || back.GOMAXPROCS < 1 || back.CreatedAt == "" {
		t.Fatalf("report header did not round-trip: %+v", back)
	}
	if !slices.Equal(back.Load, r.Load) || len(back.Load) != 4 {
		t.Fatalf("load entries did not round-trip:\n%+v\n%+v", back.Load, r.Load)
	}
	if e := back.Load[0]; e.Name != "card/c8" || e.ThroughputRPS != 50 || e.P50Ms <= 0 || e.P50Ms > e.P95Ms || e.P95Ms > e.P99Ms {
		t.Fatalf("card/c8 entry: %+v", e)
	}

	var raw struct {
		Load []map[string]any `json:"load"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"name", "ok", "errors", "requests", "throughput_rps", "p50_ms", "p95_ms", "p99_ms"} {
		if _, ok := raw.Load[0][k]; !ok {
			t.Errorf("load entry lacks %q, which load_smoke.sh reads: %v", k, raw.Load[0])
		}
	}
	// Closed-loop entries omit the open-loop rate; open-loop ones carry it.
	if _, ok := raw.Load[0]["open_loop_qps"]; ok {
		t.Error("closed-loop entry serialized open_loop_qps")
	}
	if raw.Load[2]["open_loop_qps"] != 200.0 {
		t.Errorf("open-loop entry: open_loop_qps = %v, want 200", raw.Load[2]["open_loop_qps"])
	}
}

// TestReportWriteIntoNonDirectory: a path whose parent is a regular
// file (ENOTDIR for any uid, root included) fails the write and leaves
// nothing behind.
func TestReportWriteIntoNonDirectory(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewReport("err").Write(filepath.Join(blocker, "report.json")); err == nil {
		t.Fatal("Write into a non-directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "blocker" {
		t.Fatalf("failed Write left files behind: %v", entries)
	}
	if data, err := os.ReadFile(blocker); err != nil || string(data) != "not a dir" {
		t.Fatalf("failed Write touched the blocking file: %q, %v", data, err)
	}
}

// TestPickerZipfSkew: with s > 1 the head of the pool must be drawn
// far more often than the tail; with s <= 1 draws are uniform-ish.
func TestPickerZipfSkew(t *testing.T) {
	const n, draws = 64, 20000
	counts := make([]int, n)
	p := newPicker(7, DefaultMix(), n, 1.2)
	for i := 0; i < draws; i++ {
		_, item := p.next()
		counts[item]++
	}
	var tail int
	for _, c := range counts[32:] {
		tail += c
	}
	if counts[0] < draws/4 {
		t.Fatalf("zipf head drew %d of %d; expected heavy skew", counts[0], draws)
	}
	if tail > counts[0] {
		t.Fatalf("zipf tail (%d) outdrew the head (%d)", tail, counts[0])
	}

	uni := newPicker(7, DefaultMix(), n, 0)
	counts = make([]int, n)
	for i := 0; i < draws; i++ {
		_, item := uni.next()
		counts[item]++
	}
	if counts[0] > 3*draws/n {
		t.Fatalf("uniform head drew %d of %d; expected ~%d", counts[0], draws, draws/n)
	}
}

// loadTestServer boots a real engine + handler over a tiny model.
// Untrained weights are fine — the harness measures transport and
// scheduling, not estimate quality.
func loadTestServer(t *testing.T) (*httptest.Server, *sqldb.DB) {
	t.Helper()
	db := datagen.SyntheticIMDB(5, 0.05)
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	m := mtmlf.NewModel(cfg, db, 11)
	e, err := serve.NewEngine(m, serve.Options{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	srv := httptest.NewServer(serve.NewHandlerConfig(e, serve.HandlerConfig{
		Gen:    workload.NewGenerator(db, 99),
		Reload: func() error { return e.Reload(mtmlf.NewModel(cfg, db, 31)) },
	}))
	t.Cleanup(srv.Close)
	return srv, db
}

// TestRunClosedLoop drives a live server end to end: every endpoint
// in the mix sees traffic, nothing fails, a mid-run hot reload
// succeeds with zero failed in-flight requests, and the run exports
// well-formed report entries.
func TestRunClosedLoop(t *testing.T) {
	srv, db := loadTestServer(t)
	pool, err := SyntheticPool(db, 42, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		BaseURL:     srv.URL,
		Duration:    500 * time.Millisecond,
		Concurrency: 4,
		ZipfS:       1.2,
		Seed:        1,
		ReloadAfter: 100 * time.Millisecond,
		Client:      srv.Client(),
	}, pool)
	if err != nil {
		t.Fatal(err)
	}
	requests, ok, shed, deadline, errs := res.Totals()
	if requests == 0 {
		t.Fatal("no requests issued")
	}
	if errs != 0 || shed != 0 || deadline != 0 {
		t.Fatalf("run saw shed=%d deadline=%d errors=%d, want all zero", shed, deadline, errs)
	}
	if ok != requests {
		t.Fatalf("ok %d != requests %d", ok, requests)
	}
	if res.Reload == nil || !res.Reload.Issued || !res.Reload.OK {
		t.Fatalf("mid-run reload did not succeed: %+v", res.Reload)
	}

	entries := res.LoadEntries("c4", 4, 0, DefaultMix())
	if len(entries) != 3 {
		t.Fatalf("got %d load entries, want 3", len(entries))
	}
	for _, e := range entries {
		if e.OK == 0 || e.ThroughputRPS <= 0 || e.P50Ms <= 0 {
			t.Fatalf("entry %s missing data: %+v", e.Name, e)
		}
		if e.P50Ms > e.P99Ms || float64(e.Concurrency) != 4 {
			t.Fatalf("entry %s inconsistent: %+v", e.Name, e)
		}
		if !strings.HasSuffix(e.Name, "/c4") {
			t.Fatalf("entry name %q lacks level suffix", e.Name)
		}
	}

	out := FormatResult(res, DefaultMix())
	for _, want := range []string{"endpoint", "card", "cost", "joinorder", "reload: status=200 ok=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatResult missing %q in:\n%s", want, out)
		}
	}
}

// TestRunOpenLoop: fixed-rate arrivals against a live server.
func TestRunOpenLoop(t *testing.T) {
	srv, db := loadTestServer(t)
	pool, err := SyntheticPool(db, 43, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		BaseURL:  srv.URL,
		Duration: 400 * time.Millisecond,
		RateQPS:  100,
		Seed:     2,
		Client:   srv.Client(),
	}, pool)
	if err != nil {
		t.Fatal(err)
	}
	requests, ok, _, _, errs := res.Totals()
	if requests == 0 || errs != 0 || ok != requests {
		t.Fatalf("open loop: requests=%d ok=%d errors=%d", requests, ok, errs)
	}
}

// TestRunDeadTarget: an unreachable server fails fast with a health
// error instead of burning the full duration.
func TestRunDeadTarget(t *testing.T) {
	srv, db := loadTestServer(t)
	url := srv.URL
	srv.Close()
	pool, err := SyntheticPool(db, 44, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := Run(Options{BaseURL: url, Duration: 10 * time.Second}, pool); err == nil {
		t.Fatal("Run against a dead target succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("dead-target failure was not fast")
	}
}

// TestRetriesRecoverShedRequests: with a retry budget, a request shed
// with 429 + Retry-After is retried after a backoff and succeeds once
// the server admits it — sheds convert to OK and the retry count is
// reported.
func TestRetriesRecoverShedRequests(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= 2 {
			// Shed the first two attempts: the first logical request
			// must burn exactly two retries before succeeding.
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	pool := &Pool{Items: [][]byte{[]byte(`{}`)}, Source: "test"}
	res, err := Run(Options{
		BaseURL:     srv.URL,
		Duration:    400 * time.Millisecond,
		Concurrency: 1,
		Mix:         Mix{Card: 1},
		Retries:     3,
		Seed:        3,
		Client:      srv.Client(),
	}, pool)
	if err != nil {
		t.Fatal(err)
	}
	card := res.Endpoints["card"]
	if card.Shed != 0 {
		t.Fatalf("retries exhausted: %d sheds recorded, want 0", card.Shed)
	}
	if card.Retries != 2 {
		t.Fatalf("recorded %d retries, want 2", card.Retries)
	}
	if card.OK == 0 || card.OK != card.Requests {
		t.Fatalf("ok=%d requests=%d, want all ok", card.OK, card.Requests)
	}
	entries := res.LoadEntries("c1", 1, 0, Mix{Card: 1})
	if len(entries) != 1 || entries[0].Retries != 2 {
		t.Fatalf("load entries missing retry count: %+v", entries)
	}
	if out := FormatResult(res, Mix{Card: 1}); !strings.Contains(out, "retry") {
		t.Fatalf("FormatResult lacks retry column:\n%s", out)
	}
}

// TestRetryDelayShape: the wait is max(Retry-After, capped exponential
// backoff) plus at most 50% jitter.
func TestRetryDelayShape(t *testing.T) {
	for i := 0; i < 20; i++ {
		if d := retryDelay(0, 0); d < retryBase || d > retryBase*3/2 {
			t.Fatalf("first retry delay %v outside [%v, %v]", d, retryBase, retryBase*3/2)
		}
		if d := retryDelay(0, 2*time.Second); d < 2*time.Second || d > 3*time.Second {
			t.Fatalf("Retry-After=2s delay %v outside [2s, 3s]", d)
		}
		if d := retryDelay(30, 0); d > retryCap*3/2 {
			t.Fatalf("backoff escaped the cap: %v", d)
		}
	}
}

// TestRunRejectsBadOptions: input validation.
func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{Duration: time.Second}, nil); err == nil {
		t.Fatal("nil pool accepted")
	}
	if _, err := Run(Options{Duration: time.Second}, &Pool{}); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := Run(Options{}, &Pool{Items: [][]byte{{1}}}); err == nil {
		t.Fatal("zero duration accepted")
	}
}
