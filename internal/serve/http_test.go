package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"mtmlf/internal/workload"
)

func testServer(t *testing.T) (*httptest.Server, []*workload.LabeledQuery, func()) {
	t.Helper()
	m, qs := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(m.Feat.DB, 99)
	srv := httptest.NewServer(NewHandlerConfig(e, HandlerConfig{Gen: gen}))
	return srv, qs, func() { srv.Close(); e.Close() }
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHTTPEstimateAndJoinOrder drives the three POST endpoints with a
// real workload query and checks the payloads line up with the plan.
func TestHTTPEstimateAndJoinOrder(t *testing.T) {
	srv, qs, done := testServer(t)
	defer done()
	lq := qs[0]
	req := RequestJSON{Query: EncodeQuery(lq.Q), Plan: EncodePlan(lq.Plan)}

	for _, ep := range []string{"/estimate/card", "/estimate/cost"} {
		resp := postJSON(t, srv.URL+ep, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", ep, resp.StatusCode)
		}
		est := decodeBody[EstimateJSON](t, resp)
		if len(est.Nodes) != len(lq.Plan.Nodes()) {
			t.Fatalf("%s: %d nodes, plan has %d", ep, len(est.Nodes), len(lq.Plan.Nodes()))
		}
		if est.Root != est.Nodes[len(est.Nodes)-1] || est.Root < 1 {
			t.Fatalf("%s: bad root %v", ep, est.Root)
		}
		if est.Plan == "" {
			t.Fatalf("%s: missing plan echo", ep)
		}
	}

	resp := postJSON(t, srv.URL+"/joinorder", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/joinorder: status %d", resp.StatusCode)
	}
	jo := decodeBody[JoinOrderJSON](t, resp)
	if len(jo.Order) != len(lq.Q.Tables) || !jo.Legal {
		t.Fatalf("/joinorder: %+v", jo)
	}

	// Plan omitted: the server synthesizes a left-deep tree.
	resp = postJSON(t, srv.URL+"/joinorder", RequestJSON{Query: EncodeQuery(lq.Q)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/joinorder without plan: status %d", resp.StatusCode)
	}
}

// TestHTTPErrors maps typed errors onto statuses.
func TestHTTPErrors(t *testing.T) {
	srv, _, done := testServer(t)
	defer done()

	resp := postJSON(t, srv.URL+"/estimate/card", RequestJSON{Query: &QueryJSON{Tables: []string{"nope"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown table: status %d", resp.StatusCode)
	}
	e := decodeBody[errorJSON](t, resp)
	if !strings.Contains(e.Error, "unknown table") {
		t.Fatalf("error body %q", e.Error)
	}

	resp = postJSON(t, srv.URL+"/estimate/card", map[string]any{"bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Oversized bodies are rejected instead of buffered without bound.
	big := bytes.Repeat([]byte("x"), 2<<20)
	resp, err := http.Post(srv.URL+"/estimate/card", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	r, err := http.Get(srv.URL + "/estimate/card")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: status %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPHealthStatsExample covers the GET endpoints, including the
// /example → POST round trip the smoke test curls.
func TestHTTPHealthStatsExample(t *testing.T) {
	srv, qs, done := testServer(t)
	defer done()

	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeBody[HealthJSON](t, r)
	if h.Status != "ok" || h.Tables == 0 || h.Sessions == 0 {
		t.Fatalf("healthz %+v", h)
	}

	// Generate some traffic, then check /statsz reflects it.
	lq := qs[0]
	postJSON(t, srv.URL+"/estimate/card", RequestJSON{Query: EncodeQuery(lq.Q), Plan: EncodePlan(lq.Plan)}).Body.Close()
	r, err = http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[StatsSnapshot](t, r)
	if snap.Requests == 0 || snap.Card.Requests == 0 {
		t.Fatalf("statsz counted nothing: %+v", snap)
	}
	if snap.Pool.Gets == 0 || snap.Pool.ReuseRate <= 0 {
		t.Fatalf("pool counters empty: %+v", snap.Pool)
	}
	// One request on a cold engine: every leaf's encoding was a miss
	// and is now a row of the bundle's memo.
	if fm := snap.FeatMemo; fm.Misses != uint64(len(lq.Q.Tables)) || fm.Rows != len(lq.Q.Tables) || fm.Hits != 0 {
		t.Fatalf("feat_memo %+v after one request over %d tables", fm, len(lq.Q.Tables))
	}

	// /example emits a valid request body for every POST endpoint.
	r, err = http.Get(srv.URL + "/example")
	if err != nil {
		t.Fatal(err)
	}
	ex := decodeBody[RequestJSON](t, r)
	if ex.Query == nil || len(ex.Query.Tables) == 0 || ex.Plan == nil {
		t.Fatalf("example %+v", ex)
	}
	for _, ep := range []string{"/estimate/card", "/estimate/cost", "/joinorder"} {
		resp := postJSON(t, srv.URL+ep, ex)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("example request rejected by %s: status %d", ep, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestHTTPRecoverPanic: a panicking handler answers 500 with an error
// body, bumps the /statsz panics counter, and leaves the server fully
// functional — one poisoned request never takes the process down.
func TestHTTPRecoverPanic(t *testing.T) {
	m, _ := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(NewHandlerConfig(e, HandlerConfig{
		Reload: func() error { panic("injected reload panic") },
	}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/reloadz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	body := decodeBody[errorJSON](t, resp)
	if !strings.Contains(body.Error, "injected reload panic") {
		t.Fatalf("error body %q lacks panic value", body.Error)
	}

	r, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[StatsSnapshot](t, r)
	if snap.Panics != 1 {
		t.Fatalf("statsz panics = %d, want 1", snap.Panics)
	}

	// The server survived: health still answers.
	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: status %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPReadinessSplit: with a Ready hook, /healthz flips between
// 200 and 503 while /livez stays 200 — the drain/boot contract load
// balancers key off.
func TestHTTPReadinessSplit(t *testing.T) {
	m, _ := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var ready atomic.Bool
	srv := httptest.NewServer(NewHandlerConfig(e, HandlerConfig{Ready: ready.Load}))
	defer srv.Close()

	get := func(path string) (int, HealthJSON) {
		t.Helper()
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, decodeBody[HealthJSON](t, r)
	}

	code, h := get("/healthz")
	if code != http.StatusServiceUnavailable || h.Status != "unavailable" {
		t.Fatalf("not-ready healthz: status %d body %+v", code, h)
	}
	if code, h = get("/livez"); code != http.StatusOK || h.Status != "alive" {
		t.Fatalf("livez while not ready: status %d body %+v", code, h)
	}

	ready.Store(true)
	if code, h = get("/healthz"); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("ready healthz: status %d body %+v", code, h)
	}

	ready.Store(false) // drain begins
	if code, _ = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", code)
	}
	if code, _ = get("/livez"); code != http.StatusOK {
		t.Fatalf("livez while draining: status %d, want 200", code)
	}
}

// TestCodecRoundTrip: Encode∘Decode is the identity on queries and
// plans the workload generator produces.
func TestCodecRoundTrip(t *testing.T) {
	m, qs := testModel(t)
	for _, lq := range qs {
		q2, err := DecodeQuery(m.Feat.DB, EncodeQuery(lq.Q))
		if err != nil {
			t.Fatal(err)
		}
		if q2.String() != lq.Q.String() {
			t.Fatalf("query round trip:\n  %s\n  %s", lq.Q, q2)
		}
		p2, err := DecodePlan(EncodePlan(lq.Plan))
		if err != nil {
			t.Fatal(err)
		}
		if p2.String() != lq.Plan.String() {
			t.Fatalf("plan round trip:\n  %s\n  %s", lq.Plan, p2)
		}
	}
}
