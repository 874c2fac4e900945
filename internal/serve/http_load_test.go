package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/workload"
)

// postJSONDeadline is postJSON with an X-Deadline-Ms header attached.
func postJSONDeadline(t *testing.T, url, deadline string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(DeadlineHeader, deadline)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPDeadlineHeader: a malformed, non-positive or
// duration-overflowing X-Deadline-Ms is a 400 before any model work; a
// generous one — up to the largest that fits — serves normally.
func TestHTTPDeadlineHeader(t *testing.T) {
	srv, qs, done := testServer(t)
	defer done()
	body := RequestJSON{Query: EncodeQuery(qs[0].Q), Plan: EncodePlan(qs[0].Plan)}

	// MaxInt64 ms wraps negative as a Duration; 9223372036855 is the
	// smallest count that does.
	for _, bad := range []string{"abc", "-5", "0", "1.5", "9223372036854775807", "9223372036855"} {
		resp := postJSONDeadline(t, srv.URL+"/estimate/card", bad, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	for _, good := range []string{"60000", "9223372036854"} {
		resp := postJSONDeadline(t, srv.URL+"/estimate/card", good, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline %q: status %d, want 200", good, resp.StatusCode)
		}
	}
}

// TestHTTPReloadzUnconfigured: handlers built without a reloader
// (NewHandler) 404 on /reloadz.
func TestHTTPReloadzUnconfigured(t *testing.T) {
	srv, _, done := testServer(t)
	defer done()
	resp, err := http.Post(srv.URL+"/reloadz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/reloadz without a reloader: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPReloadz: a configured reloader swaps the checkpoint — the
// response and /healthz report the swap, and estimates served
// afterwards are bitwise those of the new weights. Reloader failures
// surface as 500 (load error) and 409 (incompatible checkpoint)
// without disturbing the served model.
func TestHTTPReloadz(t *testing.T) {
	m1, qs := testModel(t)
	db := m1.Feat.DB
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	m2 := mtmlf.NewModel(cfg, db, 21)
	gen := workload.NewGenerator(db, 22)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	m2.Feat.PretrainAll(gen, 5, 1, wcfg)
	want2 := serialExpected(m2, qs)

	e, err := NewEngine(m1, Options{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var nextModel *mtmlf.Model = m2
	var nextErr error
	srv := httptest.NewServer(NewHandlerConfig(e, HandlerConfig{
		Gen: workload.NewGenerator(db, 99),
		Reload: func() error {
			if nextErr != nil {
				return nextErr
			}
			return e.Reload(nextModel)
		},
	}))
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/reloadz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reloadz: status %d, want 200", resp.StatusCode)
	}
	rj := decodeBody[ReloadJSON](t, resp)
	if rj.Status != "ok" || rj.Reloads != 1 || rj.Database != db.Name {
		t.Fatalf("/reloadz body: %+v", rj)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hj := decodeBody[HealthJSON](t, resp); hj.Reloads != 1 {
		t.Fatalf("/healthz reloads = %d, want 1", hj.Reloads)
	}

	// Estimates now come from the new weights, exactly.
	body := RequestJSON{Query: EncodeQuery(qs[0].Q), Plan: EncodePlan(qs[0].Plan)}
	resp = postJSON(t, srv.URL+"/estimate/card", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate/card after reload: status %d", resp.StatusCode)
	}
	cj := decodeBody[EstimateJSON](t, resp)
	sameFloats(t, "card after reload", cj.Nodes, want2[0].cards)

	// Reloader load failure → 500, model untouched.
	nextErr = errors.New("disk gone")
	resp = postJSON(t, srv.URL+"/reloadz", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing reloader: status %d, want 500", resp.StatusCode)
	}

	// Incompatible checkpoint → 409, model untouched.
	nextErr = nil
	otherDB := datagen.GenerateFleet(7, 1, datagen.DefaultConfig())[0]
	nextModel = mtmlf.NewModel(cfg, otherDB, 5)
	resp = postJSON(t, srv.URL+"/reloadz", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("incompatible reload: status %d, want 409", resp.StatusCode)
	}

	// A CRC-valid checkpoint holding one NaN weight (a diverged run,
	// saved faithfully) → non-200 from the real loader, model
	// untouched. Loaded, it would answer every request 200 with an
	// empty body: NaN estimates cannot be encoded as JSON.
	poisoned := mtmlf.NewModel(cfg, db, 5)
	poisoned.Shared.CardHead.Layers[0].W.T.Data[0] = math.NaN()
	var ckpt bytes.Buffer
	if err := mtmlf.Save(&ckpt, poisoned); err != nil {
		t.Fatal(err)
	}
	var loadErr error
	nextModel, _, loadErr = mtmlf.LoadModel(bytes.NewReader(ckpt.Bytes()), db)
	if !errors.Is(loadErr, nn.ErrNonFinite) {
		t.Fatalf("loading a NaN checkpoint: err %v, want nn.ErrNonFinite", loadErr)
	}
	nextErr = loadErr
	resp = postJSON(t, srv.URL+"/reloadz", nil)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/reloadz accepted a checkpoint with a NaN weight")
	}

	resp = postJSON(t, srv.URL+"/estimate/card", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/estimate/card after failed reloads: status %d", resp.StatusCode)
	}
	cj = decodeBody[EstimateJSON](t, resp)
	sameFloats(t, "card after failed reloads", cj.Nodes, want2[0].cards)
}
