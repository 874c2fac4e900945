package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"mtmlf/internal/workload"
)

// decodeAndValidate is what a POST runs before any model compute: the
// handler's strict decode (DecodePlan inside it), DecodeQuery against
// the served schema, and the engine's Validate.
func decodeAndValidate(h *handler, body []byte) error {
	w := httptest.NewRecorder()
	req, p, err := h.decode(w, httptest.NewRequest(http.MethodPost, "/estimate/card", bytes.NewReader(body)))
	if err != nil {
		return err
	}
	q, err := DecodeQuery(h.engine.DB(), req.Query)
	if err != nil {
		return err
	}
	return h.engine.Validate(q, p)
}

// requestErrors are the typed errors a malformed request may come back
// with; writeError answers each with a 4xx.
var requestErrors = []error{ErrBadRequest, ErrUnknownTable, ErrUnknownColumn, ErrPlanMismatch, ErrModelLimit}

// FuzzDecodeRequest feeds arbitrary bodies through the request path up
// to the model: every body must either validate or fail with one of
// the typed request errors, answered with a 4xx — never a panic, never
// an untyped error, never a 5xx. Seeds are /example bodies and a few
// near misses of them.
func FuzzDecodeRequest(f *testing.F) {
	m, _ := testModel(f)
	e, err := NewEngine(m, Options{Sessions: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer e.Close()
	examples := NewHandlerConfig(e, HandlerConfig{Gen: workload.NewGenerator(m.Feat.DB, 99)})
	for i := 0; i < 4; i++ {
		w := httptest.NewRecorder()
		examples.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/example", nil))
		body := w.Body.Bytes()
		f.Add(body)
		f.Add(bytes.Replace(body, []byte(`"plan"`), []byte(`"plan_"`), 1))
		f.Add(bytes.Replace(body, []byte(`"seq"`), []byte(`"index"`), 1))
		f.Add(bytes.Replace(body, []byte(`"hash"`), []byte(`"sort"`), 1))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"query":{"tables":["title"]},"plan":{"join":"hash","left":{"table":"title"}}}`))
	f.Add([]byte(`{"query":{"tables":["title"],"filters":[{"table":"title","col":"production_year","op":">","value":"x"}]}}`))

	h := &handler{engine: e}
	f.Fuzz(func(t *testing.T, body []byte) {
		err := decodeAndValidate(h, body)
		if err == nil {
			return
		}
		typed := false
		for _, want := range requestErrors {
			typed = typed || errors.Is(err, want)
		}
		if !typed {
			t.Fatalf("untyped error for %q: %v", body, err)
		}
		w := httptest.NewRecorder()
		writeError(w, err)
		if w.Code < 400 || w.Code >= 500 {
			t.Fatalf("status %d for %q: %v", w.Code, body, err)
		}
	})
}
