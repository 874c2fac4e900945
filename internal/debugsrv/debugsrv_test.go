package debugsrv

import (
	"net/http"
	"testing"
)

// TestStartServesProfilesAndVars: a listener started on port 0 answers
// 200 on the pprof index and on expvar's /debug/vars; an empty address
// starts none.
func TestStartServesProfilesAndVars(t *testing.T) {
	if a, err := Start(""); a != nil || err != nil {
		t.Fatalf(`Start("") = %v, %v; want no listener`, a, err)
	}
	a, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get("http://" + a.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, want 200", path, resp.StatusCode)
		}
	}
}
