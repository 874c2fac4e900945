package benchjson

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var escape []byte

func TestReportMeasureSpeedupAndWrite(t *testing.T) {
	r := NewReport("test")
	r.Workers = 4
	sink := 0
	r.Measure("slow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := make([]byte, 64)
			escape = buf // force the allocation to the heap
			sink += len(buf)
		}
	})
	r.Measure("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink++
		}
	})
	if err := r.AddSpeedup("alloc_vs_not", "slow", "fast"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSpeedup("missing", "nope", "fast"); err == nil {
		t.Fatal("want error for unknown baseline")
	}
	sp := r.Speedups[0]
	if sp.NsSpeedup <= 0 {
		t.Fatalf("ns speedup %v", sp.NsSpeedup)
	}
	if sp.AllocsRatio < 1 {
		t.Fatalf("allocs ratio %v (slow allocates, fast does not)", sp.AllocsRatio)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
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
	if back.Label != "test" || back.Workers != 4 || len(back.Entries) != 2 || len(back.Speedups) != 1 {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
	if back.Entries[0].Name != "slow" || back.Entries[0].NsPerOp <= 0 {
		t.Fatalf("entry roundtrip mismatch: %+v", back.Entries[0])
	}
}

func TestReportAddLoadRoundTrip(t *testing.T) {
	r := NewReport("load")
	r.AddLoad(LoadEntry{
		Name: "card/c8", Endpoint: "card", Concurrency: 8, DurationSec: 2.0,
		Requests: 120, OK: 100, Shed: 15, DeadlineMisses: 5,
		ThroughputRPS: 50, P50Ms: 1.5, P90Ms: 3, P95Ms: 4, P99Ms: 9, MaxMs: 20,
	})
	r.AddLoad(LoadEntry{
		Name: "cost/r200", Endpoint: "cost", OpenLoopQPS: 200, DurationSec: 2.0,
		Requests: 400, OK: 400, ThroughputRPS: 200, P50Ms: 1, P90Ms: 2, P95Ms: 2, P99Ms: 3, MaxMs: 5,
	})

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
	if len(back.Load) != 2 {
		t.Fatalf("got %d load entries, want 2", len(back.Load))
	}
	if back.Load[0] != r.Load[0] || back.Load[1] != r.Load[1] {
		t.Fatalf("load roundtrip mismatch:\n%+v\n%+v", back.Load, r.Load)
	}
	// Closed-loop entries omit the open-loop rate field entirely.
	if strings.Contains(string(data), `"open_loop_qps": 0`) {
		t.Fatal("zero open_loop_qps serialized despite omitempty")
	}
}
