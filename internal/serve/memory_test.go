package serve

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"testing"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/workload"
)

func TestGCPercent(t *testing.T) {
	for _, c := range []struct {
		paramBytes, want int
	}{
		{0, 100},
		{-1, 100},
		{5_000_000, 100},  // serve_default's Dim-32 model
		{GCHeadroom, 100}, // exactly the headroom: the default
		{GCHeadroom + 1, 100},
		{2 * GCHeadroom, 50},
		{2*GCHeadroom + 1, 50}, // 49.99… rounds up
		{20_400_000, 83},       // serve_wide at int8: 82.2…
		{59_400_000, 29},       // f32: 28.2…
		{112_400_000, 15},      // f64: 14.9…
		{100 * GCHeadroom, 1},
		{1 << 40, 1},
	} {
		if got := GCPercent(c.paramBytes); got != c.want {
			t.Errorf("GCPercent(%d) = %d, want %d", c.paramBytes, got, c.want)
		}
	}
}

// TestGCPercentBoundsHeapGoal: a Dim-64 replica booted from a checkpoint
// the way mtmlf-serve boots, with the GC percent it would apply, serves
// a few hundred requests. Its weights stay live, and its heap goal grows
// past the live heap by GCHeadroom per parameter byte live (plus the
// runtime's share for stacks and globals), not by the whole live heap:
// ~48 MB for 28.5 MB of weights, where the default percent would let it
// reach about twice them. Both bounds are relative to the measured heap,
// so whatever else the test binary holds live does not decide them.
func TestGCPercentBoundsHeapGoal(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a Dim-64 model")
	}
	db := datagen.SyntheticIMDB(5, 0.05)
	var ckpt bytes.Buffer
	cfg := mtmlf.PaperConfig()
	cfg.Dim, cfg.Feat.Dim = 64, 64
	if err := mtmlf.Save(&ckpt, mtmlf.NewModel(cfg, db, 3)); err != nil {
		t.Fatal(err)
	}
	e, _, err := Open(&ckpt, db, Options{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ckpt = bytes.Buffer{}
	pb := e.Stats().Checkpoint.ParamBytes
	pct := GCPercent(pb)
	defer debug.SetGCPercent(debug.SetGCPercent(pct))
	runtime.GC()

	gen := workload.NewGeneratorFrom(e.Catalog(), 12)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	qs := gen.Generate(8, wcfg)
	for i := 0; i < 300; i++ {
		lq := qs[i%len(qs)]
		if _, err := e.EstimateCard(lq.Q, lq.Plan); err != nil {
			t.Fatal(err)
		}
	}
	mem := readMemory()
	scan := []rtmetrics.Sample{{Name: "/gc/scan/stack:bytes"}, {Name: "/gc/scan/globals:bytes"}}
	rtmetrics.Read(scan)
	live, roots := float64(mem.HeapLiveBytes), float64(scan[0].Value.Uint64()+scan[1].Value.Uint64())
	// The runtime's goal is live + (live + stacks + globals)·percent/100;
	// the slack covers its rounding, nothing the test binary holds.
	const slack = 1 << 20
	maxGoal := live + (live+roots)*float64(pct)/100 + slack
	if mem.GCPercent != pct || live < float64(pb) || float64(mem.HeapGoalBytes) > maxGoal {
		t.Fatalf("%d parameter bytes at GC percent %d: memory %+v, stacks+globals %.0f, want live ≥ %d and a goal of at most %.0f",
			pb, pct, mem, roots, pb, maxGoal)
	}
	t.Logf("%d parameter bytes, GC percent %d: heap live %d, goal %d (growth %.1f MiB)",
		pb, pct, mem.HeapLiveBytes, mem.HeapGoalBytes, float64(mem.HeapGoalBytes-mem.HeapLiveBytes)/(1<<20))
}

// TestExampleReusesLoaderStatistics: a generator over Engine.Catalog —
// the statistics the loader's ANALYZE computed — draws the same /example
// bodies, byte for byte, as one that runs ANALYZE itself, at every tier.
func TestExampleReusesLoaderStatistics(t *testing.T) {
	m, _ := testModel(t)
	var ckpt bytes.Buffer
	if err := mtmlf.Save(&ckpt, m); err != nil {
		t.Fatal(err)
	}
	db := m.Feat.DB
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	bodies := func(g *workload.Generator) []byte {
		var b bytes.Buffer
		for i := 0; i < 20; i++ {
			q := g.GenQuery(wcfg)
			if err := json.NewEncoder(&b).Encode(RequestJSON{Query: EncodeQuery(q)}); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}
	want := bodies(workload.NewGenerator(db, 1007))
	for _, p := range allTiers {
		e, _, err := Open(bytes.NewReader(ckpt.Bytes()), db, Options{Sessions: 1, Precision: p})
		if err != nil {
			t.Fatal(err)
		}
		got := bodies(workload.NewGeneratorFrom(e.Catalog(), 1007))
		e.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: /example bodies from the loader's statistics differ from a fresh ANALYZE's", p)
		}
	}
}
