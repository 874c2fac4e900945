package calib

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fleet_golden.json from the current code")

const goldenPath = "testdata/fleet_golden.json"

// tierGolden is what one precision tier answers over the smoke fleet:
// FNV-64a over the Float64bits of every per-node card and cost
// estimate, in query order, and every join order, comma-joined.
type tierGolden struct {
	EstimatesFNV64 string   `json:"estimates_fnv64"`
	JoinOrders     []string `json:"join_orders"`
}

// estimator is the serial surface both *mtmlf.Model and
// *mtmlf.LoweredModel answer from.
type estimator interface {
	EstimateNodeCards(*workload.LabeledQuery) []float64
	EstimateNodeCosts(*workload.LabeledQuery) []float64
	InferJoinOrder(*sqldb.Query, *plan.Node) []string
}

func fleetGolden(est estimator, qs []*workload.LabeledQuery) tierGolden {
	h := fnv.New64a()
	var buf [8]byte
	var g tierGolden
	for _, lq := range qs {
		for _, nodes := range [][]float64{est.EstimateNodeCards(lq), est.EstimateNodeCosts(lq)} {
			for _, v := range nodes {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		g.JoinOrders = append(g.JoinOrders, strings.Join(est.InferJoinOrder(lq.Q, lq.Plan), ","))
	}
	g.EstimatesFNV64 = fmt.Sprintf("%016x", h.Sum64())
	return g
}

// TestFleetGolden pins every number the three serving tiers answer on
// the deterministic smoke fleet, bit for bit. The file was recorded
// before the f64/f32 inference stacks were collapsed into one generic
// stack, so it proves the collapse (and any later refactor of that
// path) changed no served value. amd64 only, like mtmlf's
// TestTrainGolden: inference calls math.Exp, Log and Tanh, which
// are each port's own.
func TestFleetGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s has its own math.Exp/Log/Tanh/Pow", runtime.GOARCH)
	}
	m, qs := SmokeFleet(7, 12)
	got := map[string]tierGolden{"f64": fleetGolden(m, qs)}
	for _, p := range []nn.Precision{nn.PrecisionF32, nn.PrecisionInt8} {
		got[p.String()] = fleetGolden(m.Lower(p), qs)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]tierGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for tier, w := range want {
		g := got[tier]
		if g.EstimatesFNV64 != w.EstimatesFNV64 {
			t.Errorf("%s: estimates hash %s, golden %s", tier, g.EstimatesFNV64, w.EstimatesFNV64)
		}
		if !reflect.DeepEqual(g.JoinOrders, w.JoinOrders) {
			t.Errorf("%s: join orders %v, golden %v", tier, g.JoinOrders, w.JoinOrders)
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d tiers, want %d", len(want), len(got))
	}
}
