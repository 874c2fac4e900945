package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tables_golden.json from the current code")

const tablesGoldenPath = "testdata/tables_golden.json"

// rowBits maps each row's Method to the Float64bits, in hex, of every
// float64 field of that row.
func rowBits(rows any) map[string]map[string]string {
	out := map[string]map[string]string{}
	v := reflect.ValueOf(rows)
	for i := 0; i < v.Len(); i++ {
		row := v.Index(i)
		bits := map[string]string{}
		for f := 0; f < row.NumField(); f++ {
			if row.Field(f).Kind() == reflect.Float64 {
				bits[row.Type().Field(f).Name] = fmt.Sprintf("%016x", math.Float64bits(row.Field(f).Float()))
			}
		}
		out[row.FieldByName("Method").String()] = bits
	}
	return out
}

// checkTableGolden pins every float of one table's rows, bit for bit,
// against testdata/tables_golden.json: what the model learns at
// microConfig, not just the table's shape. -update-golden rewrites the
// table's entry and is only for a change that states why the bits
// move. amd64 only, like TestTrainGolden: arm64 may fuse a*b+c into
// FMA.
func checkTableGolden(t *testing.T, table string, rows any) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	all := map[string]map[string]map[string]string{}
	b, err := os.ReadFile(tablesGoldenPath)
	if err == nil {
		err = json.Unmarshal(b, &all)
	}
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	got := rowBits(rows)
	if *updateGolden {
		all[table] = got
		b, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablesGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !reflect.DeepEqual(got, all[table]) {
		t.Errorf("%s: got bits %v, golden %v", table, got, all[table])
	}
}

// microConfig is even smaller than QuickConfig so the full pipelines
// run in a few seconds inside unit tests.
func microConfig() Config {
	c := QuickConfig()
	c.TrainQueries = 40
	c.TestQueries = 10
	c.JoinSelQueries = 40
	c.Epochs = 2
	c.EncoderQueries = 8
	c.EncoderEpochs = 1
	c.NumDBs = 3
	c.QueriesPerDB = 10
	c.FineTuneQueries = 4
	c.FineTuneEpochs = 1
	c.IMDBScale = 0.04
	c.Workload.MaxTables = 3
	return c
}

func TestRunTable1EndToEnd(t *testing.T) {
	res, err := RunTable1(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("Table 1 needs 5 rows, got %d", len(res.Rows))
	}
	names := []string{"PostgreSQL", "Tree-LSTM", "MTMLF-QO", "MTMLF-CardEst", "MTMLF-CostEst"}
	for i, n := range names {
		if res.Rows[i].Method != n {
			t.Fatalf("row %d is %q, want %q", i, res.Rows[i].Method, n)
		}
	}
	for _, r := range res.Rows {
		if r.HasCard && (r.CardMedian < 1 || r.CardMax < r.CardMedian) {
			t.Fatalf("%s card summary inconsistent: %+v", r.Method, r)
		}
		if r.HasCost && (r.CostMedian < 1 || r.CostMax < r.CostMedian) {
			t.Fatalf("%s cost summary inconsistent: %+v", r.Method, r)
		}
	}
	// Single-task rows carry only their own metric, as in the paper.
	if res.Rows[3].HasCost || res.Rows[4].HasCard {
		t.Fatal("ablation rows must not report the other task")
	}
	s := res.String()
	if !strings.Contains(s, "MTMLF-QO") || !strings.Contains(s, "median") {
		t.Fatalf("rendered table malformed:\n%s", s)
	}
	checkTableGolden(t, "table1", res.Rows)
}

func TestRunTable2EndToEnd(t *testing.T) {
	res, err := RunTable2(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Table 2 needs 4 rows, got %d", len(res.Rows))
	}
	pg, opt := res.Rows[0], res.Rows[1]
	if pg.Method != "PostgreSQL" || opt.Method != "Optimal" {
		t.Fatal("row order wrong")
	}
	// The optimal order can never be slower than any other method.
	for _, r := range res.Rows {
		if opt.TotalTime > r.TotalTime+1e-9 {
			t.Fatalf("optimal (%g) slower than %s (%g)", opt.TotalTime, r.Method, r.TotalTime)
		}
	}
	if opt.OptimalFrac != 1 {
		t.Fatal("optimal row must be 100% optimal")
	}
	// MTMLF rows are legal orders, so their time is finite and at least
	// the optimum.
	for _, r := range res.Rows[2:] {
		if r.TotalTime < opt.TotalTime-1e-9 {
			t.Fatalf("%s beat the optimum", r.Method)
		}
	}
	if s := res.String(); !strings.Contains(s, "Improvement") {
		t.Fatalf("rendered table malformed:\n%s", s)
	}
	checkTableGolden(t, "table2", res.Rows)
}

func TestRunTable3EndToEnd(t *testing.T) {
	res, err := RunTable3(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("Table 3 needs 5 rows, got %d", len(res.Rows))
	}
	names := []string{"PostgreSQL", "Optimal", "MTMLF-QO (MLA)", "MTMLF-QO (single)", "MTMLF-QO (no pre-train)"}
	for i, n := range names {
		if res.Rows[i].Method != n {
			t.Fatalf("row %d is %q", i, res.Rows[i].Method)
		}
	}
	for _, r := range res.Rows {
		if r.TotalTime <= 0 {
			t.Fatalf("%s total time %g", r.Method, r.TotalTime)
		}
	}
	if s := res.String(); !strings.Contains(s, "MLA") {
		t.Fatalf("rendered table malformed:\n%s", s)
	}
	checkTableGolden(t, "table3", res.Rows)
}

func TestConfigsSane(t *testing.T) {
	q, f := QuickConfig(), FullConfig()
	if q.TrainQueries >= f.TrainQueries {
		t.Fatal("full config must be larger than quick")
	}
	if q.Model.Dim <= 0 || q.Workload.MaxTables < q.Workload.MinTables {
		t.Fatal("quick config malformed")
	}
}
