package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// The claims scoreboard: Tables 1–3 for seeds 1..claimSeeds at one
// scale, the paper's claims counted over those seeds, Tables 2 and 3's
// per-query times against PostgreSQL's order, and all of it pinned in
// testdata/claims_<scale>.json. `make claims` (QuickConfig) and `make
// claims-full` (FullConfig) run it; every other test run skips it.
var claimsScale = flag.String("claims", "", "run the claims scoreboard at this scale (quick or full) against testdata/claims_<scale>.json")

// Fixed before any result was seen, like the claims themselves: the
// seeds, and the paired bootstrap's resample count and seed.
const (
	claimSeeds         = 6
	bootstrapResamples = 2000
	bootstrapSeed      = 1
)

// seedRun is one seed's three tables.
type seedRun struct {
	seed int64
	t1   *Table1Result
	t2   *Table2Result
	t3   *Table3Result
}

func (s seedRun) row1(method string) Table1Row { return findRow(s.t1.Rows, method) }
func (s seedRun) row2(method string) Table2Row { return findRow(s.t2.Rows, method) }
func (s seedRun) row3(method string) Table3Row { return findRow(s.t3.Rows, method) }

// findRow is the row of rows whose Method is method.
func findRow[R any](rows []R, method string) R {
	for _, r := range rows {
		if reflect.ValueOf(r).FieldByName("Method").String() == method {
			return r
		}
	}
	panic("experiments: no row " + method)
}

// claim is one of the paper's claims as one comparison per seed: it
// holds when mine < base, or mine ≤ base when orEqual.
type claim struct {
	name    string
	orEqual bool
	get     func(seedRun) (mine, base float64)
}

func (c claim) holds(s seedRun) bool {
	mine, base := c.get(s)
	return mine < base || (c.orEqual && mine == base)
}

// claims are ROADMAP 1(b)'s rows (its card mean / max row split in
// two). The PostgreSQL cost row estimates cards with the histogram
// model and prices them with the same cost model that makes the cost
// labels, so the cost-median claim is low by construction; it is
// reported, not restated (DESIGN.md §4).
var claims = []claim{
	{"T1 MTMLF-QO card median < PostgreSQL", false, func(s seedRun) (float64, float64) {
		return s.row1("MTMLF-QO").CardMedian, s.row1("PostgreSQL").CardMedian
	}},
	{"T1 MTMLF-QO card mean < PostgreSQL", false, func(s seedRun) (float64, float64) {
		return s.row1("MTMLF-QO").CardMean, s.row1("PostgreSQL").CardMean
	}},
	{"T1 MTMLF-QO card max < PostgreSQL", false, func(s seedRun) (float64, float64) {
		return s.row1("MTMLF-QO").CardMax, s.row1("PostgreSQL").CardMax
	}},
	{"T1 MTMLF-QO cost median < PostgreSQL", false, func(s seedRun) (float64, float64) {
		return s.row1("MTMLF-QO").CostMedian, s.row1("PostgreSQL").CostMedian
	}},
	{"T1 MTMLF-QO card median <= MTMLF-CardEst", true, func(s seedRun) (float64, float64) {
		return s.row1("MTMLF-QO").CardMedian, s.row1("MTMLF-CardEst").CardMedian
	}},
	{"T1 MTMLF-QO cost median <= MTMLF-CostEst", true, func(s seedRun) (float64, float64) {
		return s.row1("MTMLF-QO").CostMedian, s.row1("MTMLF-CostEst").CostMedian
	}},
	{"T2 MTMLF-QO total < PostgreSQL", false, func(s seedRun) (float64, float64) {
		return s.row2("MTMLF-QO").TotalTime, s.row2("PostgreSQL").TotalTime
	}},
	{"T2 MTMLF-QO total < MTMLF-JoinSel", false, func(s seedRun) (float64, float64) {
		return s.row2("MTMLF-QO").TotalTime, s.row2("MTMLF-JoinSel").TotalTime
	}},
	{"T3 MLA total < PostgreSQL", false, func(s seedRun) (float64, float64) {
		return s.row3("MTMLF-QO (MLA)").TotalTime, s.row3("PostgreSQL").TotalTime
	}},
	{"T3 MLA total < single", false, func(s seedRun) (float64, float64) {
		return s.row3("MTMLF-QO (MLA)").TotalTime, s.row3("MTMLF-QO (single)").TotalTime
	}},
	{"T3 MLA total < no pre-train", false, func(s seedRun) (float64, float64) {
		return s.row3("MTMLF-QO (MLA)").TotalTime, s.row3("MTMLF-QO (no pre-train)").TotalTime
	}},
}

// pairedRows are the model rows of Tables 2 and 3 whose per-query times
// are compared with PostgreSQL's order on the same query.
var pairedRows = []struct {
	name  string
	times func(seedRun) (mine, pg []float64)
}{
	{"T2 MTMLF-QO", func(s seedRun) ([]float64, []float64) { return s.row2("MTMLF-QO").Times, s.row2("PostgreSQL").Times }},
	{"T2 MTMLF-JoinSel", func(s seedRun) ([]float64, []float64) {
		return s.row2("MTMLF-JoinSel").Times, s.row2("PostgreSQL").Times
	}},
	{"T3 MLA", func(s seedRun) ([]float64, []float64) {
		return s.row3("MTMLF-QO (MLA)").Times, s.row3("PostgreSQL").Times
	}},
	{"T3 single", func(s seedRun) ([]float64, []float64) {
		return s.row3("MTMLF-QO (single)").Times, s.row3("PostgreSQL").Times
	}},
	{"T3 no pre-train", func(s seedRun) ([]float64, []float64) {
		return s.row3("MTMLF-QO (no pre-train)").Times, s.row3("PostgreSQL").Times
	}},
}

// logRatios is each query's log time ratio against PostgreSQL's order.
// One tuple is added to both times, so a query whose PostgreSQL order
// produces no intermediate tuple still has a finite ratio.
func logRatios(mine, pg []float64) []float64 {
	out := make([]float64, len(mine))
	for q := range mine {
		out[q] = math.Log((mine[q] + 1) / (pg[q] + 1))
	}
	return out
}

// pairedStats summarizes one row's per-query time ratios against
// PostgreSQL. Lo and Hi, the paired bootstrap's 95 % interval of
// GeoMean, are computed over the queries of every seed pooled.
type pairedStats struct {
	Method       string
	Queries      int
	GeoMean      float64 // geometric mean of the ratios
	SlowerThan2x float64 // share of queries with a ratio above 2
	Worst        float64 // the largest ratio
	Lo, Hi       float64
}

func summarizeRatios(name string, logs []float64, interval bool) pairedStats {
	mean := func(xs []float64) float64 { return total(xs) / float64(len(xs)) }
	st := pairedStats{Method: name, Queries: len(logs), GeoMean: math.Exp(mean(logs)), Worst: math.Exp(slices.Max(logs))}
	for _, l := range logs {
		if l > math.Ln2 {
			st.SlowerThan2x++
		}
	}
	st.SlowerThan2x /= float64(len(logs))
	if interval {
		// Resample queries with replacement; a query's two times stay
		// together in its ratio, so the bootstrap is paired.
		rng := rand.New(rand.NewSource(bootstrapSeed))
		means, sample := make([]float64, bootstrapResamples), make([]float64, len(logs))
		for b := range means {
			for i := range sample {
				sample[i] = logs[rng.Intn(len(logs))]
			}
			means[b] = mean(sample)
		}
		slices.Sort(means)
		tail := bootstrapResamples / 40 // 2.5 % on each side
		st.Lo, st.Hi = math.Exp(means[tail]), math.Exp(means[bootstrapResamples-1-tail])
	}
	return st
}

// scoreboard is what testdata/claims_<scale>.json pins. Every float is
// its Float64bits in hex (rowBits), so a difference names the bit that
// moved.
type scoreboard struct {
	Seeds  []seedBits                   `json:"seeds"`
	Counts map[string]int               `json:"counts"` // claim → seeds it held on
	Paired map[string]map[string]string `json:"paired"` // row → statistic → bits, seeds pooled
}

type seedBits struct {
	Seed   int64                                   `json:"seed"`
	Tables map[string]map[string]map[string]string `json:"tables"` // table → method → field → bits
	Paired map[string]map[string]string            `json:"paired"`
}

func TestClaims(t *testing.T) {
	var cfg Config
	switch *claimsScale {
	case "":
		t.Skip("the claims scoreboard runs under make claims (-claims=quick) and make claims-full (-claims=full)")
	case "quick":
		cfg = QuickConfig()
	case "full":
		cfg = FullConfig()
	default:
		t.Fatalf("-claims=%q: want quick or full", *claimsScale)
	}
	runs := make([]seedRun, claimSeeds)
	got := scoreboard{Counts: map[string]int{}}
	for i := range runs {
		cfg.Seed = int64(i + 1)
		start := time.Now()
		s := seedRun{seed: cfg.Seed}
		var err error
		if s.t1, err = RunTable1(cfg); err == nil {
			if s.t2, err = RunTable2(cfg); err == nil {
				s.t3, err = RunTable3(cfg)
			}
		}
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		runs[i] = s
		paired := seedPaired(s)
		fmt.Printf("=== seed %d (%s scale, %v)\n%s\n%s\n%s\n%s\n", s.seed, *claimsScale, time.Since(start).Round(time.Millisecond),
			s.t1, s.t2, s.t3, pairedTable(paired, false))
		got.Seeds = append(got.Seeds, seedBits{
			Seed:   s.seed,
			Tables: map[string]map[string]map[string]string{"table1": rowBits(s.t1.Rows), "table2": rowBits(s.t2.Rows), "table3": rowBits(s.t3.Rows)},
			Paired: rowBits(paired),
		})
	}
	fmt.Printf("=== claims over seeds 1..%d (%s scale)\n", claimSeeds, *claimsScale)
	fmt.Printf("%-42s %5s  %-12s %s\n", "claim", "held", "seeds", "worst margin (base − model) / base")
	for _, c := range claims {
		var held []string
		worst, worstSeed := math.Inf(1), int64(0)
		for _, s := range runs {
			if c.holds(s) {
				held = append(held, fmt.Sprint(s.seed))
			}
			if mine, base := c.get(s); (base-mine)/base < worst {
				worst, worstSeed = (base-mine)/base, s.seed
			}
		}
		got.Counts[c.name] = len(held)
		fmt.Printf("%-42s %2d/%d  %-12s %+.1f%% (seed %d)\n", c.name, len(held), claimSeeds, strings.Join(held, " "), 100*worst, worstSeed)
	}
	pooled := pooledPaired(runs)
	got.Paired = rowBits(pooled)
	fmt.Printf("\n=== per query against PostgreSQL's order, seeds 1..%d pooled\n%s\n", claimSeeds, pairedTable(pooled, true))

	// The counts above are read on any port; the pin is amd64's bits,
	// like checkTableGolden's.
	if runtime.GOARCH != "amd64" {
		t.Skipf("pin recorded on amd64; %s has its own math.Exp/Log/Tanh/Pow", runtime.GOARCH)
	}
	path := "testdata/claims_" + *claimsScale + ".json"
	if *updateGolden {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want scoreboard
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	var diff strings.Builder
	for _, c := range claims {
		mark := ""
		if got.Counts[c.name] != want.Counts[c.name] {
			mark = "   <- moved"
		}
		fmt.Fprintf(&diff, "\n  %-42s %d/%d → %d/%d%s", c.name, want.Counts[c.name], claimSeeds, got.Counts[c.name], claimSeeds, mark)
	}
	for i, s := range got.Seeds {
		if i >= len(want.Seeds) || !reflect.DeepEqual(s, want.Seeds[i]) {
			fmt.Fprintf(&diff, "\n  seed %d: table or per-query bits moved", s.Seed)
		}
	}
	if !reflect.DeepEqual(got.Paired, want.Paired) {
		fmt.Fprintf(&diff, "\n  pooled per-query bits moved")
	}
	t.Fatalf("%s differs from this run (-update-golden rewrites it, and git diff then names every float that moved; only in a change that says why the bits moved); counts old → new:%s", path, diff.String())
}

// seedPaired is one seed's per-query statistics, row by row.
func seedPaired(s seedRun) []pairedStats {
	out := make([]pairedStats, len(pairedRows))
	for i, r := range pairedRows {
		out[i] = summarizeRatios(r.name, logRatios(r.times(s)), false)
	}
	return out
}

// pooledPaired is each row's per-query statistics over the queries of
// every seed, with the bootstrap interval.
func pooledPaired(runs []seedRun) []pairedStats {
	out := make([]pairedStats, len(pairedRows))
	for i, r := range pairedRows {
		var logs []float64
		for _, s := range runs {
			logs = append(logs, logRatios(r.times(s))...)
		}
		out[i] = summarizeRatios(r.name, logs, true)
	}
	return out
}

// pairedTable renders per-query statistics; the ratio is a query's
// (time + 1) / (PostgreSQL's time + 1).
func pairedTable(rows []pairedStats, interval bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %10s %10s %10s", "per query vs PG", "queries", "geo-mean", "> 2x PG", "worst")
	if interval {
		fmt.Fprintf(&b, "  %s", "geo-mean 95% bootstrap interval")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "\n%-18s %8d %10.3f %9.1f%% %10.2f", r.Method, r.Queries, r.GeoMean, 100*r.SlowerThan2x, r.Worst)
		if interval {
			fmt.Fprintf(&b, "  [%.3f, %.3f]", r.Lo, r.Hi)
		}
	}
	return b.String()
}
