package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// binDir holds the programs under test, built once for the package.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "bench-bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
			"./cmd/mtmlf-serve", "./cmd/mtmlf-train", "./cmd/mtmlf-datagen")
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build programs under test: %v\n%s", err, out)
			return 1
		}
		binDir = dir
		return m.Run()
	}())
}

func smokeOptions(t *testing.T, trace bool) options {
	return options{seconds: 1.2, trace: trace, smoke: true, binDir: binDir, workDir: filepath.Join(t.TempDir(), "work")}
}

// TestSmoke runs every workload in both modes at smoke scale. runOne
// itself fails when a registered metric is missing, duplicated by
// another name, unregistered or not finite, so what is left to assert
// is that the run was correct and that no end-to-end metric reads 0.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				opts := smokeOptions(t, trace)
				row, err := runOne(context.Background(), w.Name, 1, opts, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !row.Correct || row.Failed != 0 || row.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", row.Correct, row.Attempted, row.Failed)
				}
				want := len(endToEnd)
				if trace {
					want = len(perLayer)
					if _, err := os.Stat(filepath.Join(opts.workDir, "..", "bench-trace-"+w.Name+".json")); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				if len(row.Metrics) != want {
					t.Fatalf("%d metrics reported, registry has %d", len(row.Metrics), want)
				}
				for name, m := range row.Metrics {
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if left, _ := os.ReadDir(opts.workDir); len(left) != 0 {
					t.Errorf("scratch directory not emptied: %d entries left", len(left))
				}
			})
		}
	}
}

// TestCorruptOracleFailsRun checks the oracle is live: when it expects
// a wrong answer, sampled responses count as failed and the run is not
// correct.
func TestCorruptOracleFailsRun(t *testing.T) {
	opts := smokeOptions(t, false)
	opts.corruptOracle = true
	row, err := runOne(context.Background(), wServeDefault, 1, opts, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if row.Correct || row.Failed == 0 {
		t.Fatalf("correct=%v failed=%d with a corrupted oracle", row.Correct, row.Failed)
	}
}

// TestSpec checks the registry against the limits a BENCHMARK.json must
// keep, and that the committed file is the registry's printed form.
func TestSpec(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s missing or misdeclared: %+v", endToEnd[0])
	}

	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestCompare(t *testing.T) {
	mk := func(rate float64) *report {
		r := &report{}
		for i := 0; i < 3; i++ {
			r.Runs = append(r.Runs, reportRow{Workload: wCorpusIO, runReport: runReport{
				Metrics: map[string]metricValue{"rate_a": {rate + float64(i), "1/s"}},
			}})
		}
		return r
	}
	var out bytes.Buffer
	if !compare(&out, mk(1000), mk(950)) {
		t.Errorf("5%% slower called worse:\n%s", &out)
	}
	out.Reset()
	if compare(&out, mk(1000), mk(600)) || !strings.Contains(out.String(), "worse") {
		t.Errorf("40%% slower not called worse:\n%s", &out)
	}
	wide := mk(1000)
	wide.Runs[0].Metrics["rate_a"] = metricValue{400, "1/s"}
	out.Reset()
	if !compare(&out, wide, mk(800)) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound not called unresolved:\n%s", &out)
	}
}
