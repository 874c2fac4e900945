// Command mtmlf-bench regenerates the paper's evaluation tables and
// emits machine-readable perf reports for the inference fast path.
//
// Usage:
//
//	mtmlf-bench -exp table1|table2|table3|all [-scale quick|full] [-seed N]
//	            [-workers 0]
//	mtmlf-bench -json report.json
//	mtmlf-bench -calib
//
// -workers sizes the shared worker pool (0 = all cores): independent
// trials within each table, fleet generation, and the tensor kernels
// all run on it.
//
// -json skips the tables and instead measures the key serving-path
// benchmarks (cached vs legacy beam search across beam widths, the
// pooled vs map Figure-4 codec, grad vs no-grad forward), writing
// ns/op, allocs/op, B/op and the speedup ratios to the given file.
// Per-kernel and per-tier numbers (GFLOP/s against a bandwidth
// ceiling, resident bytes per tier) come from the repository
// benchmark: bench/README.md, metrics tensor.* and mtmlf.param_bytes.*.
//
// -calib runs the reduced-precision calibration harness on the
// deterministic smoke fleet and exits non-zero if any lowered tier
// breaks its q-error budget or changes a join order (internal/calib).
//
// At -scale quick each table finishes in seconds; -scale full runs a
// larger protocol (minutes). Absolute numbers depend on the synthetic
// substrate; EXPERIMENTS.md discusses the expected shape versus the
// paper's values.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mtmlf/internal/benchjson"
	"mtmlf/internal/calib"
	"mtmlf/internal/experiments"
	"mtmlf/internal/inferbench"
	"mtmlf/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, table2, table3, or all")
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores)")
	jsonPath := flag.String("json", "", "write the inference fast-path benchmark report to this file and exit")
	runCalib := flag.Bool("calib", false, "run the reduced-precision calibration harness and exit (non-zero on budget violation)")
	flag.Parse()
	tensor.SetParallelism(*workers)

	if *runCalib {
		m, qs := calib.SmokeFleet(7, 12)
		failed := false
		for _, r := range calib.RunAll(m, qs) {
			fmt.Println(r.String())
			if !r.OK() {
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	if *jsonPath != "" {
		if err := runJSONBench(*jsonPath, *workers); err != nil {
			log.Fatalf("json bench: %v", err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.QuickConfig()
	case "full":
		cfg = experiments.FullConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Seed = *seed

	run := func(name string, f func(experiments.Config) (fmt.Stringer, error)) {
		start := time.Now()
		res, err := f(cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	if want("table1") {
		any = true
		run("table1", func(c experiments.Config) (fmt.Stringer, error) { return experiments.RunTable1(c) })
	}
	if want("table2") {
		any = true
		run("table2", func(c experiments.Config) (fmt.Stringer, error) { return experiments.RunTable2(c) })
	}
	if want("table3") {
		any = true
		run("table3", func(c experiments.Config) (fmt.Stringer, error) { return experiments.RunTable3(c) })
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// runJSONBench measures the serving-path benchmark suite and writes
// the report. The scenario bodies live in internal/inferbench and are
// shared with the root `go test -bench` harness, so CLI numbers and
// bench numbers describe the same workload by construction.
func runJSONBench(path string, workers int) error {
	m, lq := inferbench.Setup()
	report := benchjson.NewReport("inference fast path")
	// Record the resolved pool size, not the raw flag: -workers 0 means
	// "all cores", and the report should say how many that was.
	if workers <= 0 {
		report.Workers = tensor.Parallelism()
	} else {
		report.Workers = workers
	}

	// Beam search: cached incremental vs legacy full-prefix recompute.
	for _, k := range []int{1, 2, 4, 8} {
		cached := fmt.Sprintf("beam_width/k=%d/cached", k)
		legacy := fmt.Sprintf("beam_width/k=%d/legacy", k)
		report.Measure(cached, inferbench.BeamSearchCached(m, lq, k))
		report.Measure(legacy, inferbench.BeamSearchLegacy(m, lq, k))
		if err := report.AddSpeedup(fmt.Sprintf("beam_width/k=%d", k), legacy, cached); err != nil {
			return err
		}
	}

	// Figure 4 tree↔seq roundtrip: pooled codec vs map codec.
	report.Measure("figure4_decoding/pooled", inferbench.Figure4Pooled())
	report.Measure("figure4_decoding/legacy", inferbench.Figure4Legacy())
	if err := report.AddSpeedup("figure4_decoding", "figure4_decoding/legacy", "figure4_decoding/pooled"); err != nil {
		return err
	}

	// Full forward + heads: grad-tracked vs pooled no-grad.
	report.Measure("infer/grad", inferbench.InferGrad(m, lq))
	report.Measure("infer/nograd", inferbench.InferNoGrad(m, lq))
	if err := report.AddSpeedup("infer_no_grad", "infer/grad", "infer/nograd"); err != nil {
		return err
	}

	return report.Write(path)
}
