// Command mtmlf-bench regenerates the paper's evaluation tables and
// runs the reduced-precision calibration gate.
//
// Usage:
//
//	mtmlf-bench -exp table1|table2|table3|all [-scale quick|full] [-seed N]
//	            [-workers 0]
//	mtmlf-bench -calib
//
// -workers sizes the shared worker pool (0 = all cores): independent
// trials within each table, fleet generation, and the tensor kernels
// all run on it. Per-kernel and per-tier numbers (GFLOP/s against a
// bandwidth ceiling, resident bytes per tier) come from the repository
// benchmark: bench/README.md, metrics tensor.* and mtmlf.param_bytes.*.
//
// -calib runs the reduced-precision calibration harness on the
// deterministic smoke fleet and exits non-zero if any lowered tier
// breaks its q-error budget or changes a join order (internal/calib).
//
// At -scale quick each table finishes in seconds; -scale full runs a
// larger protocol (minutes). Absolute numbers depend on the synthetic
// substrate; DESIGN.md §4 maps each table and ablation to the part of
// the paper it regenerates.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mtmlf/internal/calib"
	"mtmlf/internal/experiments"
	"mtmlf/internal/tensor"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: table1, table2, table3, or all")
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores)")
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
