// Command mtmlf-loadgen is the production load harness for
// mtmlf-serve: it drives /estimate/card, /estimate/cost, and
// /joinorder with a configurable traffic mix and Zipf-skewed query
// popularity, in closed-loop (fixed concurrency) or open-loop (fixed
// arrival rate) mode, for a fixed duration per level, and reports
// HDR-style latency histograms both as a human table and as load
// entries in a JSON report (loadgen.Report, written to the -json path).
//
// The query pool is either synthesized against the same schema flags
// the server was booted with (-seed/-scale, the default) or replayed
// from a corpus artifact (-pool-corpus/-pool-db) — the very queries
// the served checkpoint was trained on.
//
// A comma list of concurrency levels (-levels 8,32) runs back to
// back, one report entry set per level, so a single invocation
// produces the two-point capacity curve the BENCH trajectory wants.
// -reload-after issues a hot checkpoint reload mid-run and fails the
// invocation if the swap (or any in-flight request around it)
// fails — the zero-downtime-reload drill.
//
// Exit status is non-zero on: unreachable target, any endpoint with
// fewer than -min-ok successes at any level, more than -max-errors
// failed requests overall, or a failed mid-run reload. That makes the
// CLI its own smoke-test assertion (see make load-smoke). A -levels
// list that names no positive integer level, or a negative -rate, is
// a usage error (exit 2), never a run that measures nothing.
//
// Usage:
//
//	mtmlf-serve -checkpoint model.ckpt -addr 127.0.0.1:8080 &
//	mtmlf-loadgen -target http://127.0.0.1:8080 -duration 10s -levels 8,32 \
//	    -mix card=50,cost=30,joinorder=20 -zipf 1.2 -json load.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mtmlf/internal/datagen"
	"mtmlf/internal/loadgen"
)

func main() {
	target := flag.String("target", "", "base URL of a running mtmlf-serve, e.g. http://127.0.0.1:8080 (required)")
	duration := flag.Duration("duration", 10*time.Second, "run length per concurrency level")
	levels := flag.String("levels", "8,32", "comma-separated closed-loop concurrency levels, run back to back")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in QPS (overrides -levels; one run)")
	mixFlag := flag.String("mix", "card=50,cost=30,joinorder=20", "traffic mix as endpoint=weight terms")
	zipf := flag.Float64("zipf", 1.2, "Zipf skew over the query pool (>1 skews; <=1 uniform)")
	poolSize := flag.Int("pool", 256, "query pool size")
	seed := flag.Int64("seed", 1, "pool seed; with -scale, must describe the served database")
	scale := flag.Float64("scale", 0.06, "database scale for the synthetic pool")
	poolTables := flag.Int("pool-tables", 4, "max joined tables per pool query (0 = generator default)")
	poolCorpus := flag.String("pool-corpus", "", "derive the pool from this corpus artifact instead of synthesizing")
	poolDB := flag.String("pool-db", "", "database name inside -pool-corpus (default: first)")
	deadlineMs := flag.Int("deadline-ms", 0, "send X-Deadline-Ms on every request (0 = none)")
	retries := flag.Int("retries", 0, "per-request retry budget for shed (429) responses, honoring Retry-After with capped backoff + jitter (0 = record sheds immediately)")
	reloadAfter := flag.Duration("reload-after", 0, "POST /reloadz this far into the first run (0 = never)")
	jsonOut := flag.String("json", "", "write a JSON report with load entries to this path")
	label := flag.String("label", "mtmlf-loadgen", "report label")
	minOK := flag.Uint64("min-ok", 0, "fail unless every driven endpoint has at least this many successes per level")
	maxErrors := flag.Uint64("max-errors", ^uint64(0), "fail if total failed requests (not shed/deadline) exceed this")
	flag.Parse()

	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "mtmlf-loadgen:", msg)
		flag.Usage()
		os.Exit(2)
	}
	if *target == "" {
		usage("-target is required")
	}
	closedLevels, err := loadgen.ParseLevels(*levels)
	if err != nil {
		usage(err.Error())
	}
	if !(*rate >= 0) { // NaN too
		usage(fmt.Sprintf("-rate %g must be a non-negative QPS", *rate))
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}

	var pool *loadgen.Pool
	if *poolCorpus != "" {
		pool, err = loadgen.CorpusPool(*poolCorpus, *poolDB, *poolSize)
	} else {
		db := datagen.SyntheticIMDB(*seed, *scale)
		pool, err = loadgen.SyntheticPool(db, *seed+2000, *poolSize, *poolTables)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("query pool: %s (%d items, zipf %.2f)", pool.Source, len(pool.Items), *zipf)

	report := loadgen.NewReport(*label)
	var totalErrors uint64
	failed := false

	runOne := func(name string, concurrency int, rateQPS float64, reload time.Duration) {
		opts := loadgen.Options{
			BaseURL:     strings.TrimRight(*target, "/"),
			Mix:         mix,
			Duration:    *duration,
			Concurrency: concurrency,
			RateQPS:     rateQPS,
			ZipfS:       *zipf,
			Seed:        *seed,
			DeadlineMs:  *deadlineMs,
			ReloadAfter: reload,
			Retries:     *retries,
		}
		if rateQPS > 0 {
			log.Printf("== open loop: %.1f QPS for %s", rateQPS, *duration)
		} else {
			log.Printf("== closed loop: %d workers for %s", concurrency, *duration)
		}
		res, err := loadgen.Run(opts, pool)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(loadgen.FormatResult(res, mix))
		for _, e := range res.LoadEntries(name, concurrency, rateQPS, mix) {
			report.Load = append(report.Load, e)
			if e.OK < *minOK {
				log.Printf("FAIL: endpoint %s had %d successes at %s, want >= %d", e.Endpoint, e.OK, name, *minOK)
				failed = true
			}
			totalErrors += e.Errors
		}
		if res.Reload != nil && res.Reload.Issued && !res.Reload.OK {
			log.Printf("FAIL: mid-run reload: status=%d %s", res.Reload.Status, res.Reload.Detail)
			failed = true
		}
		if res.Reload != nil && res.Reload.Issued && res.Reload.OK {
			log.Printf("mid-run reload ok in %s", res.Reload.Latency.Round(time.Millisecond))
		}
	}

	if *rate > 0 {
		runOne(fmt.Sprintf("r%g", *rate), 0, *rate, *reloadAfter)
	} else {
		for i, c := range closedLevels {
			reload := time.Duration(0)
			if i == 0 {
				reload = *reloadAfter
			}
			runOne(fmt.Sprintf("c%d", c), c, 0, reload)
		}
	}

	if totalErrors > *maxErrors {
		log.Printf("FAIL: %d failed requests, allowed %d", totalErrors, *maxErrors)
		failed = true
	}
	if *jsonOut != "" {
		if err := report.Write(*jsonOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d load entries)", *jsonOut, len(report.Load))
	}
	if failed {
		os.Exit(1)
	}
}
