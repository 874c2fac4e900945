// Command mtmlf-datagen runs the paper's Section 6.2 data generation
// pipeline. By default it prints a summary of each generated database:
// tables, row counts, fact/dimension roles, and the join schema. With
// -out it becomes the corpus builder of the data plane: each database
// is written to a versioned on-disk corpus (internal/corpus) as the
// three things Algorithm 1 takes from it — its schema, the
// single-table queries that pretrain its encoders (lines 3–4), and a
// labeled workload with true cardinalities, costs, and optimal join
// orders (lines 5–8). That is the artifact mtmlf-train -corpus trains
// from without regenerating or relabeling anything.
//
// Usage:
//
//	mtmlf-datagen [-n 11] [-seed 1] [-minrows 200] [-maxrows 1500]
//	              [-workers 0]
//	              [-out corpus.mtc] [-queries 48] [-single-table 40]
//	              [-maxtables 6] [-imdb] [-scale 0.06]
//
// -workers sizes the worker pool that generates and labels databases
// concurrently (0 = all cores); the fleet AND the labeled corpus are
// identical at any size. Labeling fans out across databases only, so a
// one-database corpus (-imdb) labels on one core. -imdb replaces the
// synthetic fleet with the single 21-table synthetic IMDB database.
//
// Every database is labelled with the Algorithm 1 seed scheme
// (mtmlf.Label): a per-database task seed, -single-table labeled
// queries per table first, then -queries multi-table examples from
// the same rng stream. -single-table must be at least 1 with -out. The
// corpus records both counts and the workload config in its Meta, and
// `mtmlf-train -mla -corpus` trains the shared (S)+(T) modules from it
// without labelling anything. mtmlf-train without -corpus labels its
// database with the same helper, into a corpus in memory. The closing
// line splits the wall time into generate, label and write, and gives
// labelled queries (examples plus single-table queries) per second.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

func main() {
	n := flag.Int("n", 11, "number of databases to generate")
	seed := flag.Int64("seed", 1, "random seed")
	minRows := flag.Int("minrows", 0, "override minimum rows per table")
	maxRows := flag.Int("maxrows", 0, "override maximum rows per table")
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores)")
	out := flag.String("out", "", "write a labeled corpus to this file")
	queries := flag.Int("queries", 48, "labeled queries per database (with -out)")
	maxTables := flag.Int("maxtables", 0, "override max tables joined per query (with -out)")
	imdb := flag.Bool("imdb", false, "generate the synthetic IMDB database instead of a fleet")
	scale := flag.Float64("scale", 0.06, "synthetic IMDB scale factor (with -imdb)")
	singleTable := flag.Int("single-table", 40, "single-table encoder pre-training queries per table (with -out; at least 1)")
	flag.Parse()
	if *out != "" && *singleTable < 1 {
		log.Fatalf("-single-table %d: a corpus stores at least one single-table query per table", *singleTable)
	}
	// An -out that cannot be written is refused before any work; the
	// file itself is opened only once everything is labelled.
	if *out != "" {
		if err := ckptio.Probe(*out); err != nil {
			log.Fatalf("-out %s: %v", *out, err)
		}
	}
	tensor.SetParallelism(*workers)
	start := time.Now()

	cfg := datagen.DefaultConfig()
	if *minRows > 0 {
		cfg.MinRows = *minRows
	}
	if *maxRows > 0 {
		cfg.MaxRows = *maxRows
	}
	var fleet []*sqldb.DB
	if *imdb {
		fleet = []*sqldb.DB{datagen.SyntheticIMDB(*seed, *scale)}
	} else {
		fleet = datagen.GenerateFleet(*seed, *n, cfg)
	}
	generated := time.Since(start)
	for _, db := range fleet {
		fmt.Printf("=== %s: %d tables (%d fact) ===\n", db.Name, len(db.Tables), len(db.FactTables))
		facts := map[string]bool{}
		for _, f := range db.FactTables {
			facts[f] = true
		}
		for _, t := range db.Tables {
			role := "dim "
			if facts[t.Name] {
				role = "fact"
			}
			fmt.Printf("  %s %-8s %6d rows, %d columns\n", role, t.Name, t.NumRows(), len(t.Columns))
		}
		fmt.Println("  join schema:")
		for _, e := range db.Edges {
			fmt.Printf("    %s\n", e)
		}
		fmt.Println()
	}
	if *out == "" {
		return
	}

	// Corpus mode: label a workload per database and stream everything
	// to disk.
	wcfg := workload.DefaultConfig()
	if *maxTables > 0 {
		wcfg.MaxTables = *maxTables
	}
	meta := corpus.Meta{
		Seed: *seed,
		Note: fmt.Sprintf("mtmlf-datagen: %d dbs, %d queries/db, %d single-table/table, datagen %+v, workload %+v",
			len(fleet), *queries, *singleTable, cfg, wcfg),
		SingleTablePerTable: *singleTable,
		MLAWorkload:         wcfg,
	}
	labelStart := time.Now()
	dbs := mtmlf.Label(mtmlf.MLAOptions{
		QueriesPerDB:        *queries,
		SingleTablePerTable: *singleTable,
		Workload:            wcfg,
		Seed:                *seed,
	}, fleet...)
	labelled, nq := time.Since(labelStart), 0
	for _, d := range dbs {
		nst := 0
		for _, tw := range d.SingleTable {
			nst += len(tw.Queries)
		}
		nq += len(d.Examples) + nst
		fmt.Printf("labeled %s: %d examples + %d single-table queries\n", d.DB.Name, len(d.Examples), nst)
	}
	writeStart := time.Now()
	// Labelling is where the time goes, so the file is opened only once
	// everything is labelled, and committed atomically (temp file + fsync
	// + rename): a kill while labelling leaves nothing behind, and a
	// failure mid-write no torn artifact at -out.
	if err := corpus.WriteFile(*out, meta, dbs); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote corpus %s: %d databases, %d examples each, %d bytes, %v total (generate %v, label %v at %.0f queries/s, write %v)\n",
		*out, len(fleet), *queries, fi.Size(), time.Since(start).Round(time.Millisecond), generated.Round(time.Millisecond),
		labelled.Round(time.Millisecond), float64(nq)/labelled.Seconds(), time.Since(writeStart).Round(time.Millisecond))
}
