// Command mtmlf-datagen runs the paper's Section 6.2 data generation
// pipeline. By default it prints a summary of each generated database:
// tables, row counts, fact/dimension roles, and the join schema. With
// -out it becomes the corpus builder of the data plane: each database
// is written to a versioned on-disk corpus (internal/corpus) together
// with a pre-labeled workload (true cardinalities, costs, and optimal
// join orders), produced in deterministic shards on the worker pool —
// the artifact mtmlf-train -corpus trains from without regenerating
// or relabeling anything.
//
// Usage:
//
//	mtmlf-datagen [-n 11] [-seed 1] [-minrows 200] [-maxrows 1500]
//	              [-workers 0]
//	              [-out corpus.mtc] [-queries 48] [-shard 16]
//	              [-maxtables 6] [-imdb] [-scale 0.06]
//	              [-single-table 0]
//
// -workers sizes the worker pool that generates databases and
// workload shards concurrently (0 = all cores); the fleet AND the
// labeled corpus are identical at any size. -imdb replaces the
// synthetic fleet with the single 21-table synthetic IMDB database.
//
// -single-table N switches corpus generation into fleet-MLA mode: for
// each database the corpus additionally stores a single-table section
// of N labeled encoder pre-training queries per table, and
// the multi-table workload is generated with the Algorithm 1 seed
// scheme (mtmlf.GenMLAData: per-DB task seed, single-table draws
// first, then -queries multi-table examples from the same rng
// stream). A corpus written this way is the complete fleet
// pretraining artifact: `mtmlf-train -mla -corpus` trains the shared
// (S)+(T) modules from it bitwise-identically to a live in-memory
// TrainMLA run, skipping both workload labeling and the live (F)
// pre-training pass.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"mtmlf/internal/catalog"
	"mtmlf/internal/ckptio"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/parallel"
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
	shard := flag.Int("shard", workload.DefaultShardSize, "workload generation shard size (with -out)")
	maxTables := flag.Int("maxtables", 0, "override max tables joined per query (with -out)")
	imdb := flag.Bool("imdb", false, "generate the synthetic IMDB database instead of a fleet")
	scale := flag.Float64("scale", 0.06, "synthetic IMDB scale factor (with -imdb)")
	singleTable := flag.Int("single-table", 0, "with -out: store N single-table queries per table (fleet-MLA mode)")
	flag.Parse()
	tensor.SetParallelism(*workers)

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
	shardSize := *shard
	if *singleTable > 0 {
		// Fleet-MLA generation is one rng stream per DB, not sharded.
		shardSize = 0
		fmt.Printf("fleet-MLA mode: per-DB single-stream generation (-shard not used), %d single-table queries/table\n", *singleTable)
	}
	meta := corpus.Meta{
		Seed:      *seed,
		ShardSize: shardSize,
		Note: fmt.Sprintf("mtmlf-datagen: %d dbs, %d queries/db, %d single-table/table, datagen %+v, workload %+v",
			len(fleet), *queries, *singleTable, cfg, wcfg),
	}
	if *singleTable > 0 {
		// Echo the MLA generation parameters so training runs can
		// reproduce the live fallback generation exactly.
		meta.SingleTablePerTable = *singleTable
		meta.MLAWorkload = wcfg
	}
	start := time.Now()
	// The corpus is committed atomically (temp file + fsync + rename):
	// a crash or failure mid-generation leaves no torn artifact at -out.
	err := ckptio.WriteFileAtomic(*out, func(f io.Writer) error {
		w, err := corpus.NewWriter(f, meta)
		if err != nil {
			return err
		}
		return fillCorpus(w, fleet, wcfg, *seed, *queries, *shard, *singleTable)
	})
	if err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote corpus %s: %d databases, %d examples each, %d bytes, %v total\n",
		*out, len(fleet), *queries, fi.Size(), time.Since(start).Round(time.Millisecond))
}

// fillCorpus streams the fleet's schemas and labeled workloads into w
// and closes it.
func fillCorpus(w *corpus.Writer, fleet []*sqldb.DB, wcfg workload.Config, seed int64, queries, shard, singleTable int) error {
	if singleTable > 0 {
		// Fleet-MLA mode: per-DB single-table sections + the Algorithm 1
		// workload, generated DB-parallel on the pool, written in order.
		mlaOpts := mtmlf.MLAOptions{
			QueriesPerDB:        queries,
			SingleTablePerTable: singleTable,
			Workload:            wcfg,
			Seed:                seed,
		}
		sts := make([][]workload.TableWorkload, len(fleet))
		exs := make([][]*workload.LabeledQuery, len(fleet))
		parallel.For(len(fleet), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sts[i], exs[i] = mtmlf.GenMLAData(catalog.NewMemory(fleet[i]), mlaOpts, i)
			}
		})
		for i, db := range fleet {
			if err := w.BeginDB(db); err != nil {
				return err
			}
			if err := w.WriteSingleTable(sts[i]); err != nil {
				return err
			}
			for _, lq := range exs[i] {
				if err := w.AppendExample(lq); err != nil {
					return err
				}
			}
			nst := 0
			for _, tw := range sts[i] {
				nst += len(tw.Queries)
			}
			fmt.Printf("labeled %s: %d examples + %d single-table queries\n", db.Name, len(exs[i]), nst)
		}
		return w.Close()
	}
	for i, db := range fleet {
		t0 := time.Now()
		if err := w.BeginDB(db); err != nil {
			return err
		}
		// The per-DB workload seed is offset the same way GenerateFleet
		// offsets database seeds, so every (database, workload) pair is
		// reproducible from the master seed alone.
		qseed := seed + 1000 + int64(i)*7919
		examples := workload.GenerateSharded(catalog.NewMemory(db), qseed, queries, shard, wcfg)
		for _, lq := range examples {
			if err := w.AppendExample(lq); err != nil {
				return err
			}
		}
		fmt.Printf("labeled %s: %d examples in %v\n", db.Name, len(examples), time.Since(t0).Round(time.Millisecond))
	}
	return w.Close()
}
