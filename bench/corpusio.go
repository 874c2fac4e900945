package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"mtmlf/internal/ckptio"
	"mtmlf/internal/corpus"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

const (
	// corpusChunk is how many operations share one clock reading in the
	// untraced legs; a leg's op_ms is the median chunk divided by it.
	corpusChunk = 1000
	// corpusPerDB is how many examples a round writes for each of the three
	// databases: 9 000 examples, about 7 MB, a round. Rounds are short so
	// that a run has many of them (see steady).
	corpusPerDB = 3000
)

// corpusDB is one database of the small fleet corpus, held in memory to
// be written out many times over.
type corpusDB struct {
	db       *sqldb.DB
	single   []workload.TableWorkload
	examples []*workload.LabeledQuery
}

func loadFleet(path string) ([]corpusDB, corpus.Meta, error) {
	rd, err := corpus.Open(path)
	if err != nil {
		return nil, corpus.Meta{}, err
	}
	defer rd.Close()
	dbs := make([]corpusDB, rd.NumDBs())
	for i := range dbs {
		cat, err := rd.Catalog(i)
		if err != nil {
			return nil, corpus.Meta{}, err
		}
		dbs[i].db = cat.DB()
		if dbs[i].single, _, err = cat.SingleTable(); err != nil {
			return nil, corpus.Meta{}, err
		}
		if dbs[i].examples, err = workload.Materialize(cat.Examples()); err != nil {
			return nil, corpus.Meta{}, err
		}
	}
	return dbs, rd.Meta(), nil
}

// timeOps calls op(0..n-1) and reads the clock every chunk calls.
func timeOps(n, chunk int, op func(i int) error) ([]time.Duration, error) {
	var out []time.Duration
	t := time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return nil, err
		}
		if (i+1)%chunk == 0 {
			now := time.Now()
			out = append(out, now.Sub(t))
			t = now
		}
	}
	return out, nil
}

// perOpMs is a leg's typical time per operation: the median chunk
// divided by the chunk size.
func perOpMs(chunks []time.Duration, chunk int) float64 {
	return percentile(sortedMs(chunks), 0.5) / float64(chunk)
}

// corpusWrite is the write leg's measurements.
type corpusWrite struct {
	chunks []time.Duration
	close  time.Duration
	total  time.Duration // first append to Close returned; fsync and rename excluded
	bytes  int64
}

// writeCorpus writes per examples for each database (its labelled
// examples over and over) through the public writer, published the way
// corpus.WriteFile publishes.
func writeCorpus(path string, dbs []corpusDB, meta corpus.Meta, per, chunk int) (*corpusWrite, error) {
	res := &corpusWrite{}
	err := ckptio.WriteFileAtomic(path, func(f io.Writer) error {
		start := time.Now()
		w, err := corpus.NewWriter(f, meta)
		if err != nil {
			return err
		}
		res.chunks, err = timeOps(per*len(dbs), chunk, func(i int) error {
			d := &dbs[i/per]
			if i%per == 0 {
				if err := w.BeginDB(d.db); err != nil {
					return err
				}
				if err := w.WriteSingleTable(d.single); err != nil {
					return err
				}
			}
			return w.AppendExample(d.examples[i%per%len(d.examples)])
		})
		if err != nil {
			return err
		}
		t := time.Now()
		err = w.Close()
		res.close, res.total = time.Since(t), time.Since(start)
		return err
	})
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res.bytes = fi.Size()
	return res, nil
}

// openCorpus is what a reader of the big file pays before its first
// example: Open (trailer, footer index) and every database decoded.
func openCorpus(path string) (rd *corpus.Reader, open, catalogs time.Duration, err error) {
	t := time.Now()
	if rd, err = corpus.Open(path); err != nil {
		return nil, 0, 0, err
	}
	open = time.Since(t)
	t = time.Now()
	for i := 0; i < rd.NumDBs(); i++ {
		cat, err := rd.Catalog(i)
		if err != nil {
			rd.Close()
			return nil, 0, 0, err
		}
		cat.DB()
	}
	return rd, open, time.Since(t), nil
}

// readCorpus reads the examples order[...] names (global indices, per
// examples per database) with `readers` goroutines, each taking a
// contiguous share of order. check, when non-nil, sees every example.
func readCorpus(rd *corpus.Reader, order []int, per, readers, chunk int, check func(i int, lq *workload.LabeledQuery)) (chunks []time.Duration, wall time.Duration, err error) {
	sets := make([]*corpus.ExampleSet, rd.NumDBs())
	for i := range sets {
		if sets[i], err = rd.Examples(i); err != nil {
			return nil, 0, err
		}
	}
	parts := make([][]time.Duration, readers)
	errs := make([]error, readers)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := order[g*len(order)/readers : (g+1)*len(order)/readers]
			parts[g], errs[g] = timeOps(len(mine), chunk, func(k int) error {
				lq, err := sets[mine[k]/per].Example(mine[k] % per)
				if err == nil && check != nil {
					check(mine[k], lq)
				}
				return err
			})
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return slices.Concat(parts...), wall, nil
}

// legPeakMB runs one leg and returns the peak resident set it reached:
// the heap is returned to the OS and the kernel's high-water mark reset
// first, so the peak is the leg's own and not its predecessors'.
func legPeakMB(leg func() error) (float64, error) {
	debug.FreeOSMemory()
	//mtmlf:allow:atomicwrite a procfs control file, not an artifact: writing 5 resets this process's VmHWM
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset VmHWM: %w", err)
	}
	if err := leg(); err != nil {
		return 0, err
	}
	return peakRSSMB(os.Getpid())
}

func runCorpusIO(r *run) error {
	t0 := time.Now()
	fleet := r.path("fleet.mtc")
	if _, err := r.fleetCorpus(fleet); err != nil {
		return err
	}
	dbs, meta, err := loadFleet(fleet)
	if err != nil {
		return err
	}
	r.fixture = time.Since(t0)

	// A round takes about a second on the reference box.
	per, opens, rounds := corpusPerDB, 3, max(3, int(math.Round(r.measured().Seconds())))
	if r.opts.smoke {
		per, opens, rounds = 2*corpusChunk, 2, 1
	}
	n := per * len(dbs)
	big := r.path("big.mtc")

	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	shuffled := rand.New(rand.NewSource(r.seed)).Perm(n)
	// The oracle: the first, middle and last example must read back equal
	// to what was appended.
	var mu sync.Mutex
	mismatched := 0
	check := func(i int, lq *workload.LabeledQuery) {
		if i != 0 && i != n/2 && i != n-1 {
			return
		}
		want := dbs[i/per].examples[i%per%len(dbs[i/per].examples)]
		if !reflect.DeepEqual(lq, want) {
			mu.Lock()
			mismatched++
			mu.Unlock()
		}
	}

	// The corpus is written and read round after round, the legs taking
	// turns; a leg reports the steady value of its rounds.
	var peaks, setupS, openMs, catalogMs []float64
	var walls, opMs [3][]float64 // seconds, and ms per operation, per leg and round
	var bytesWritten int64
	var rd *corpus.Reader
	defer func() {
		if rd != nil {
			rd.Close()
		}
	}()
	leg := func(i int, f func() ([]time.Duration, time.Duration, error)) error {
		var chunks []time.Duration
		var wall time.Duration
		peak, err := legPeakMB(func() (err error) {
			chunks, wall, err = f()
			return err
		})
		if err != nil {
			return err
		}
		walls[i] = append(walls[i], wall.Seconds())
		opMs[i] = append(opMs[i], perOpMs(chunks, corpusChunk))
		peaks = append(peaks, peak)
		return nil
	}
	for round := 0; round < rounds; round++ {
		if rd != nil {
			rd.Close()
		}
		err := leg(0, func() ([]time.Duration, time.Duration, error) {
			wr, err := writeCorpus(big, dbs, meta, per, corpusChunk)
			if err != nil {
				return nil, 0, err
			}
			bytesWritten = wr.bytes
			return wr.chunks, wr.total, nil
		})
		if err != nil {
			return err
		}
		for i := 0; i < opens; i++ {
			if rd != nil {
				rd.Close()
			}
			var open, cats time.Duration
			if rd, open, cats, err = openCorpus(big); err != nil {
				return err
			}
			setupS = append(setupS, (open + cats).Seconds())
			openMs, catalogMs = append(openMs, ms(open)), append(catalogMs, ms(cats))
		}
		err = leg(1, func() ([]time.Duration, time.Duration, error) {
			return readCorpus(rd, seq, per, 1, corpusChunk, check)
		})
		if err != nil {
			return err
		}
		err = leg(2, func() ([]time.Duration, time.Duration, error) {
			return readCorpus(rd, shuffled, per, clients, corpusChunk, check)
		})
		if err != nil {
			return err
		}
		r.attempted += 3 * n
	}
	if mismatched > 0 {
		r.logf("oracle: %d of the examples checked read back different from what was appended", mismatched)
		r.failed = mismatched
	}
	wall := [3]float64{steady(walls[0], false), steady(walls[1], false), steady(walls[2], false)}
	r.logf("%d rounds of %d examples, %.1f MB: write %.0f ms, seq %.0f ms, shuffled %.0f ms a round", len(walls[0]), n, float64(bytesWritten)/1e6,
		1000*wall[0], 1000*wall[1], 1000*wall[2])

	if !r.opts.trace {
		r.set("setup_s", median(setupS))
		for i, l := range []string{"a", "b", "c"} {
			r.set("rate_"+l, float64(n)/wall[i])
			r.set("op_ms_"+l, steady(opMs[i], false))
		}
		r.set("peak_rss_mb", median(peaks))
		return nil
	}

	// Traced: one more round with the clock read around every single
	// operation; the chunked rounds above are the untraced reference.
	wr1, err := writeCorpus(r.path("big1.mtc"), dbs, meta, per, 1)
	if err != nil {
		return err
	}
	seq1, seqWall1, err := readCorpus(rd, seq, per, 1, 1, nil)
	if err != nil {
		return err
	}
	shuf1, shufWall1, err := readCorpus(rd, shuffled, per, clients, 1, nil)
	if err != nil {
		return err
	}
	r.attempted += 3 * n
	// One span per leg with the time inside the layer's calls as its
	// child, laid out one after another; the leg's self time is the loop
	// and the clock around them.
	at := time.Now()
	legSpan := func(leg, piece string, wall, busy time.Duration) int {
		id := r.tr.add(leg, 0, 0, at, at.Add(wall))
		r.tr.add(piece, id, 0, at, at.Add(busy))
		at = at.Add(wall)
		return id
	}
	w := legSpan("corpus.write", "corpus.append", wr1.total, sum(wr1.chunks))
	r.tr.add("corpus.close", w, 0, at.Add(-wr1.close), at)
	legSpan("corpus.read.seq", "corpus.example.seq", seqWall1, sum(seq1))
	legSpan("corpus.read.shuffled", "corpus.example.shuffled", shufWall1, sum(shuf1)/clients)
	r.set("corpus.append_us", medianUs(wr1.chunks))
	r.set("corpus.close_ms", ms(wr1.close))
	r.set("corpus.open_ms", median(openMs))
	r.set("corpus.catalog_ms", median(catalogMs))
	r.set("corpus.example_us.seq", medianUs(seq1))
	r.set("corpus.example_us.shuffled", medianUs(shuf1))
	r.set("corpus.bytes_per_example", float64(bytesWritten)/float64(n))
	r.set("corpus.write_mb_s", float64(bytesWritten)/1e6/wall[0])
	r.set("corpus.read_mb_s", float64(bytesWritten)/1e6/wall[2])
	untimed, timed := wall[0]+wall[1]+wall[2], (wr1.total + seqWall1 + shufWall1).Seconds()
	r.set("bench.trace_overhead_share", float64(timed-untimed)/float64(untimed))

	// ckptio: the atomic publish on its own, 8 MiB.
	blob := make([]byte, 8<<20)
	t := time.Now()
	err = ckptio.WriteFileAtomic(r.path("blob"), func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
	if err != nil {
		return fmt.Errorf("atomic write: %w", err)
	}
	r.set("ckptio.atomic_write_mb_s", float64(len(blob))/1e6/time.Since(t).Seconds())
	return nil
}
