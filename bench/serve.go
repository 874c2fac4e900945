package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"runtime/debug"
	"strconv"
	"time"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/serve"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

const (
	dbScale = 0.06
	// pacedRate is part of serve_default's definition (about a third of
	// its closed-loop capacity on the reference box) and is never tuned
	// to the machine: a faster server shows as lower paced latency.
	pacedRate  = 400
	pacedLimit = 20 * time.Millisecond
)

var (
	defaultMix = mix{50, 30, 20}
	wideMix    = mix{60, 40, 0}
	servingOn  = regexp.MustCompile(`serving on (http://\S+)`)
	tiers      = []nn.Precision{nn.PrecisionF64, nn.PrecisionF32, nn.PrecisionInt8}
)

// clients is the number of load-generating callers and keep-alive
// connections: the generator shares the box with the server.
const clients = 2

// server is a booted mtmlf-serve.
type server struct {
	c    *child
	base string
	boot time.Duration // exec to first 200 on /healthz
}

// bootServer starts mtmlf-serve at its default engine flags on a
// loopback port of its choosing, with env added to its environment, and
// waits until /healthz answers 200.
func (r *run) bootServer(c *http.Client, ckpt string, prec nn.Precision, env ...string) (*server, error) {
	ch, err := r.procs.startEnv(r.ctx, env, servingOn, r.bin("mtmlf-serve"),
		"-checkpoint", ckpt, "-seed", strconv.FormatInt(r.seed, 10), "-scale", fmt.Sprint(dbScale),
		"-addr", "127.0.0.1:0", "-precision", prec.String())
	if err != nil {
		return nil, err
	}
	base, err := ch.await()
	if err != nil {
		return nil, err
	}
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz answered %d after %q was logged", resp.StatusCode, "serving on")
	}
	return &server{ch, base, time.Since(ch.start)}, nil
}

// finish reads the server's counters and peak memory, then stops it.
func (s *server) finish(c *http.Client) (st serve.StatsSnapshot, rssMB float64, err error) {
	defer s.c.stop()
	resp, err := c.Get(s.base + "/statsz")
	if err != nil {
		return st, 0, fmt.Errorf("statsz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, 0, fmt.Errorf("statsz: %w", err)
	}
	rssMB, err = peakRSSMB(s.c.cmd.Process.Pid)
	return st, rssMB, err
}

// oracle computes, serially and in-process from the same weights, the
// answer the server must have given.
type oracle struct {
	pool    *pool
	model   *mtmlf.Model
	lowered *mtmlf.LoweredModel // nil at f64
	corrupt bool
	want    map[pick][]byte
}

func newOracle(p *pool, m *mtmlf.Model, prec nn.Precision, corrupt bool) *oracle {
	o := &oracle{pool: p, model: m, corrupt: corrupt, want: map[pick][]byte{}}
	if prec != nn.PrecisionF64 {
		o.lowered = m.Lower(prec)
	}
	return o
}

// expected returns the JSON the server should have sent for pk: the
// whole body for an estimate, the order alone for a join order (the
// serial entry point returns nothing else).
func (o *oracle) expected(pk pick) ([]byte, error) {
	if b, ok := o.want[pk]; ok {
		return b, nil
	}
	q, pl := o.pool.queries[pk.item], o.pool.plans[pk.item]
	lq := &workload.LabeledQuery{Q: q, Plan: pl}
	var v any
	switch {
	case pk.ep == epJoinOrder && o.lowered != nil:
		v = o.lowered.InferJoinOrder(q, pl)
	case pk.ep == epJoinOrder:
		v = o.model.InferJoinOrder(q, pl)
	default:
		var nodes []float64
		switch {
		case o.lowered != nil && pk.ep == epCard:
			nodes = o.lowered.EstimateNodeCards(lq)
		case o.lowered != nil:
			nodes = o.lowered.EstimateNodeCosts(lq)
		case pk.ep == epCard:
			nodes = o.model.EstimateNodeCards(lq)
		default:
			nodes = o.model.EstimateNodeCosts(lq)
		}
		if o.corrupt {
			nodes[0]++
		}
		v = serve.EstimateJSON{Nodes: nodes, Root: nodes[len(nodes)-1], Plan: pl.String()}
	}
	b, err := json.Marshal(v)
	if err == nil {
		o.want[pk] = b
	}
	return b, err
}

// mismatches counts sampled responses that differ, after a JSON round
// trip, from the oracle's answer: estimates bit for bit, join orders
// table by table.
func (o *oracle) mismatches(samples []sampled) (int, error) {
	bad := 0
	for _, s := range samples {
		want, err := o.expected(s.pick)
		if err != nil {
			return 0, err
		}
		got := bytes.TrimSpace(s.body)
		if s.ep == epJoinOrder {
			var jo serve.JoinOrderJSON
			if err := json.Unmarshal(s.body, &jo); err != nil {
				bad++
				continue
			}
			if got, err = json.Marshal(jo.Order); err != nil {
				return 0, err
			}
		}
		if !bytes.Equal(got, want) {
			bad++
		}
	}
	return bad, nil
}

func loadModel(path string, db *sqldb.DB) (*mtmlf.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, err := mtmlf.LoadModel(f, db)
	return m, err
}

// warm is the discarded closed-loop run before a server's first timed
// stretch.
func (r *run) warm(c *http.Client, s *server, p *pool, m mix) {
	d := 1500 * time.Millisecond
	if r.opts.smoke {
		d = 100 * time.Millisecond
	}
	newStream(s.base, p, m, r.seed+1, clients).closed(c, d)
}

// count adds a leg's operations, and its sampled answers the oracle
// rejects, to the run's totals.
func (r *run) count(o *oracle, legs ...*legResult) error {
	for _, l := range legs {
		w := l.whole()
		bad, err := o.mismatches(w.samples)
		if err != nil {
			return err
		}
		if bad > 0 {
			r.logf("oracle: %d of %d sampled answers differ from the serial in-process answer", bad, len(w.samples))
		}
		r.attempted += w.attempted
		r.failed += w.failed + bad
	}
	return nil
}

func runServeDefault(r *run) error {
	c := newClient(clients)
	queries, epochs, nBoots := "64", "2", 7
	if r.opts.smoke {
		queries, epochs, nBoots = "24", "1", 2
	}

	t0 := time.Now()
	ckpt := r.path("default.ckpt")
	tr, err := r.procs.start(r.ctx, nil, r.bin("mtmlf-train"), "-queries", queries, "-epochs", epochs,
		"-scale", fmt.Sprint(dbScale), "-seed", strconv.FormatInt(r.seed, 10), "-save", ckpt)
	if err != nil {
		return err
	}
	if err := tr.wait(); err != nil {
		return err
	}
	db := datagen.SyntheticIMDB(r.seed, dbScale)
	p, err := buildPool(db, r.seed+2000, poolSize)
	if err != nil {
		return err
	}
	r.fixture = time.Since(t0)

	// Set-up is booting the server; the last boot stays up for the legs.
	var boots []float64 // seconds
	var s *server
	for i := 0; i < nBoots; i++ {
		if s != nil {
			s.c.stop()
		}
		if s, err = r.bootServer(c, ckpt, nn.PrecisionF64); err != nil {
			return err
		}
		boots = append(boots, s.boot.Seconds())
	}
	r.warm(c, s, p, defaultMix)
	closedStream := newStream(s.base, p, defaultMix, r.seed, clients)
	pacedStream := newStream(s.base, p, defaultMix, r.seed+2, clients)
	legs := rounds(r.measured(),
		func(d time.Duration) *stretch { return closedStream.closed(c, d) },
		func(d time.Duration) *stretch { return pacedStream.paced(c, pacedRate, d, pacedLimit) })
	closed, paced := legs[0], legs[1]
	st, rss, err := s.finish(c)
	if err != nil {
		return err
	}

	m, err := loadModel(ckpt, db)
	if err != nil {
		return err
	}
	if err := r.count(newOracle(p, m, nn.PrecisionF64, r.opts.corruptOracle), closed, paced); err != nil {
		return err
	}
	cw, pw := closed.whole(), paced.whole()
	r.logf("%d rounds: closed %d ok / %d, paced %d ok / %d (%d late), boot %.0f ms", len(closed.stretches),
		cw.attempted-cw.failed, cw.attempted, pw.attempted-pw.failed, pw.attempted, pw.late, 1000*median(boots))

	if !r.opts.trace {
		r.set("setup_s", median(boots))
		r.set("rate_a", closed.rate(nil))
		r.set("op_ms_a", closed.latency(0.5, nil))
		r.set("rate_b", paced.perStretch(true, func(s *stretch) (float64, bool) {
			return float64(s.attempted-s.late) / s.elapsed.Seconds(), true
		}))
		r.set("op_ms_b", paced.latency(0.9, nil))
		r.set("rate_c", closed.rate(onEndpoint(epJoinOrder)))
		r.set("op_ms_c", closed.latency(0.5, onEndpoint(epJoinOrder)))
		r.set("peak_rss_mb", rss)
		return nil
	}
	r.setLoadgen(closed)
	r.set("loadgen.achieved_rps", paced.perStretch(true, func(s *stretch) (float64, bool) {
		return float64(s.attempted) / s.elapsed.Seconds(), true
	}))
	r.set("loadgen.max_lag_ms", ms(pw.maxLag))
	r.set("loadgen.late_share", float64(pw.late)/float64(pw.attempted))
	r.set("serve.boot_ms", 1000*median(boots))
	r.setStatsz(st, rss)
	return r.traceServe(ckpt, m, p, defaultMix, []nn.Precision{nn.PrecisionF64})
}

// wideMemLimit is the GOMEMLIMIT each serve_wide server is started under.
// A server that has just read the 128 MB checkpoint keeps over 700 MB
// resident at the runtime's defaults, three of them over 2 GB, and on the
// reference box memory past the first 1.5 GB or so is several times
// slower to touch; under the limit the runtime returns what loading left
// behind and a booted server holds under 200 MB.
const wideMemLimit = "GOMEMLIMIT=320MiB"

func runServeWide(r *run) error {
	c := newClient(clients)
	dim := 128
	if r.opts.smoke {
		dim = 48
	}

	t0 := time.Now()
	db := datagen.SyntheticIMDB(r.seed, dbScale)
	ckpt := r.path("wide.ckpt")
	// The model is dropped once saved and read back for the oracle when the
	// servers are gone: held meanwhile, it would add 700 MB to the memory
	// in use while the rates are measured.
	err := func() error {
		cfg := mtmlf.PaperConfig()
		cfg.Dim, cfg.Feat.Dim = dim, dim
		return mtmlf.SaveFile(ckpt, mtmlf.NewModel(cfg, db, r.seed))
	}()
	if err != nil {
		return err
	}
	debug.FreeOSMemory()
	p, err := buildPool(db, r.seed+2000, poolSize)
	if err != nil {
		return err
	}
	r.fixture = time.Since(t0)

	// All three servers are up at once and take turns under load, stretch
	// by stretch: an idle server uses no processor, and every tier's
	// stretches span the whole run.
	servers := make([]*server, len(tiers))
	var boots []float64 // seconds
	var turns []func(time.Duration) *stretch
	for i, prec := range tiers {
		s, err := r.bootServer(c, ckpt, prec, wideMemLimit)
		if err != nil {
			return err
		}
		servers[i] = s
		boots = append(boots, s.boot.Seconds())
		r.warm(c, s, p, wideMix)
		// Every tier is sent the same request sequence.
		st := newStream(s.base, p, wideMix, r.seed, clients)
		turns = append(turns, func(d time.Duration) *stretch { return st.closed(c, d) })
	}
	res := rounds(r.measured(), turns...)
	peaks := make([]float64, len(tiers))
	stats := make([]serve.StatsSnapshot, len(tiers))
	for i, prec := range tiers {
		if stats[i], peaks[i], err = servers[i].finish(c); err != nil {
			return err
		}
		w := res[i].whole()
		r.logf("%s: %d stretches, %d ok / %d, boot %.0f ms, rss %.0f MB", prec, len(res[i].stretches), w.attempted-w.failed, w.attempted, 1000*boots[i], peaks[i])
	}

	m, err := loadModel(ckpt, db)
	if err != nil {
		return err
	}
	for i, prec := range tiers {
		if err := r.count(newOracle(p, m, prec, r.opts.corruptOracle), res[i]); err != nil {
			return err
		}
	}
	if !r.opts.trace {
		r.set("setup_s", median(boots))
		for i, leg := range []string{"a", "b", "c"} {
			r.set("rate_"+leg, res[i].rate(nil))
			r.set("op_ms_"+leg, res[i].latency(0.5, nil))
		}
		r.set("peak_rss_mb", median(peaks))
		return nil
	}
	for i, prec := range tiers {
		r.set("serve.boot_ms"+tierSuffix(prec), 1000*boots[i])
		if prec != nn.PrecisionF64 {
			r.set("serve.rss_mb"+tierSuffix(prec), peaks[i])
		}
	}
	r.setLoadgen(res[0])
	r.setStatsz(stats[0], peaks[0])
	if err := r.traceServe(ckpt, m, p, wideMix, tiers); err != nil {
		return err
	}
	r.traceKernels()
	return nil
}

// tierSuffix is "" for the f64 reference and ".f32" / ".int8" otherwise.
func tierSuffix(p nn.Precision) string {
	if p == nn.PrecisionF64 {
		return ""
	}
	return "." + p.String()
}

// setLoadgen reports the harness's own tail numbers for a closed leg,
// over every answer of the leg.
func (r *run) setLoadgen(l *legResult) {
	all := l.whole().latencies(nil)
	r.set("loadgen.p90_ms", percentile(all, 0.9))
	r.set("loadgen.p99_ms", percentile(all, 0.99))
	r.set("loadgen.p99_n", float64(len(all)))
}

// setStatsz reports the server's own counters after its legs.
func (r *run) setStatsz(st serve.StatsSnapshot, rss float64) {
	r.set("serve.avg_batch", st.AvgBatch)
	r.set("serve.pool_reuse_rate", st.Pool.ReuseRate)
	r.set("serve.shed", float64(st.Shed))
	r.set("serve.deadline_misses", float64(st.DeadlineMisses))
	r.set("serve.errors", float64(st.Errors))
	r.set("serve.rss_mb", rss)
}
