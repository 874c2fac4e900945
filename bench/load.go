package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mtmlf/internal/plan"
	"mtmlf/internal/serve"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/workload"
)

// Endpoints, in the order mixes and per-endpoint results are indexed.
const (
	epCard = iota
	epCost
	epJoinOrder
	numEndpoints
)

var endpointPath = [numEndpoints]string{"/estimate/card", "/estimate/cost", "/joinorder"}
var endpointName = [numEndpoints]string{"card", "cost", "joinorder"}

// mix is the traffic mix as relative weights per endpoint.
type mix [numEndpoints]int

const (
	poolSize = 256
	zipfS    = 1.2
	// sampleEvery is how often a response body is kept for the oracle.
	sampleEvery = 16
)

// pool is the fixed set of requests load is drawn from.
type pool struct {
	bodies  [][]byte
	queries []*sqldb.Query
	plans   []*plan.Node
}

// buildPool generates n requests against db. Item i joins 2 + i%5
// tables, so the work behind each popularity rank — and with it the
// request cost under the Zipf pick — is the same for every seed; the
// seed still chooses the tables, joins and filters.
func buildPool(db *sqldb.DB, seed int64, n int) (*pool, error) {
	gen := workload.NewGenerator(db, seed)
	cfg := workload.DefaultConfig()
	p := &pool{}
	for i := 0; i < n; i++ {
		cfg.MinTables = 2 + i%5
		cfg.MaxTables = cfg.MinTables
		q := gen.GenQuery(cfg)
		pl := plan.LeftDeepFromOrder(q.Tables, plan.SeqScan, plan.HashJoin)
		body, err := json.Marshal(serve.RequestJSON{Query: serve.EncodeQuery(q), Plan: serve.EncodePlan(pl)})
		if err != nil {
			return nil, fmt.Errorf("marshal pool request %d: %w", i, err)
		}
		p.bodies = append(p.bodies, body)
		p.queries = append(p.queries, q)
		p.plans = append(p.plans, pl)
	}
	return p, nil
}

// pick is one request to send: an endpoint and a pool item.
type pick struct{ ep, item int }

// picker draws the request sequence of one client: endpoint by mix,
// item by Zipf popularity over the pool.
type picker struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	mix   mix
	total int
}

func newPicker(seed int64, m mix, n int) *picker {
	rng := rand.New(rand.NewSource(seed))
	return &picker{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), mix: m, total: m[0] + m[1] + m[2]}
}

func (p *picker) next() pick {
	k := p.rng.Intn(p.total)
	ep := epCard
	for k >= p.mix[ep] {
		k -= p.mix[ep]
		ep++
	}
	return pick{ep, int(p.zipf.Uint64())}
}

// sampled is a 200-response kept for the oracle.
type sampled struct {
	pick
	body []byte
}

// answer is one 200-response: which endpoint and how long the caller
// waited for it.
type answer struct {
	ep  int
	lat time.Duration
}

// stretch is what one uninterrupted stretch of load measured: a leg's
// turn in one round. Every 200 is kept, so percentiles are exact.
type stretch struct {
	elapsed   time.Duration // until the last request in flight returned
	attempted int
	failed    int // non-200 or transport error
	answers   []answer
	samples   []sampled
	// Paced stretches only.
	late   int           // not answered 200 within the limit of its due time
	maxLag time.Duration // how late the generator itself ran (send - due)
}

func (s *stretch) merge(o *stretch) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.late += o.late
	s.maxLag = max(s.maxLag, o.maxLag)
	s.answers = append(s.answers, o.answers...)
	s.samples = append(s.samples, o.samples...)
}

// latencies returns the sorted latencies, in ms, of the 200s that keep
// selects (nil keeps all).
func (s *stretch) latencies(keep func(answer) bool) []float64 {
	var ds []time.Duration
	for _, a := range s.answers {
		if keep == nil || keep(a) {
			ds = append(ds, a.lat)
		}
	}
	return sortedMs(ds)
}

// legResult is what a leg measured: its stretches, one per round. The
// legs of a workload take turns, a stretch each, round after round, so
// that every leg samples the whole run: a neighbour that takes the box
// for a few seconds slows a few stretches of every leg, not one leg, and
// a metric is the steady value of its stretches.
type legResult struct{ stretches []*stretch }

// rate is the leg's 200s per second: steady over its stretches of the
// answers keep selects divided by the stretch's elapsed time.
func (l *legResult) rate(keep func(answer) bool) float64 {
	return l.perStretch(true, func(s *stretch) (float64, bool) {
		n := 0
		for _, a := range s.answers {
			if keep == nil || keep(a) {
				n++
			}
		}
		return float64(n) / s.elapsed.Seconds(), true
	})
}

// latency is steady over the leg's stretches of the q-quantile, in ms,
// of the latencies keep selects; a stretch with none is left out.
func (l *legResult) latency(q float64, keep func(answer) bool) float64 {
	return l.perStretch(false, func(s *stretch) (float64, bool) {
		lat := s.latencies(keep)
		return percentile(lat, q), len(lat) > 0
	})
}

// perStretch is steady of f over the stretches f accepts.
func (l *legResult) perStretch(higherIsBetter bool, f func(*stretch) (float64, bool)) float64 {
	var vs []float64
	for _, s := range l.stretches {
		if v, ok := f(s); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return steady(vs, higherIsBetter)
}

// whole is the leg as one stretch: totals, every answer, every sample.
func (l *legResult) whole() *stretch {
	w := &stretch{}
	for _, s := range l.stretches {
		w.merge(s)
		w.elapsed += s.elapsed
	}
	return w
}

func onEndpoint(ep int) func(answer) bool { return func(a answer) bool { return a.ep == ep } }

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 4 * conns, MaxIdleConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
}

// post sends one request and returns the status and the whole body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stream is one leg's load: a server and the seeded request sequence of
// each caller, kept across the leg's stretches, so a leg sends the same
// sequence wherever the rounds cut it.
type stream struct {
	base    string
	pool    *pool
	pickers []*picker // one per caller
	sent    []int     // requests each caller has sent, for the oracle's sampling
}

func newStream(base string, p *pool, m mix, seed int64, callers int) *stream {
	s := &stream{base: base, pool: p, sent: make([]int, callers)}
	for w := 0; w < callers; w++ {
		s.pickers = append(s.pickers, newPicker(seed+int64(w)*7919, m, len(p.bodies)))
	}
	return s
}

// send issues caller w's pick, times it from `from`, and records the
// outcome in st.
func (s *stream) send(c *http.Client, st *stretch, w int, pk pick, from time.Time) (ok bool, lat time.Duration) {
	keep := s.sent[w]%sampleEvery == 0
	s.sent[w]++
	status, body, err := post(c, s.base+endpointPath[pk.ep], s.pool.bodies[pk.item])
	lat = time.Since(from)
	st.attempted++
	if err != nil || status != http.StatusOK {
		st.failed++
		return false, lat
	}
	st.answers = append(st.answers, answer{pk.ep, lat})
	if keep {
		st.samples = append(st.samples, sampled{pk, body})
	}
	return true, lat
}

// closed runs the stream's callers for dur, each waiting for a reply
// before it sends its next request. A request in flight when dur ends
// is finished and counted; elapsed covers it.
func (s *stream) closed(c *http.Client, dur time.Duration) *stretch {
	parts := make([]stretch, len(s.pickers))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				s.send(c, &parts[w], w, s.pickers[w].next(), time.Now())
			}
		}()
	}
	wg.Wait()
	res := &stretch{elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// paced issues a fixed schedule of rate requests per second for dur,
// drawn from the first caller's sequence: the callers each take the next
// due slot, wait for its due time, and send. Latency is timed from the
// due time, so a stall charges the requests queued behind it; a request
// counts as late when it is not answered 200 within limit of its due
// time.
func (s *stream) paced(c *http.Client, rate float64, dur, limit time.Duration) *stretch {
	picks := make([]pick, int(rate*dur.Seconds()))
	for i := range picks {
		picks[i] = s.pickers[0].next()
	}
	interval := time.Duration(float64(time.Second) / rate)
	parts := make([]stretch, len(s.pickers))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &parts[w]
			for {
				k := int(next.Add(1) - 1)
				if k >= len(picks) {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				time.Sleep(time.Until(due))
				st.maxLag = max(st.maxLag, time.Since(due))
				if ok, lat := s.send(c, st, w, picks[k], due); !ok || lat > limit {
					st.late++
				}
			}
		}()
	}
	wg.Wait()
	res := &stretch{elapsed: time.Since(start)}
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// stretchLen is how long a leg loads its server before the next leg
// takes its turn.
const stretchLen = 400 * time.Millisecond

// rounds shares `total` of measured time among the legs: round after
// round, each leg in turn runs one stretch of about stretchLen.
func rounds(total time.Duration, legs ...func(time.Duration) *stretch) []*legResult {
	n := max(1, int(total/(stretchLen*time.Duration(len(legs)))))
	d := total / time.Duration(n*len(legs))
	res := make([]*legResult, len(legs))
	for i := range res {
		res[i] = &legResult{}
	}
	for round := 0; round < n; round++ {
		for i, leg := range legs {
			res[i].stretches = append(res[i].stretches, leg(d))
		}
	}
	return res
}
