// Package serve is the concurrent inference engine over the mtmlf
// no-grad fast path — the layer a DBMS would call (or front with the
// mtmlf-serve HTTP server) to consume a pretrained full-model
// checkpoint, and the layer mtmlf-loadgen is built to saturate.
//
// Architecture: a bounded pool of session workers, each owning one
// inference session per batch (one ag.Session checked out of the
// process-wide pool via ag.Acquire, released — and with it every
// pooled tensor — when the batch completes). Requests funnel
// through one bounded queue; a worker blocks only for its first
// request, then takes whatever is already queued (up to MaxBatch-1
// more, never waiting) and serves them as a micro-batch — so batches
// form from backlog exactly when every session is busy, and an idle
// engine answers a lone request with no added wait. Each request's (S)
// representation runs in the batch's session; its (F) table encodings
// come from the bundle's memo — Enc_i runs once per (table, ordered
// filter list) per weight set, in the session of whichever request
// asks first, and its row is kept bit for bit (featurize/memo.go) —
// and the cardinality/cost head projections of the whole batch fuse
// into single kernel dispatches over the row-concatenated node
// representations. The kernels compute every output row independently
// with a fixed accumulation order (see tensor/matmul.go), so each
// request's slice of the fused result is BITWISE identical to a solo,
// uncached forward — concurrency, batching and the memo never perturb
// a served number (asserted by the -race equivalence tests).
//
// Admission control: the queue is the only buffer in the system. In
// the default (blocking) mode a full queue applies backpressure to
// the caller; with Options.ShedOverload a full queue fails the
// request immediately with ErrOverloaded instead — the fast-429 path
// an HTTP front end wants, because a bounded wait is worth more to a
// query optimizer than an unbounded queue (see docs/OPERATIONS.md
// for sizing guidance).
//
// Deadlines: the *Ctx request methods propagate the caller's context
// deadline (mtmlf-serve derives one from the X-Deadline-Ms header)
// into the scheduler. A request whose deadline has already expired is
// rejected with ErrDeadline at submit; a worker re-checks at pickup,
// for the first request and for every companion it drains, so compute
// is never spent on an answer nobody can use.
//
// Hot reload: Reload atomically swaps in a new model for the same
// database. Each micro-batch snapshots the model pointer exactly once
// at pickup, so every response is computed entirely under one set of
// weights — in-flight batches drain on the old model while new
// batches run on the new one, with zero dropped requests (asserted by
// the -race reload test).
//
// Error boundary: the model layer panics on malformed inputs (unknown
// tables, plans that don't cover the query). Engine validates every
// request up front and returns typed errors (ErrUnknownTable,
// ErrPlanMismatch, ...) instead; a recover() backstop converts any
// surviving panic into ErrInternal so one bad request cannot take
// down the server.
package serve

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

// Options configures an Engine.
type Options struct {
	// Sessions is the number of concurrent session workers (and so the
	// maximum number of in-flight inference sessions). 0 means
	// GOMAXPROCS.
	Sessions int
	// MaxBatch is the maximum number of requests fused into one
	// micro-batch (and one session). 0 means 8; 1 disables batching.
	MaxBatch int
	// QueueDepth bounds the request queue. 0 means 4*Sessions.
	QueueDepth int
	// ShedOverload selects the admission policy for a full queue:
	// false (default) blocks the caller until a slot frees
	// (backpressure — the right call for in-process embedding), true
	// fails fast with ErrOverloaded (the right call for an HTTP front
	// end, which maps it to 429).
	ShedOverload bool
	// Precision selects the serving tier (DESIGN.md §9). The zero
	// value serves the float64 reference path; PrecisionF32 and
	// PrecisionInt8 serve a lowered replica built at engine
	// construction (and rebuilt on every Reload). Reduced tiers trade
	// calibrated accuracy — q-error budgets enforced by internal/calib
	// — for throughput and resident bytes; join orders are decoded at
	// f64 in every tier.
	Precision nn.Precision
}

func (o Options) withDefaults() Options {
	if o.Sessions <= 0 {
		o.Sessions = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 8
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Sessions
	}
	return o
}

// Endpoint identifies one of the three serving APIs in stats.
type Endpoint int

// Endpoints.
const (
	EndpointCard Endpoint = iota
	EndpointCost
	EndpointJoinOrder
	numEndpoints
)

// String implements fmt.Stringer.
func (ep Endpoint) String() string {
	switch ep {
	case EndpointCard:
		return "card"
	case EndpointCost:
		return "cost"
	default:
		return "joinorder"
	}
}

// Estimate is a cardinality or cost answer: one value per plan node
// in post-order (aligned with plan.Node.Nodes()), Root being the
// whole-plan value.
type Estimate struct {
	Nodes []float64
	Root  float64
}

// JoinOrderResult is a join-order answer.
type JoinOrderResult struct {
	// Order lists the tables in predicted join sequence.
	Order []string
	// LogProb is the sequence log-probability under the model.
	LogProb float64
	// Legal reports whether every prefix is connected in the query's
	// join graph (always true for the constrained search unless the
	// query itself is disconnected).
	Legal bool
}

type result struct {
	nodes []float64
	order JoinOrderResult
	err   error
}

type request struct {
	ep    Endpoint
	q     *sqldb.Query
	p     *plan.Node
	start time.Time
	// deadline is the wall-clock point after which the answer is
	// useless to the caller; zero means none. Checked at submit and
	// re-checked at batch admission.
	deadline time.Time
	// queued is the submit → pickup wait, set by the worker in admit
	// before it answers on done (which orders the caller's read).
	queued time.Duration
	done   chan result
}

// expired reports whether the request's deadline has passed at now.
func (r *request) expired(now time.Time) bool {
	return !r.deadline.IsZero() && !now.Before(r.deadline)
}

// served bundles everything one micro-batch needs to be consistent: the
// inference form at the engine's tier — exactly one of f64 (a view of a
// model's own weights) and f32 (an f32 or int8-weight replica) — and
// the schema and limit requests are validated against. No *mtmlf.Model:
// a replica streamed from a checkpoint never had one. A reload builds a
// fresh bundle and swaps the one pointer, so a batch that snapshotted
// the old bundle finishes on it. The inference form is the memoizing
// copy: the bundle's weights never change, so it owns the table
// encodings computed from them, and they go when it goes.
type served struct {
	db        *sqldb.DB
	maxTables int
	f64       *mtmlf.Lowered[float64]
	f32       *mtmlf.LoweredModel
	// load is how the bundle came to be, for /statsz.
	load LoadStats
}

// describe fills in what the bundle reads off its inference form and
// applies the one limit a bundle can violate by itself.
func describe[T tensor.Float](s *served, lm *mtmlf.Lowered[T]) error {
	s.db, s.maxTables, s.load.ParamBytes = lm.DB(), lm.Cfg.MaxTables, lm.ParamBytes()
	if n := len(s.db.Tables); n > s.maxTables {
		return fmt.Errorf("%w: database has %d tables, model supports %d", ErrModelLimit, n, s.maxTables)
	}
	return nil
}

// lower builds the bundle for an in-memory model: its inference form at
// the engine's tier, with a fresh memo counting into the engine's stats.
func (e *Engine) lower(m *mtmlf.Model) (*served, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadRequest)
	}
	c := &e.stats.featMemo
	s := &served{}
	if p := e.opts.Precision; p != nn.PrecisionF64 {
		t0 := time.Now()
		s.f32 = m.Lower(p).Memoized(c)
		s.load.LowerMs = millis(time.Since(t0))
		return s, describe(s, s.f32)
	}
	s.f64 = m.Reference().Memoized(c)
	return s, describe(s, s.f64)
}

// load builds the bundle for a checkpoint stream with the loader the
// engine's tier selects: the float64 model at f64, the replica alone at
// a reduced tier (mtmlf.LoadLowered).
func (e *Engine) load(r io.Reader, db *sqldb.DB) (*served, *mtmlf.CheckpointInfo, error) {
	var s *served
	var info *mtmlf.CheckpointInfo
	t0 := time.Now()
	if p := e.opts.Precision; p != nn.PrecisionF64 {
		lm, i, err := mtmlf.LoadLowered(r, db, p, time.Now)
		if err != nil {
			return nil, nil, err
		}
		s, info = &served{f32: lm.Memoized(&e.stats.featMemo)}, i
		if err := describe(s, s.f32); err != nil {
			return nil, nil, err
		}
	} else {
		m, i, err := mtmlf.LoadModel(r, db)
		if err != nil {
			return nil, nil, err
		}
		if s, err = e.lower(m); err != nil {
			return nil, nil, err
		}
		info = i
	}
	s.load.Version, s.load.Tensors, s.load.Bytes = info.Version, info.Tensors, info.Bytes
	s.load.LoadMs, s.load.LowerMs = millis(time.Since(t0)-info.LowerTime), millis(info.LowerTime)
	return s, info, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memoRows returns the number of table encodings the bundle holds.
func (s *served) memoRows() int {
	if s.f32 != nil {
		return s.f32.Feat.MemoRows()
	}
	return s.f64.Feat.MemoRows()
}

// Engine is the concurrent serving front end over one hot-swappable
// model. Safe for concurrent use by any number of goroutines.
type Engine struct {
	// cur is the currently served model bundle. Workers snapshot it
	// once per micro-batch, so a Reload never mixes weights inside one
	// response (or one batch).
	cur   atomic.Pointer[served]
	opts  Options
	reqs  chan *request
	stats *stats

	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once
}

// NewEngine starts Sessions workers over the model. The model's
// weights are read-only from here on: training concurrently with
// serving is a data race. Replace the model with Reload.
func NewEngine(m *mtmlf.Model, opts Options) (*Engine, error) {
	e := newEngine(opts)
	s, err := e.lower(m)
	if err != nil {
		return nil, err
	}
	return e.start(s), nil
}

// Open is NewEngine over a full-model checkpoint stream for db, read at
// opts.Precision — how a server boots, and at a reduced tier at the
// size of its replica: the float64 model is never built (load).
func Open(r io.Reader, db *sqldb.DB, opts Options) (*Engine, *mtmlf.CheckpointInfo, error) {
	e := newEngine(opts)
	s, info, err := e.load(r, db)
	if err != nil {
		return nil, nil, err
	}
	return e.start(s), info, nil
}

func newEngine(opts Options) *Engine {
	opts = opts.withDefaults()
	return &Engine{
		opts:  opts,
		reqs:  make(chan *request, opts.QueueDepth),
		stats: newStats(opts.Sessions),
		quit:  make(chan struct{}),
	}
}

func (e *Engine) start(s *served) *Engine {
	e.cur.Store(s)
	e.wg.Add(e.opts.Sessions)
	for i := 0; i < e.opts.Sessions; i++ {
		go e.worker()
	}
	return e
}

// Reload atomically swaps in a new model. The new model must serve
// the same database (same table list, in order) as the current one:
// queued requests were validated against that schema and must stay
// valid under the new weights. In-flight micro-batches finish on the
// old model; batches picked up after Reload returns run entirely on
// the new one. No request is ever dropped or served from a mix.
func (e *Engine) Reload(m *mtmlf.Model) error {
	// Lowered before the swap: the engine's precision is fixed at
	// construction, so the new weights must arrive already lowered.
	s, err := e.lower(m)
	if err != nil {
		return err
	}
	return e.swap(s)
}

// ReloadFrom is Reload from a checkpoint stream, through the loader
// Open used. The new bundle is complete, every tensor verified, before
// the swap: a file that fails anywhere leaves the old bundle serving,
// and the process peaks at the old bundle plus the new one.
func (e *Engine) ReloadFrom(r io.Reader) (*mtmlf.CheckpointInfo, error) {
	s, info, err := e.load(r, e.DB())
	if err != nil {
		return nil, err
	}
	return info, e.swap(s)
}

func (e *Engine) swap(s *served) error {
	if err := sameTables(e.DB(), s.db); err != nil {
		return err
	}
	e.cur.Store(s)
	e.stats.recordReload()
	return nil
}

// sameTables checks that two databases expose the identical table
// list (the reload compatibility contract).
func sameTables(old, new *sqldb.DB) error {
	if old.Name != new.Name {
		return fmt.Errorf("%w: checkpoint is for database %q, serving %q", ErrReloadMismatch, new.Name, old.Name)
	}
	if len(old.Tables) != len(new.Tables) {
		return fmt.Errorf("%w: checkpoint has %d tables, serving %d", ErrReloadMismatch, len(new.Tables), len(old.Tables))
	}
	for i := range old.Tables {
		if old.Tables[i].Name != new.Tables[i].Name {
			return fmt.Errorf("%w: table %d is %q in checkpoint, %q in serving schema",
				ErrReloadMismatch, i, new.Tables[i].Name, old.Tables[i].Name)
		}
	}
	return nil
}

// Precision returns the serving tier the engine was built with.
func (e *Engine) Precision() nn.Precision { return e.opts.Precision }

// LoweredParamBytes returns the resident parameter bytes of whatever
// is actually answering requests: the lowered replica at reduced
// precision, the float64 inference view (and the Trans_JO decoder every
// tier shares) otherwise.
func (e *Engine) LoweredParamBytes() int { return e.cur.Load().load.ParamBytes }

// DB returns the served database schema (read-only; stable across
// reloads by the Reload contract).
func (e *Engine) DB() *sqldb.DB { return e.cur.Load().db }

// Close stops the workers. In-flight requests finish; subsequent
// calls return ErrClosed.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.quit) })
	e.wg.Wait()
}

// EstimateCard predicts the cardinality of every node of plan p for
// query q (post-order; Root is the result-size estimate).
func (e *Engine) EstimateCard(q *sqldb.Query, p *plan.Node) (*Estimate, error) {
	return e.EstimateCardCtx(context.Background(), q, p)
}

// EstimateCost predicts the cumulative cost of every node of plan p.
func (e *Engine) EstimateCost(q *sqldb.Query, p *plan.Node) (*Estimate, error) {
	return e.EstimateCostCtx(context.Background(), q, p)
}

// JoinOrder predicts the join order for q via legality-constrained
// beam search over the leaf representations of p.
func (e *Engine) JoinOrder(q *sqldb.Query, p *plan.Node) (*JoinOrderResult, error) {
	return e.JoinOrderCtx(context.Background(), q, p)
}

// EstimateCardCtx is EstimateCard with the context's deadline
// propagated into the scheduler: expired work is rejected with
// ErrDeadline instead of computed.
func (e *Engine) EstimateCardCtx(ctx context.Context, q *sqldb.Query, p *plan.Node) (*Estimate, error) {
	return e.estimate(ctx, EndpointCard, q, p)
}

// EstimateCostCtx is EstimateCost with deadline propagation.
func (e *Engine) EstimateCostCtx(ctx context.Context, q *sqldb.Query, p *plan.Node) (*Estimate, error) {
	return e.estimate(ctx, EndpointCost, q, p)
}

// JoinOrderCtx is JoinOrder with deadline propagation.
func (e *Engine) JoinOrderCtx(ctx context.Context, q *sqldb.Query, p *plan.Node) (*JoinOrderResult, error) {
	res, err := e.submit(ctx, EndpointJoinOrder, q, p)
	if err != nil {
		return nil, err
	}
	return &res.order, nil
}

func (e *Engine) estimate(ctx context.Context, ep Endpoint, q *sqldb.Query, p *plan.Node) (*Estimate, error) {
	res, err := e.submit(ctx, ep, q, p)
	if err != nil {
		return nil, err
	}
	return &Estimate{Nodes: res.nodes, Root: res.nodes[len(res.nodes)-1]}, nil
}

// submit validates, admits, and awaits one request. Admission is
// where overload and dead-on-arrival work is rejected — before any
// model compute is spent on it.
func (e *Engine) submit(ctx context.Context, ep Endpoint, q *sqldb.Query, p *plan.Node) (result, error) {
	if err := e.Validate(q, p); err != nil {
		e.stats.recordError()
		return result{}, err
	}
	r := &request{ep: ep, q: q, p: p, start: time.Now(), done: make(chan result, 1)}
	if dl, ok := ctx.Deadline(); ok {
		r.deadline = dl
		if r.expired(r.start) {
			e.stats.recordDeadlineMiss()
			return result{}, fmt.Errorf("%w: deadline expired before admission", ErrDeadline)
		}
	}
	if e.opts.ShedOverload {
		select {
		case e.reqs <- r:
		case <-e.quit:
			return result{}, ErrClosed
		default:
			e.stats.recordShed()
			return result{}, fmt.Errorf("%w: queue full (%d deep)", ErrOverloaded, e.opts.QueueDepth)
		}
	} else {
		select {
		case e.reqs <- r:
		case <-e.quit:
			return result{}, ErrClosed
		case <-ctx.Done():
			e.stats.recordDeadlineMiss()
			return result{}, fmt.Errorf("%w: %v while queued", ErrDeadline, ctx.Err())
		}
	}
	select {
	case res := <-r.done:
		if res.err != nil {
			e.stats.recordError()
			return result{}, res.err
		}
		e.stats.record(ep, time.Since(r.start), r.queued)
		return res, nil
	case <-e.quit:
		// The engine may still complete the request; don't leave the
		// caller hanging on a closed engine.
		select {
		case res := <-r.done:
			if res.err == nil {
				return res, nil
			}
			return result{}, res.err
		default:
			return result{}, ErrClosed
		}
	}
}

// worker is one session loop: block for a request, take its queued
// companions, serve them from a freshly checked-out evaluator session.
// The model is snapshotted once per batch, so a concurrent Reload
// never splits a batch (or a response) across two weight sets.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		var first *request
		select {
		case first = <-e.reqs:
		case <-e.quit:
			return
		}
		if !e.admit(first) {
			continue
		}
		e.cur.Load().run(e, e.fill(first))
	}
}

// admit is the batch-admission deadline gate: a request that has
// already missed its deadline is answered with ErrDeadline (without
// spending a session on it) and excluded from the batch. A live one
// has its queue wait stamped here, at pickup.
func (e *Engine) admit(r *request) bool {
	now := time.Now()
	if r.expired(now) {
		e.stats.recordDeadlineMiss()
		r.done <- result{err: fmt.Errorf("%w: deadline expired in queue", ErrDeadline)}
		return false
	}
	r.queued = now.Sub(r.start)
	return true
}

// fill forms a micro-batch around first from whatever is already
// queued, up to MaxBatch. It never blocks: a batch grows past one only
// when requests arrived faster than the sessions served them, which is
// the only time fusing pays.
func (e *Engine) fill(first *request) []*request {
	batch := []*request{first}
	for len(batch) < e.opts.MaxBatch {
		select {
		case r := <-e.reqs:
			if e.admit(r) {
				batch = append(batch, r)
			}
		default:
			return batch
		}
	}
	return batch
}

// run serves one micro-batch against this bundle, at the element type
// of its tier.
func (s *served) run(e *Engine, batch []*request) {
	if s.f32 != nil {
		runBatch(e, *s.f32, batch)
	} else {
		runBatch(e, *s.f64, batch)
	}
}

// runBatch serves one micro-batch inside one inference session. The
// session (and every pooled tensor of the batch) is released at the
// end — see DESIGN.md "Session ownership".
func runBatch[T tensor.Float](e *Engine, lm mtmlf.Lowered[T], batch []*request) {
	ev := ag.Acquire[T]()
	defer ag.Release(ev)

	reps := make([]*mtmlf.Rep[T], len(batch))
	for i, r := range batch {
		reps[i] = represent(lm, ev, r)
	}
	runHeads(lm, ev, EndpointCard, batch, reps)
	runHeads(lm, ev, EndpointCost, batch, reps)
	for i, r := range batch {
		if r.ep == EndpointJoinOrder && reps[i] != nil {
			runJoinOrder(lm, r, reps[i])
		}
	}
	e.stats.recordBatch(len(batch))
}

// represent computes one request's shared representation in the
// session, converting any surviving model panic into ErrInternal
// (validation should have caught everything typed).
func represent[T tensor.Float](lm mtmlf.Lowered[T], ev *ag.Session[T], r *request) (rep *mtmlf.Rep[T]) {
	defer func() {
		if p := recover(); p != nil {
			rep = nil
			r.done <- result{err: fmt.Errorf("%w: %v", ErrInternal, p)}
		}
	}()
	return lm.RepresentInfer(ev, r.q, r.p)
}

// runHeads fuses one head over every batch request of the given kind:
// a single MLP dispatch over the row-concatenated node
// representations. Each request's rows are computed independently by
// the kernels, so its slice is bitwise identical to a solo forward.
func runHeads[T tensor.Float](lm mtmlf.Lowered[T], ev *ag.Session[T], ep Endpoint, batch []*request, reps []*mtmlf.Rep[T]) {
	var idx []int
	var ss []*tensor.Dense[T]
	for i, r := range batch {
		if r.ep == ep && reps[i] != nil {
			idx = append(idx, i)
			ss = append(ss, reps[i].S)
		}
	}
	if len(idx) == 0 {
		return
	}
	// delivered counts responses already sent; the panic backstop
	// must error only the undelivered suffix — done channels hold one
	// buffered result, so a second send to an answered request would
	// block this worker forever.
	delivered := 0
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("%w: %v", ErrInternal, p)
			for _, i := range idx[delivered:] {
				batch[i].done <- result{err: err}
			}
		}
	}()
	fused := ss[0]
	if len(ss) > 1 {
		fused = ev.ConcatRows(ss...)
	}
	head := lm.CardHead
	if ep == EndpointCost {
		head = lm.CostHead
	}
	out := head.Infer(ev, fused) // [total nodes, 1]
	row := 0
	for _, i := range idx {
		nRows := reps[i].S.Rows()
		// ExpClamp copies into a fresh slice, so no pooled memory
		// escapes the session.
		batch[i].done <- result{nodes: mtmlf.ExpClamp(out.Data[row : row+nRows])}
		delivered++
		row += nRows
	}
}

// runJoinOrder serves one join-order request from its representation:
// KV-cached constrained beam search by the float64 Trans_JO, same as
// the serial fast path. A reduced-precision
// representation's [m, Dim] memory is up-converted once first, so join
// orders are identical across tiers by construction of the decoder,
// not merely close.
func runJoinOrder[T tensor.Float](lm mtmlf.Lowered[T], r *request, rep *mtmlf.Rep[T]) {
	defer func() {
		if p := recover(); p != nil {
			r.done <- result{err: fmt.Errorf("%w: %v", ErrInternal, p)}
		}
	}()
	res := lm.JO.BeamSearchTensor(rep.Memory.ToTensor(), r.q, lm.Cfg.BeamWidth, true)
	best, ok := mtmlf.BestBeam(res)
	if !ok {
		r.done <- result{err: fmt.Errorf("%w: join graph admits no connected order", ErrNoJoinOrder)}
		return
	}
	r.done <- result{order: JoinOrderResult{
		Order:   best.OrderTables(rep.Tables),
		LogProb: best.LogProb,
		Legal:   best.Legal,
	}}
}

// Reloads returns the number of successful hot checkpoint swaps since
// boot. It is a single atomic read — what probes should call instead of
// Stats, which copies the latency rings under the lock every request
// records into.
func (e *Engine) Reloads() uint64 { return e.stats.reloads.Load() }

// Stats returns a snapshot of the engine's serving metrics.
func (e *Engine) Stats() StatsSnapshot {
	snap := e.stats.snapshot(len(e.reqs), e.opts.QueueDepth)
	snap.Precision = e.opts.Precision.String()
	cur := e.cur.Load()
	snap.FeatMemo.Rows = cur.memoRows()
	snap.Checkpoint = cur.load
	return snap
}
