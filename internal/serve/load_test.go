package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/plan"
	"mtmlf/internal/workload"
)

// TestEngineShedsWhenQueueFull: with ShedOverload on and the queue at
// capacity, a submit must fast-fail with ErrOverloaded instead of
// blocking. Uses a worker-less engine so the queue deterministically
// fills (a live worker on a small machine can drain sends as fast as
// the scheduler hands them over, making a burst race flaky).
func TestEngineShedsWhenQueueFull(t *testing.T) {
	m, qs := testModel(t)
	e := newIdleEngine(t, m, Options{Sessions: 1, QueueDepth: 1, ShedOverload: true})

	queued := make(chan error, 1)
	go func() {
		// Fills the queue, then blocks awaiting a result that no
		// worker will produce; released by Close below.
		_, err := e.EstimateCard(qs[0].Q, qs[0].Plan)
		queued <- err
	}()
	waitFor(t, func() bool { return len(e.reqs) == 1 })

	if _, err := e.EstimateCard(qs[0].Q, qs[0].Plan); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit against a full queue got %v, want ErrOverloaded", err)
	}
	snap := e.Stats()
	if snap.Shed != 1 {
		t.Fatalf("stats counted %d shed, want 1", snap.Shed)
	}
	if snap.QueueDepth != 1 || snap.MaxQueue != 1 {
		t.Fatalf("stats queue %d/%d, want 1/1", snap.QueueDepth, snap.MaxQueue)
	}

	e.Close()
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued request got %v after Close, want ErrClosed", err)
	}
}

// TestEngineShedBurstServesAdmitted: a 64-way burst against a live
// depth-1 queue with shedding on. Every outcome must be either a
// bitwise-correct response or a clean ErrOverloaded — never a hang,
// a mixed result, or another error — and the shed counter must agree.
func TestEngineShedBurstServesAdmitted(t *testing.T) {
	m, qs := testModel(t)
	want := serialExpected(m, qs)
	e, err := NewEngine(m, Options{
		Sessions:     1,
		QueueDepth:   1,
		ShedOverload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const burst = 64
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		mu    sync.Mutex
		ok    int
		shed  int
	)
	start.Add(1)
	errs := make(chan error, burst)
	for g := 0; g < burst; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait() // fire the whole burst at once
			i := g % len(qs)
			res, err := e.EstimateCard(qs[i].Q, qs[i].Plan)
			switch {
			case err == nil:
				for j := range res.Nodes {
					if res.Nodes[j] != want[i].cards[j] {
						errs <- errors.New("admitted request diverged from serial")
						return
					}
				}
				mu.Lock()
				ok++
				mu.Unlock()
			case errors.Is(err, ErrOverloaded):
				mu.Lock()
				shed++
				mu.Unlock()
			default:
				errs <- err
			}
		}(g)
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ok == 0 {
		t.Fatal("every request shed; expected at least the queued one to serve")
	}
	if ok+shed != burst {
		t.Fatalf("ok %d + shed %d != %d", ok, shed, burst)
	}
	if snap := e.Stats(); snap.Shed != uint64(shed) {
		t.Fatalf("stats counted %d shed, callers saw %d", snap.Shed, shed)
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineDeadlineExpiredAtSubmit: a context whose deadline has
// already passed is rejected before the request ever queues.
func TestEngineDeadlineExpiredAtSubmit(t *testing.T) {
	m, qs := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := e.EstimateCardCtx(ctx, qs[0].Q, qs[0].Plan); !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if snap := e.Stats(); snap.DeadlineMisses != 1 {
		t.Fatalf("stats counted %d deadline misses, want 1", snap.DeadlineMisses)
	}
	// A generous deadline still serves.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := e.EstimateCardCtx(ctx2, qs[0].Q, qs[0].Plan); err != nil {
		t.Fatalf("generous deadline failed: %v", err)
	}
}

// newIdleEngine builds an Engine with zero workers so the admission
// path can be driven deterministically (requests stay queued until
// the test pulls them through admit and runRequest itself).
func newIdleEngine(t *testing.T, m *mtmlf.Model, opts Options) *Engine {
	t.Helper()
	e := newEngine(opts)
	s, err := e.lower(m)
	if err != nil {
		t.Fatal(err)
	}
	e.cur.Store(s)
	return e
}

// liveRequest builds a deadline-free card request as submit would.
func liveRequest(lq *workload.LabeledQuery) *request {
	return &request{ep: EndpointCard, q: lq.Q, p: lq.Plan, start: time.Now(), done: make(chan result, 1)}
}

// expiredRequest is liveRequest with a deadline already in the past.
func expiredRequest(lq *workload.LabeledQuery) *request {
	r := liveRequest(lq)
	r.deadline = r.start.Add(-time.Millisecond)
	return r
}

// TestEngineDeadlineRejectedAtPickup: a queued request whose deadline
// lapses before a worker picks it up is answered with ErrDeadline at
// pickup — no session, no model compute.
func TestEngineDeadlineRejectedAtPickup(t *testing.T) {
	m, qs := testModel(t)
	e := newIdleEngine(t, m, Options{Sessions: 1})

	expired := expiredRequest(qs[0])
	if e.admit(expired) {
		t.Fatal("admit accepted an expired request")
	}
	res := <-expired.done
	if !errors.Is(res.err, ErrDeadline) {
		t.Fatalf("expired request got %v, want ErrDeadline", res.err)
	}
	if snap := e.Stats(); snap.DeadlineMisses != 1 {
		t.Fatalf("stats counted %d deadline misses, want 1", snap.DeadlineMisses)
	}
}

// TestRunRequestPanicBackstop: a request that skipped Validate and
// panics in the model is answered with exactly one ErrInternal, the
// session run returns, and the next valid request on the same engine
// is still the serial answer bit for bit.
func TestRunRequestPanicBackstop(t *testing.T) {
	m, qs := testModel(t)
	want := serialExpected(m, qs)
	e := newIdleEngine(t, m, Options{Sessions: 1})
	ref := m.Reference()
	run := func(r *request) {
		t.Helper()
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			runRequest(e, ref, r)
		}()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatal("runRequest did not return")
		}
	}

	// A plan over a table the model does not know, past validation.
	bad := liveRequest(qs[0])
	bad.p = plan.LeftDeepFromOrder([]string{"no_such_table"}, plan.SeqScan, plan.HashJoin)
	run(bad)
	if res := <-bad.done; !errors.Is(res.err, ErrInternal) {
		t.Fatalf("panicking request got %v, want ErrInternal", res.err)
	}
	select {
	case res := <-bad.done:
		t.Fatalf("a second answer arrived: %+v", res)
	default:
	}

	good := liveRequest(qs[0])
	run(good)
	res := <-good.done
	if res.err != nil {
		t.Fatal(res.err)
	}
	sameFloats(t, "card after a panic", res.nodes, want[0].cards)
}

// TestEngineQueueWaitRecorded: admit stamps submit → pickup on the
// request, and a served request's wait reaches the /statsz
// queue_wait_* percentiles.
func TestEngineQueueWaitRecorded(t *testing.T) {
	m, qs := testModel(t)
	e := newIdleEngine(t, m, Options{Sessions: 1})
	const waited = 50 * time.Millisecond
	r := liveRequest(qs[0])
	r.start = r.start.Add(-waited) // as if submitted 50 ms ago
	if !e.admit(r) {
		t.Fatal("admit refused a live request")
	}
	if r.queued < waited {
		t.Fatalf("admit stamped a %v queue wait on a request submitted %v ago", r.queued, waited)
	}
	if snap := e.Stats(); snap.QueueWaitP50Ms != 0 || snap.QueueWaitP99Ms != 0 {
		t.Fatalf("queue wait reported before any request was served: %+v", snap)
	}
	e.stats.record(r.ep, time.Since(r.start), r.queued)
	snap := e.Stats()
	if want := float64(waited / time.Millisecond); snap.QueueWaitP50Ms < want || snap.QueueWaitP99Ms < want {
		t.Fatalf("queue wait p50 %.1f ms / p99 %.1f ms, want at least %.0f", snap.QueueWaitP50Ms, snap.QueueWaitP99Ms, want)
	}
}

// TestEngineReloadsMatchesStats: the lock-free Reloads read that
// /healthz, /reloadz and the SIGHUP log use agrees with Stats().Reloads
// before, between and after reloads (rejected ones included).
func TestEngineReloadsMatchesStats(t *testing.T) {
	m, _ := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	check := func(want uint64) {
		t.Helper()
		if got, snap := e.Reloads(), e.Stats().Reloads; got != want || snap != want {
			t.Fatalf("Reloads() = %d, Stats().Reloads = %d, want both %d", got, snap, want)
		}
	}
	check(0)
	for i := uint64(1); i <= 3; i++ {
		if err := e.Reload(m); err != nil {
			t.Fatal(err)
		}
		check(i)
	}
	if err := e.Reload(nil); err == nil {
		t.Fatal("nil reload accepted")
	}
	check(3)
}

// TestEngineReloadValidates: incompatible models are refused and the
// old model keeps serving.
func TestEngineReloadValidates(t *testing.T) {
	m, qs := testModel(t)
	e, err := NewEngine(m, Options{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if err := e.Reload(nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("nil reload got %v, want ErrBadRequest", err)
	}
	// A model over a structurally different database must be refused.
	otherDB := datagen.GenerateFleet(3, 1, datagen.DefaultConfig())[0]
	cfg := mtmlf.DefaultConfig()
	cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
	cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
	other := mtmlf.NewModel(cfg, otherDB, 5)
	if err := e.Reload(other); !errors.Is(err, ErrReloadMismatch) {
		t.Fatalf("cross-database reload got %v, want ErrReloadMismatch", err)
	}
	// Old model still serves.
	if _, err := e.EstimateCard(qs[0].Q, qs[0].Plan); err != nil {
		t.Fatalf("engine broken after rejected reloads: %v", err)
	}
	if snap := e.Stats(); snap.Reloads != 0 {
		t.Fatalf("rejected reloads counted: %d", snap.Reloads)
	}
}

// TestEngineReloadWhileServing is the -race drill of the ISSUE: many
// goroutines hammer the engine while another flips between two
// checkpoints. Every response must be bitwise identical to one
// model's serial answer IN FULL — a response mixing old and new
// weights would match neither — and no request may fail.
func TestEngineReloadWhileServing(t *testing.T) {
	db := datagen.SyntheticIMDB(5, 0.05)
	build := func(modelSeed, genSeed int64) *mtmlf.Model {
		cfg := mtmlf.DefaultConfig()
		cfg.Dim, cfg.Blocks, cfg.DecBlocks = 16, 1, 1
		cfg.Feat.Dim, cfg.Feat.Blocks = 16, 1
		m := mtmlf.NewModel(cfg, db, modelSeed)
		gen := workload.NewGenerator(db, genSeed)
		wcfg := workload.DefaultConfig()
		wcfg.MaxTables = 4
		if _, err := m.Feat.PretrainAllFrom(gen.GenPretrainSet(5, wcfg), 1); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := build(11, 12)
	m2 := build(21, 22)
	gen := workload.NewGenerator(db, 12)
	wcfg := workload.DefaultConfig()
	wcfg.MaxTables = 4
	qs := gen.Generate(6, wcfg)
	want1 := serialExpected(m1, qs)
	want2 := serialExpected(m2, qs)

	e, err := NewEngine(m1, Options{Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	stop := make(chan struct{})
	var reloader sync.WaitGroup
	reloader.Add(1)
	go func() {
		defer reloader.Done()
		models := [2]*mtmlf.Model{m2, m1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Reload(models[i%2]); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	eqF := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	eqS := func(got, want []string) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	const goroutines, iters = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(qs)
				lq := qs[i]
				switch (g + it) % 3 {
				case 0:
					res, err := e.EstimateCard(lq.Q, lq.Plan)
					if err != nil {
						errs <- err
						return
					}
					if !eqF(res.Nodes, want1[i].cards) && !eqF(res.Nodes, want2[i].cards) {
						errs <- errors.New("card response matches neither checkpoint (mixed weights?)")
						return
					}
				case 1:
					res, err := e.EstimateCost(lq.Q, lq.Plan)
					if err != nil {
						errs <- err
						return
					}
					if !eqF(res.Nodes, want1[i].costs) && !eqF(res.Nodes, want2[i].costs) {
						errs <- errors.New("cost response matches neither checkpoint (mixed weights?)")
						return
					}
				default:
					res, err := e.JoinOrder(lq.Q, lq.Plan)
					if err != nil {
						errs <- err
						return
					}
					if !eqS(res.Order, want1[i].order) && !eqS(res.Order, want2[i].order) {
						errs <- errors.New("join order matches neither checkpoint")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reloader.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := e.Stats()
	if snap.Requests != goroutines*iters {
		t.Fatalf("served %d requests, want %d (none may be dropped across reloads)", snap.Requests, goroutines*iters)
	}
	if snap.Errors != 0 {
		t.Fatalf("%d requests failed during reloads, want 0", snap.Errors)
	}
	if snap.Reloads == 0 {
		t.Fatal("reloader never swapped")
	}
}
