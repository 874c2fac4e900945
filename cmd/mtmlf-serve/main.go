// Command mtmlf-serve is the model server: it loads a versioned
// full-model checkpoint written by mtmlf-train -save (shared stack +
// task heads + join-order decoder + per-database featurizer), mounts
// the concurrent serving engine of internal/serve over the no-grad
// fast path, and exposes HTTP/JSON endpoints:
//
//	POST /estimate/card   cardinality of every plan node
//	POST /estimate/cost   cost of every plan node
//	POST /joinorder       legality-constrained beam-search join order
//	POST /reloadz         hot-swap the checkpoint from disk (no downtime)
//	GET  /healthz         readiness + served-database identity (503 while booting/draining)
//	GET  /livez           liveness: 200 whenever the process can answer at all
//	GET  /statsz          QPS, p50/p95/p99 latency, shed/deadline/reload/panic and feat_memo counters
//	GET  /example         a valid random request body to POST back
//
// The -seed/-scale flags must match the training run: the featurizer
// weights are tied to the database the checkpoint was trained on, and
// the loader verifies the table list before serving.
//
// Under load the server degrades predictably instead of queuing
// without bound: the admission queue is capped at -max-queue and a
// full queue sheds with 429 (Retry-After: 1); a request carrying an
// X-Deadline-Ms header that cannot be admitted in time is rejected
// with 504 before any model compute. See docs/OPERATIONS.md for
// sizing guidance and the full operator story.
//
// The checkpoint is read at the tier -precision names: at f32 and int8
// the replica is built straight from the file, tensor by tensor, and
// the float64 model it would have been lowered from never exists — so
// the smaller tiers boot smaller, not only serve smaller.
//
// Hot reload: SIGHUP (or POST /reloadz) re-reads the -checkpoint path
// the same way and atomically swaps the new weights in; in-flight micro-batches
// drain on the old model, so no request is dropped or served from a
// mix of old and new weights. Retrain → overwrite the checkpoint file
// → SIGHUP is the zero-downtime update loop.
//
// On SIGTERM/SIGINT the server shuts down gracefully: it flips
// /healthz to 503 so load balancers stop routing, stops accepting,
// drains in-flight requests and micro-batches, and flushes the final
// /statsz counters to the log before exiting. The same readiness
// split covers boot: the listener opens (and /livez answers 200)
// before the checkpoint is loaded, with /healthz at 503 until the
// model is actually servable.
//
// Usage:
//
//	mtmlf-train -queries 200 -save model.ckpt
//	mtmlf-serve -checkpoint model.ckpt -addr 127.0.0.1:8080
//	curl -s localhost:8080/example | curl -s -d @- localhost:8080/estimate/card
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/serve"
	"mtmlf/internal/tensor"
	"mtmlf/internal/workload"
)

// bootHandler serves the pre-load window between listen and the first
// successful checkpoint load: the process is alive (/livez 200) but
// not ready (everything else 503), so load balancers wait instead of
// routing to a server that cannot answer yet.
func bootHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/livez" {
			fmt.Fprintln(w, `{"status":"alive"}`)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"unavailable","error":"checkpoint not loaded yet"}`)
	})
}

// logLoad reports one (re)load the way /statsz will: what was read,
// what it cost, and what the bundle now keeps resident.
func logLoad(verb, path string, info *mtmlf.CheckpointInfo, e *serve.Engine) {
	ck := e.Stats().Checkpoint
	log.Printf("%s checkpoint %s: v%d, db %q (%d tables), dim %d; %d tensors, %d bytes read in %.1f ms (+ %.1f ms lowering); serving at %s: %d resident parameter bytes (f64 model: %d)",
		verb, path, info.Version, info.DBName, len(info.Tables), info.Config.Dim,
		ck.Tensors, ck.Bytes, ck.LoadMs, ck.LowerMs, e.Precision(), ck.ParamBytes, info.ParamBytes)
}

func main() {
	ckpt := flag.String("checkpoint", "", "full-model checkpoint written by mtmlf-train -save (required); /reloadz and SIGHUP re-read this path")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	seed := flag.Int64("seed", 1, "database seed; must match the training run")
	scale := flag.Float64("scale", 0.06, "database scale; must match the training run")
	sessions := flag.Int("sessions", 0, "concurrent inference sessions (0 = GOMAXPROCS)")
	maxBatch := flag.Int("maxbatch", 8, "max queued requests fused per micro-batch (1 disables batching)")
	maxQueue := flag.Int("max-queue", 0, "admission queue depth; a full queue sheds with 429 (0 = 4x sessions)")
	workers := flag.Int("workers", 0, "tensor-kernel worker pool size (0 = all cores)")
	precision := flag.String("precision", "f64", "serving tier: f64 (reference), f32, or int8 (calibrated lowered replica; see DESIGN.md §9)")
	flag.Parse()

	if *ckpt == "" {
		fmt.Fprintln(os.Stderr, "mtmlf-serve: -checkpoint is required")
		flag.Usage()
		os.Exit(2)
	}
	prec, err := nn.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtmlf-serve: %v\n", err)
		os.Exit(2)
	}
	tensor.SetParallelism(*workers)

	// Listen before the checkpoint load so orchestrators can probe the
	// process the moment it exists: /livez answers 200 (alive) and
	// /healthz 503 (not ready) until the model is servable. The real
	// handler is swapped in atomically once the engine is up; `ready`
	// gates /healthz for the rest of the process lifetime.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	var ready atomic.Bool
	var handler atomic.Value // http.Handler: boot mux, then the serve handler
	handler.Store(bootHandler())
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		// Slow-client guards; request bodies are additionally capped
		// by the handler (http.MaxBytesReader).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Boot, /reloadz and SIGHUP read the checkpoint through the same
	// loader, the one -precision selects (serve.Open): at f32/int8 the
	// replica is built from the stream and no float64 model exists.
	db := datagen.SyntheticIMDB(*seed, *scale)
	f, err := os.Open(*ckpt)
	if err != nil {
		log.Fatal(err)
	}
	engine, info, err := serve.Open(f, db, serve.Options{
		Sessions:   *sessions,
		MaxBatch:   *maxBatch,
		QueueDepth: *maxQueue,
		// An HTTP front end sheds; blocking admission is for
		// in-process embedding (see serve.Options).
		ShedOverload: true,
		Precision:    prec,
	})
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	logLoad("loaded", *ckpt, info, engine)

	// reload re-reads the checkpoint path; shared by /reloadz and
	// SIGHUP. Engine.ReloadFrom verifies the whole file, then swaps.
	reload := func() error {
		f, err := os.Open(*ckpt)
		if err != nil {
			return fmt.Errorf("reload %s: %w", *ckpt, err)
		}
		defer f.Close()
		info, err := engine.ReloadFrom(f)
		if err != nil {
			return fmt.Errorf("reload %s: %w", *ckpt, err)
		}
		logLoad("reloaded", *ckpt, info, engine)
		return nil
	}

	// The example generator gives clients (and the smoke tests) valid
	// request bodies without knowing the synthetic schema.
	gen := workload.NewGenerator(db, *seed+1000)

	handler.Store(serve.NewHandlerConfig(engine, serve.HandlerConfig{
		Gen:    gen,
		Reload: reload,
		Ready:  ready.Load,
	}))
	ready.Store(true)
	// Logged (not just printed) so supervisors and the smoke script
	// can parse the bound port when -addr ends in :0. Printed only
	// once /healthz actually answers 200.
	log.Printf("serving on http://%s", ln.Addr())

	// SIGHUP hot-reloads the checkpoint without dropping traffic; it
	// gets its own channel so it never races the shutdown signals.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := reload(); err != nil {
				log.Printf("SIGHUP reload failed (still serving old weights): %v", err)
				continue
			}
			log.Printf("SIGHUP reload complete (%d total)", engine.Reloads())
		}
	}()

	// Graceful shutdown: on SIGTERM/SIGINT stop accepting, let active
	// HTTP requests (and with them the engine's in-flight
	// micro-batches) drain, then stop the session workers and flush
	// the final serving counters to the log — the numbers /statsz
	// would have reported had anyone asked in time.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		// Serve only returns on listener failure here; shutdown exits
		// through the signal arm.
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		// Fail readiness first: keepalive health probes racing the
		// drain see 503 and route elsewhere while in-flight work
		// finishes.
		ready.Store(false)
		log.Printf("shutdown signal received; draining in-flight requests")
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v (continuing)", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		signal.Stop(hup)
		engine.Close() // waits for every in-flight micro-batch
		snap := engine.Stats()
		if b, err := json.Marshal(snap); err == nil {
			log.Printf("final statsz: %s", b)
		}
		log.Printf("drained: %d requests served, %d errors, %d shed, %d micro-batches; bye",
			snap.Requests, snap.Errors, snap.Shed, snap.Batches)
	}
}
