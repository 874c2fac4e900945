package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"mtmlf/internal/ag"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/nn"
	"mtmlf/internal/plan"
	"mtmlf/internal/serve"
	"mtmlf/internal/sqldb"
	"mtmlf/internal/tensor"
)

// replayRequests bounds the traced replay of one tier; the time budget
// usually ends it sooner on the wide model.
const replayRequests = 2000

// traceServe is the traced half of a serve workload: it replays the
// workload's request sequence in-process through the public functions
// of each layer, one tier after another, and turns the recorded spans
// into the per-layer metrics. The reference tier gets the whole request
// path (loopback HTTP, handler, codec, engine, model); the lowered
// tiers get the engine and what is below it, which is all a tier changes.
func (r *run) traceServe(ckpt string, m *mtmlf.Model, p *pool, mx mix, precs []nn.Precision) error {
	t0 := time.Now()
	if _, err := loadModel(ckpt, m.Feat.DB); err != nil {
		return err
	}
	r.set("mtmlf.load_ms", ms(time.Since(t0)))
	r.set("mtmlf.param_bytes.f64", float64(m.ParamBytes()))
	lowered := map[nn.Precision]*mtmlf.LoweredModel{}
	for _, prec := range tiers[1:] {
		t0 = time.Now()
		lowered[prec] = m.Lower(prec)
		r.set("mtmlf.lower_ms."+prec.String(), ms(time.Since(t0)))
		r.set("mtmlf.param_bytes."+prec.String(), float64(lowered[prec].ParamBytes()))
	}

	pk := newPicker(r.seed+3, mx, len(p.bodies))
	picks := make([]pick, replayRequests)
	for i := range picks {
		picks[i] = pk.next()
	}
	budget := r.measured() / time.Duration(len(precs))
	for _, prec := range precs {
		if err := r.replay(m, lowered[prec], prec, p, picks, budget); err != nil {
			return fmt.Errorf("replay at %s: %w", prec, err)
		}
	}

	total, self := r.tr.times()
	r.set("serve.transport_us", medianUs(self["request"]))
	r.set("serve.http_us", medianUs(total["serve.http"]))
	r.set("serve.decode_us", medianUs(total["serve.decode"]))
	r.set("serve.validate_us", medianUs(total["serve.validate"]))
	r.set("serve.encode_us", medianUs(total["serve.encode"]))
	r.set("serve.sched_us", medianUs(slices.Concat(
		self["serve.engine.card"], self["serve.engine.cost"], self["serve.engine.joinorder"])))
	if mx[epJoinOrder] > 0 {
		r.set("serve.engine_us.joinorder", medianUs(total["serve.engine.joinorder"]))
		r.set("mtmlf.beam_us", medianUs(total["mtmlf.beam"]))
	}
	for _, prec := range precs {
		s := tierSuffix(prec)
		r.set("serve.engine_us.card"+s, medianUs(total["serve.engine.card"+s]))
		r.set("mtmlf.represent_us"+s, medianUs(self["mtmlf.represent"+s]))
		r.set("featurize.encode_us"+s, medianUs(total["featurize.encode"+s]))
		r.set("nn.heads_us"+s, medianUs(total["nn.heads"+s]))
	}
	loop := medianUs(total["request"])
	parts := r.metrics["serve.decode_us"] + r.metrics["serve.validate_us"] + r.metrics["serve.encode_us"] +
		medianUs(slices.Concat(total["serve.engine.card"], total["serve.engine.cost"], total["serve.engine.joinorder"]))
	r.logf("trace: loopback c=1 median %.0f us = transport %.0f + http %.0f; decode+validate+engine+encode %.0f us vs http %.0f",
		loop, r.metrics["serve.transport_us"], r.metrics["serve.http_us"], parts, r.metrics["serve.http_us"])
	return nil
}

// callEngine sends one request through the engine's public API.
func callEngine(e *serve.Engine, ep int, q *sqldb.Query, pl *plan.Node) (any, error) {
	ctx := context.Background()
	switch ep {
	case epCard:
		return e.EstimateCardCtx(ctx, q, pl)
	case epCost:
		return e.EstimateCostCtx(ctx, q, pl)
	default:
		return e.JoinOrderCtx(ctx, q, pl)
	}
}

// decodeRequest is the handler's decode step from public pieces: strict
// JSON decode, then plan and query against the served schema.
func decodeRequest(db *sqldb.DB, body []byte) (*sqldb.Query, *plan.Node, error) {
	var req serve.RequestJSON
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	pl, err := serve.DecodePlan(req.Plan)
	if err != nil {
		return nil, nil, err
	}
	q, err := serve.DecodeQuery(db, req.Query)
	return q, pl, err
}

// encodeAnswer is the handler's encode step.
func encodeAnswer(ans any, pl *plan.Node) ([]byte, error) {
	switch a := ans.(type) {
	case *serve.Estimate:
		return json.Marshal(serve.EstimateJSON{Nodes: a.Nodes, Root: a.Root, Plan: pl.String()})
	case *serve.JoinOrderResult:
		return json.Marshal(serve.JoinOrderJSON{Order: a.Order, LogProb: a.LogProb, Legal: a.Legal})
	}
	return nil, fmt.Errorf("unexpected engine answer %T", ans)
}

// modelTimes times the model layers of one request by direct calls on
// an inference session: the representation, the featurizer's share of
// it (every leaf table encoded again), and the request's head or beam
// search.
func modelTimes(m *mtmlf.Model, lm *mtmlf.LoweredModel, ep int, q *sqldb.Query, pl *plan.Node) (rep, feat, head time.Duration, tables int) {
	// The two tiers have different session and tensor types, so each
	// supplies the three calls; the timing around them is shared.
	var represent, finish func()
	var encode func(table string)
	beam := func(mem *tensor.Tensor) {
		m.Shared.JO.BeamSearchTensor(mem, q, m.Shared.Cfg.BeamWidth, true)
	}
	if lm == nil {
		ev := ag.AcquireEval()
		defer ag.ReleaseEval(ev)
		var ir *mtmlf.InferRep
		represent = func() { ir = m.RepresentInfer(ev, q, pl) }
		encode = func(t string) { m.Feat.EncodeTableInfer(ev, t, q.FiltersFor(t)) }
		finish = func() {
			switch ep {
			case epCard:
				m.PredictLogCardsInfer(ev, ir)
			case epCost:
				m.PredictLogCostsInfer(ev, ir)
			default:
				beam(ir.Memory)
			}
		}
	} else {
		ev := ag.AcquireEvalF32()
		defer ag.ReleaseEvalF32(ev)
		var ir *mtmlf.InferRepF32
		represent = func() { ir = lm.RepresentInfer(ev, q, pl) }
		encode = func(t string) { lm.Feat.EncodeTableInfer(ev, t, q.FiltersFor(t)) }
		finish = func() {
			switch ep {
			case epCard:
				lm.PredictLogCardsInfer(ev, ir)
			case epCost:
				lm.PredictLogCostsInfer(ev, ir)
			default:
				beam(ir.Memory.ToTensor())
			}
		}
	}
	t := time.Now()
	represent()
	rep = time.Since(t)
	t = time.Now()
	for _, n := range pl.Nodes() {
		if n.IsLeaf() {
			encode(n.Table)
			tables++
		}
	}
	feat = time.Since(t)
	t = time.Now()
	finish()
	return rep, feat, time.Since(t), tables
}

// replay runs the pick sequence through one tier twice: first through
// the engine alone with nothing recorded (the untraced reference, and
// where allocations are counted), then piece by piece with spans.
//
// Each piece of a request is timed by its own direct call, one after
// another, and laid inside its parent's interval, so the span tree of a
// request is assembled from separate measurements of the same request;
// the programs carry no spans of their own yet.
func (r *run) replay(m *mtmlf.Model, lm *mtmlf.LoweredModel, prec nn.Precision, p *pool, picks []pick, budget time.Duration) error {
	engine, err := serve.NewEngine(m, serve.Options{ShedOverload: true, Precision: prec})
	if err != nil {
		return err
	}
	defer engine.Close()
	full := prec == nn.PrecisionF64
	suffix := tierSuffix(prec)

	var before, after runtime.MemStats
	_, allocs0 := tensor.PoolCounters()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var untraced []time.Duration
	for n := 0; n < len(picks) && time.Since(start) < budget/4; n++ {
		pk := picks[n]
		t := time.Now()
		if _, err := callEngine(engine, pk.ep, p.queries[pk.item], p.plans[pk.item]); err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t))
	}
	n1 := len(untraced)
	runtime.ReadMemStats(&after)
	_, allocs1 := tensor.PoolCounters()

	var ts *httptest.Server
	var handler http.Handler
	if full {
		handler = serve.NewHandlerConfig(engine, serve.HandlerConfig{})
		ts = httptest.NewServer(handler)
		defer ts.Close()
	}
	db := m.Feat.DB
	var traced []time.Duration
	tables, n2 := 0, 0
	start = time.Now()
	for ; n2 < len(picks) && time.Since(start) < budget*3/4; n2++ {
		pk := picks[n2]
		body := p.bodies[pk.item]
		q, pl := p.queries[pk.item], p.plans[pk.item]
		base := time.Now()
		var tLoop, tHTTP, tDec, tVal, tEnc time.Duration
		if full {
			if status, _, err := post(ts.Client(), ts.URL+endpointPath[pk.ep], body); err != nil || status != http.StatusOK {
				return fmt.Errorf("loopback request: status %d, %v", status, err)
			}
			tLoop = time.Since(base)
			t := time.Now()
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpointPath[pk.ep], bytes.NewReader(body)))
			tHTTP = time.Since(t)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d", rec.Code)
			}
			t = time.Now()
			if _, _, err := decodeRequest(db, body); err != nil {
				return err
			}
			tDec = time.Since(t)
			t = time.Now()
			if err := engine.Validate(q, pl); err != nil {
				return err
			}
			tVal = time.Since(t)
		}
		t := time.Now()
		ans, err := callEngine(engine, pk.ep, q, pl)
		tEng := time.Since(t)
		if err != nil {
			return err
		}
		traced = append(traced, tEng)
		if full {
			t = time.Now()
			if _, err := encodeAnswer(ans, pl); err != nil {
				return err
			}
			tEnc = time.Since(t)
		}
		tRep, tFeat, tHead, nt := modelTimes(m, lm, pk.ep, q, pl)
		tables += nt

		req := n2 + 1
		parent, at := 0, base
		if full {
			root := r.tr.add("request", 0, req, base, base.Add(tLoop))
			parent = r.tr.add("serve.http", root, req, base, base.Add(tHTTP))
			r.tr.add("serve.decode", parent, req, at, at.Add(tDec))
			at = at.Add(tDec)
			r.tr.add("serve.validate", parent, req, at, at.Add(tVal))
			at = at.Add(tVal)
		}
		eng := r.tr.add("serve.engine."+endpointName[pk.ep]+suffix, parent, req, at, at.Add(tEng))
		repID := r.tr.add("mtmlf.represent"+suffix, eng, req, at, at.Add(tRep))
		r.tr.add("featurize.encode"+suffix, repID, req, at, at.Add(tFeat))
		headName := "nn.heads" + suffix
		if pk.ep == epJoinOrder {
			headName = "mtmlf.beam"
		}
		r.tr.add(headName, eng, req, at.Add(tRep), at.Add(tRep+tHead))
		if full {
			at = at.Add(tEng)
			r.tr.add("serve.encode", parent, req, at, at.Add(tEnc))
		}
	}
	if full {
		r.set("ag.mallocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(n1))
		r.set("tensor.pool_allocs_per_req", float64(allocs1-allocs0)/float64(n1))
		r.set("featurize.tables_per_req", float64(tables)/float64(n2))
		// The same requests, timed with and without the pieces around them.
		n := min(n1, n2)
		r.set("bench.trace_overhead_share", float64(sum(traced[:n])-sum(untraced[:n]))/float64(sum(untraced[:n])))
	}
	r.logf("trace: %s replayed %d untraced + %d traced requests", prec, n1, n2)
	return nil
}
