package main

import (
	"encoding/json"
	"fmt"
	"slices"
)

// The registry below is the single definition of what the benchmark
// measures. BENCHMARK.json at the repository root is its printed form
// (`-print-spec`); the smoke test fails when the two differ.

// runSeconds is the measured time of one run the driver asks for. The
// legs of a workload share it (see README, "Load shape").
const runSeconds = 20

// Workload names.
const (
	wServeDefault = "serve_default"
	wServeWide    = "serve_wide"
	wTrainFleet   = "train_fleet"
	wCorpusIO     = "corpus_io"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

var workloads = []workloadDef{
	{wServeDefault, "Dim-32 trained model at f64, card/cost/joinorder mix: per-request overhead dominates, kernels barely matter. Legs: a closed loop, b paced 400/s, c the /joinorder share of a.", runServeDefault},
	{wServeWide, "Dim-128 model, card/cost only: kernel-bound, per-request overhead under 10 %. Legs: a f64, b f32, c int8 server, same requests.", runServeWide},
	{wTrainFleet, "Algorithm 1 from one corpus, same work in every leg. Legs: a one process 2 threads, b coordinator + 2 TCP ranks, c one process 1 thread.", runTrainFleet},
	{wCorpusIO, "Corpus format in-process, encode/decode-bound (page cache). Legs: a append + close, b one reader in index order, c two readers in shuffled order.", runCorpusIO},
}

// metricDef is one named number. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may get
// worse. On names the workloads whose traced run measures a per-layer
// metric; elsewhere it reads 0 because the layer did no work.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     []string
}

// Every end-to-end metric is reported by every workload; what a leg is
// differs per workload and is tabulated in README. The bounds are set
// by the box, not by the metrics: generator, server and ranks share two
// cores of a host whose other guests come and go, the same code on the
// same seed reads 3-6 % apart from run to run on a quiet hour (quartile
// spread over ten runs) and 10-20 % apart on a busy one, and a bound has
// to sit clear of that to mean anything.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rate_a", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rate_b", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rate_c", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_a", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_b", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_c", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

var (
	onServe   = []string{wServeDefault, wServeWide}
	onDefault = []string{wServeDefault}
	onWide    = []string{wServeWide}
	onTrain   = []string{wTrainFleet}
	onCorpus  = []string{wCorpusIO}
	onAll     = []string{wServeDefault, wServeWide, wTrainFleet, wCorpusIO}
)

func layer(on []string, unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better, On: on}
	}
	return out
}

var perLayer = slices.Concat(
	// loadgen: the harness's own numbers from the run through the binaries.
	layer(onServe, "ms", "lower", "loadgen.p90_ms", "loadgen.p99_ms"),
	layer(onServe, "count", "higher", "loadgen.p99_n"),
	layer(onDefault, "1/s", "higher", "loadgen.achieved_rps"),
	layer(onDefault, "ms", "lower", "loadgen.max_lag_ms"),
	layer(onDefault, "ratio", "lower", "loadgen.late_share"),

	// serve: handler, codec, engine hand-off; counters from /statsz.
	layer(onServe, "ms", "lower", "serve.boot_ms"),
	layer(onWide, "ms", "lower", "serve.boot_ms.f32", "serve.boot_ms.int8"),
	layer(onServe, "us", "lower", "serve.transport_us", "serve.http_us", "serve.decode_us",
		"serve.validate_us", "serve.engine_us.card", "serve.sched_us", "serve.encode_us"),
	layer(onDefault, "us", "lower", "serve.engine_us.joinorder"),
	layer(onWide, "us", "lower", "serve.engine_us.card.f32", "serve.engine_us.card.int8"),
	layer(onServe, "count", "higher", "serve.avg_batch"),
	layer(onServe, "ratio", "higher", "serve.pool_reuse_rate"),
	layer(onServe, "count", "lower", "serve.shed", "serve.deadline_misses", "serve.errors"),
	layer(onServe, "MB", "lower", "serve.rss_mb"),
	layer(onWide, "MB", "lower", "serve.rss_mb.f32", "serve.rss_mb.int8"),

	// mtmlf, featurize, nn, ag: the inference path by direct calls.
	layer(onServe, "us", "lower", "mtmlf.represent_us", "featurize.encode_us", "nn.heads_us"),
	layer(onWide, "us", "lower", "mtmlf.represent_us.f32", "mtmlf.represent_us.int8",
		"featurize.encode_us.f32", "featurize.encode_us.int8", "nn.heads_us.f32", "nn.heads_us.int8"),
	layer(onDefault, "us", "lower", "mtmlf.beam_us"),
	layer(onServe, "count", "lower", "featurize.tables_per_req", "ag.mallocs_per_req", "tensor.pool_allocs_per_req"),
	layer(onServe, "ms", "lower", "mtmlf.load_ms", "mtmlf.lower_ms.f32", "mtmlf.lower_ms.int8"),
	layer(onServe, "B", "lower", "mtmlf.param_bytes.f64", "mtmlf.param_bytes.f32", "mtmlf.param_bytes.int8"),

	// tensor: kernels at the wide model's shapes, serial.
	layer(onWide, "GFLOP/s", "higher",
		"tensor.matmul_gflops.f64.m8", "tensor.matmul_gflops.f32.m8", "tensor.matmul_gflops.int8.m8",
		"tensor.matmul_gflops.f64.sq256", "tensor.matmul_gflops.f32.sq256", "tensor.matmul_gflops.int8.sq256",
		"tensor.transb_gflops.f64.m8", "tensor.transb_gflops.f32.m8"),
	layer(onWide, "Melem/s", "higher",
		"tensor.gelu_melem_s.f64", "tensor.gelu_melem_s.f32",
		"tensor.softmax_melem_s.f64", "tensor.softmax_melem_s.f32",
		"tensor.layernorm_melem_s.f64", "tensor.layernorm_melem_s.f32",
		"tensor.addbias_melem_s.f64", "tensor.addbias_melem_s.f32"),
	layer(onWide, "GB/s", "higher", "tensor.membw_gb_s"),

	// training: source, step, exchange plane. Plain names are the one
	// process (dist.Local), .w2 the in-process 2-rank TCP fleet.
	layer(onTrain, "us", "lower", "workload.fetch_us", "workload.fetch_us.w2"),
	layer(onTrain, "count", "lower", "workload.fetch_calls"),
	layer(onTrain, "s", "lower", "mtmlf.mla_prep_s"),
	layer(onTrain, "ms", "lower", "mtmlf.step_ms", "mtmlf.step_ms.w2", "mtmlf.snapshot_stall_ms", "mtmlf.save_ms"),
	layer(onTrain, "us", "lower", "mtmlf.compute_us_per_step", "mtmlf.compute_us_per_step.w2",
		"mtmlf.forward_us", "nn.adam_step_us", "ag.reduce_us", "dist.allreduce_us", "dist.allreduce_us.w2"),
	layer(onTrain, "B", "lower", "mtmlf.snapshot_bytes", "dist.wire_bytes_up_per_round", "dist.wire_bytes_down_per_round"),
	layer(onTrain, "count", "lower", "dist.rounds"),
	layer(onTrain, "ratio", "higher", "dist.scaling_ratio"),

	// corpus, ckptio.
	layer(onCorpus, "us", "lower", "corpus.append_us", "corpus.example_us.seq", "corpus.example_us.shuffled"),
	layer(onCorpus, "ms", "lower", "corpus.close_ms", "corpus.open_ms", "corpus.catalog_ms"),
	layer(onCorpus, "B", "lower", "corpus.bytes_per_example"),
	layer(onCorpus, "MB/s", "higher", "corpus.write_mb_s", "corpus.read_mb_s", "ckptio.atomic_write_mb_s"),

	// bench: the harness itself.
	layer(onAll, "s", "lower", "bench.build_s", "bench.fixture_s"),
	layer(onAll, "ratio", "lower", "bench.trace_overhead_share"),
)

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// specJSON renders the registry in the BENCHMARK.json shape.
func specJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type lay struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []lay         `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, lay{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render spec: %w", err)
	}
	return append(b, '\n'), nil
}
