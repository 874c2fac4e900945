// Command bench is the repository's measurement spine: one program that
// drives the real mtmlf-serve, mtmlf-train and mtmlf-datagen binaries
// with inputs made from a seed, checks their answers against an
// in-process oracle, and prints every end-to-end metric by name. With
// -trace 1 it instead replays the same inputs in-process through each
// layer's public functions, records nested spans, and prints the
// per-layer metrics. BENCHMARK.json names the workloads and metrics;
// README.md in this directory says what each one means.
//
// It is run through run.sh, which builds it and the programs under test:
//
//	bash bench/run.sh --workload serve_default --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -runs 10 -out A.json      # every workload, seeds 1..10
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"mtmlf/internal/ckptio"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is the one JSON object a run prints as its last line.
type runReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// reportRow is a run as the -out file keeps it.
type reportRow struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	runReport
}

// report is the -out file: the environment and every run made.
type report struct {
	Env  map[string]string `json:"env"`
	Runs []reportRow       `json:"runs"`
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// buildDir is where run.sh puts the binaries and where runs keep their
// scratch and trace files, relative to the repository root the
// benchmark is run from.
const buildDir = ".bench_build"

// options are the settings shared by every run of one invocation.
type options struct {
	seconds float64
	trace   bool
	smoke   bool
	binDir  string // holds mtmlf-serve, mtmlf-train and mtmlf-datagen
	workDir string // per-run scratch directories are made here; trace files go beside it
	// corruptOracle makes the oracle expect a wrong answer, so the
	// smoke test can see a mismatch fail the run.
	corruptOracle bool
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "run only this workload (default: all)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per run, shared by the workload's legs")
	trace := flag.Int("trace", 0, "1: traced in-process replay, print per-layer metrics; 0: untraced run through the binaries, print end-to-end metrics")
	runs := flag.Int("runs", 1, "repeat each workload this many times, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "also write every run to this JSON report")
	cmp := flag.Bool("compare", false, "compare two -out reports given as arguments; exit 1 if the second is worse")
	smoke := flag.Bool("smoke", false, "tiny inputs and sub-second legs, for the smoke test")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json from the registry and exit")
	flag.Parse()

	switch {
	case *printSpec:
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	case *cmp:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		a, errA := readReport(flag.Arg(0))
		b, errB := readReport(flag.Arg(1))
		if err := errors.Join(errA, errB); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !compare(os.Stdout, a, b) {
			return 1
		}
		return 0
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	// A signal cancels the context; every child is started under it and
	// each run's deferred clean-up still executes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := options{seconds: *seconds, trace: *trace != 0, smoke: *smoke, binDir: buildDir + "/bin", workDir: buildDir + "/work"}
	rep := report{Env: environment(*seed, *seconds)}
	allCorrect := true
	for k := 0; k < *runs; k++ {
		for _, name := range names {
			var res *reportRow
			var err error
			if len(names)**runs == 1 {
				res, err = runOne(ctx, name, *seed+int64(k), opts, os.Stderr)
			} else {
				res, err = runChild(ctx, name, *seed+int64(k), *trace)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, *seed+int64(k), err)
				return 1
			}
			line, err := json.Marshal(res.runReport)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Printf("%s\n", line)
			allCorrect = allCorrect && res.Correct
			rep.Runs = append(rep.Runs, *res)
		}
	}
	if *runs > 1 && !opts.trace {
		printSpreads(os.Stderr, rep.Runs)
	}
	if *out != "" {
		err := ckptio.WriteFileAtomic(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(rep)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// runChild makes one run in a process of its own, as the driver does,
// so that repeated runs share no heap, page-in or peak-memory history.
// It passes on every flag but the ones that ask for repetition.
func runChild(ctx context.Context, name string, seed int64, trace int) (*reportRow, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workload", "seed", "runs", "out":
		default:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := &reportRow{Workload: name, Seed: seed, Trace: trace != 0}
	if jerr := json.Unmarshal(lines[len(lines)-1], &res.runReport); jerr != nil {
		return nil, fmt.Errorf("run printed no result (%v): %w", err, jerr)
	}
	return res, nil
}

func environment(seed int64, seconds float64) map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"seed":       strconv.FormatInt(seed, 10),
		"seconds":    strconv.FormatFloat(seconds, 'g', -1, 64),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// run is the state of one workload run: its inputs, its scratch
// directory, the children it started, and what it has measured so far.
type run struct {
	ctx      context.Context
	workload string
	seed     int64
	opts     options
	dir      string
	log      io.Writer
	procs    procs
	tr       tracer

	metrics   map[string]float64
	attempted int
	failed    int
	fixture   time.Duration
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "bench: %s: "+format+"\n", append([]any{r.workload}, args...)...)
}

func (r *run) bin(name string) string { return filepath.Join(r.opts.binDir, name) }

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

// measured is the time a run spends on its untraced legs: all of
// -seconds, or half of it when the other half goes to the traced replay.
func (r *run) measured() time.Duration {
	d := time.Duration(r.opts.seconds * float64(time.Second))
	if r.opts.trace {
		d /= 2
	}
	return d
}

// runOne runs one workload once and assembles its report. Children are
// killed and the scratch directory removed on every path out.
func runOne(ctx context.Context, name string, seed int64, opts options, log io.Writer) (*reportRow, error) {
	w, _ := findWorkload(name)
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	r := &run{ctx: ctx, workload: name, seed: seed, opts: opts, dir: dir, log: log, metrics: map[string]float64{}}
	r.tr.enabled = opts.trace
	defer os.RemoveAll(dir)
	defer r.procs.killAll()
	if err := w.run(r); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.trace {
		r.set("bench.fixture_s", r.fixture.Seconds())
		buildMs, _ := strconv.ParseFloat(os.Getenv("BENCH_BUILD_MS"), 64) // unset when not started by run.sh
		r.set("bench.build_s", buildMs/1000)
		if err := r.tr.writeFile(filepath.Join(opts.workDir, "..", "bench-trace-"+name+".json")); err != nil {
			return nil, err
		}
	}
	return r.report()
}

// report checks what the run measured against the registry: every
// metric of the mode must be there, once, finite; a per-layer metric of
// a layer this workload does not exercise reads 0.
func (r *run) report() (*reportRow, error) {
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	res := &reportRow{Workload: r.workload, Seed: r.seed, Trace: r.opts.trace, runReport: runReport{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		applies := d.On == nil
		for _, w := range d.On {
			applies = applies || w == r.workload
		}
		switch {
		case ok && !applies:
			return nil, fmt.Errorf("metric %s measured on a workload it is not registered for", d.Name)
		case !ok && applies:
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		delete(r.metrics, d.Name)
	}
	for name := range r.metrics {
		return nil, fmt.Errorf("metric %s is not in the registry", name)
	}
	return res, nil
}
