// Command e2e is the repository's end-to-end benchmark: four closed-loop,
// lock-step workloads, four gated end-to-end metrics measured with tracing
// off, and a traced run that prints a per-layer budget. benchmarks/README.md
// defines every metric and workload and says why each was chosen.
//
//	go run ./benchmarks/e2e -workload gw_small -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and metrics by name with value and unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"hear"
)

// processStart approximates process start; setup_s counts from here.
var processStart = time.Now()

// procs pins GOMAXPROCS: the sizing runs, bounds and workload shapes (two
// ranks, both bulk workloads saturating both cores) assume two.
const procs = 2

// env is what a workload's build function gets.
type env struct {
	seed      uint64
	corruptAt int // round whose result participant 0 spoils (tests), -1 for none
}

type setupTimes struct{ init, connect time.Duration }

// fixture is one set-up deployment shape, ready to run rounds.
type fixture interface {
	// participants returns one round function per rank or client.
	participants() []participant
	setup() setupTimes
	// plainBytes is the plaintext one participant contributes to a round.
	plainBytes() float64
	// enableTrace puts the decorators between participant 0 and the program.
	enableTrace(*recorder) error
	// counters reads the cumulative public counters of the shape's layers.
	counters() map[string]float64
	// layers derives the shape's per-layer metrics from a traced stretch.
	layers(m map[string]float64, tr *traced)
	// standalone measures layers on their own, within about budget.
	standalone(m map[string]float64, budget time.Duration) error
	close()
}

type workload struct {
	name, why string
	warmup    int // rounds before timing starts; fixed, so that set-up work shows in setup_s
	build     func(*env) (fixture, error)
}

// The whys are the one-line reasons BENCHMARK.json carries.
var workloads = []workload{
	{
		name:   "ar_int_16m",
		why:    "2 ranks in-process, 16 MiB int64 sum, pipelined path: integer kernels, PRF stream out of cache, engine sharding, mempool and Iallreduce do all the work; the gateway does none",
		warmup: 64,
		build: func(e *env) (fixture, error) {
			return newAllreduce(e, int64Sum, 2<<20, hear.Options{PipelineBlockBytes: 1 << 20}, (*hear.Context).AllreduceInt64Sum)
		},
	},
	{
		name:   "ar_f32_256k",
		why:    "2 ranks in-process, 256 KiB float32 sum, sync path: software float (internal/hfp) is ~90 % of the round, so float-kernel work shows here and must not move ar_int_16m",
		warmup: 256,
		build: func(e *env) (fixture, error) {
			return newAllreduce(e, float32Sum, 64<<10, hear.Options{}, (*hear.Context).AllreduceFloat32Sum)
		},
	},
	{
		name:   "gw_small",
		why:    "flat gateway over loopback TCP, 4 clients, 1 KiB verified sum: the round lifecycle (join probe) is 95 % of the round or more, kernels and wire are noise; lifecycle work shows, kernel work must not",
		warmup: 100,
		build:  func(e *env) (fixture, error) { return newGateway(e, 128, false) },
	},
	{
		name:   "gw_cascade_1m",
		why:    "leaf (2 cohorts x 2 clients) relaying to a root over loopback TCP, 1 MiB verified sum: bytes not latency; seal/verify, SUBMIT ingress, fold, relay and fan-out fill both cores",
		warmup: 24,
		build:  func(e *env) (fixture, error) { return newGateway(e, 128<<10, true) },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is one run of one workload.
type config struct {
	workload  *workload
	seed      uint64
	seconds   float64
	trace     bool
	traceOut  string
	started   time.Time // setup_s counts from here: process start
	warmup    int       // overrides the workload's count when >= 0 (tests)
	corruptAt int       // timed round to spoil (tests), -1 for none
}

// report is the run's last output line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkCPUs refuses a box on which the numbers would mean something else:
// with one CPU the two ranks and the gateway's workers time-share a core.
func checkCPUs(n int) error {
	if n < procs {
		return fmt.Errorf("the benchmark needs at least %d CPUs, this box has %d", procs, n)
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: ar_int_16m, ar_f32_256k, gw_small or gw_cascade_1m")
	seed := fs.Uint64("seed", 1, "seed the input vectors are generated from")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs with the span recorders on and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "file the traced run's spans are written to as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2e: need -workload (one of the four), -seconds > 0 and no other arguments; got %q\n", args)
		return 2
	}
	if err := checkCPUs(runtime.NumCPU()); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	// A wedged collective must not outlive the driver's patience.
	limit := time.Duration((3**seconds + 90) * float64(time.Second))
	time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "e2e: no result after", limit, "- giving up")
		os.Exit(3)
	})

	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut,
		started: processStart, warmup: -1, corruptAt: -1}
	rep, err := run(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		if rep == nil {
			return 1
		}
	}
	line, merr := json.Marshal(rep)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "e2e:", merr)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// run sets the workload up, warms it, measures it and returns the report. A
// nil report means the workload could not be set up; a non-nil error beside
// a report says why rounds failed.
func run(cfg config, out io.Writer) (*report, error) {
	w := cfg.workload
	warmup := w.warmup
	if cfg.warmup >= 0 {
		warmup = cfg.warmup
	}
	e := &env{seed: cfg.seed, corruptAt: -1}
	if cfg.corruptAt >= 0 {
		e.corruptAt = warmup + cfg.corruptAt
	}
	rep := &report{Metrics: map[string]metricValue{}}
	var (
		firstErr error
		wedged   bool
	)
	count := func(stretch string, ph *phase) {
		if ph == nil {
			return
		}
		rep.Attempted += ph.rounds
		rep.Failed += ph.failed
		wedged = wedged || ph.wedged
		if ph.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", stretch, ph.err)
		}
	}

	// Set-up, once and cold: everything between process start and the first
	// timed round, one-time initialisation included.
	fx, err := w.build(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		// Closing a fixture whose participants are stuck in a collective
		// could block as they do; the process is about to exit anyway.
		if !wedged {
			fx.close()
		}
	}()
	warm := runPhase(fx.participants(), 0, warmup, 0)
	setupS := time.Since(cfg.started).Seconds()
	count("warm-up", warm)

	limit := time.Duration(cfg.seconds * float64(time.Second))
	values := map[string]float64{}
	switch {
	case firstErr != nil:
	case !cfg.trace:
		timed := runPhase(fx.participants(), warmup, 0, limit)
		count("timed phase", timed)
		values["rounds_per_s"] = timed.roundsPerSecond()
		values["round_p50_ms"] = timed.latencyMS(0.5)
		values["alloc_mb_per_round"] = timed.allocMBPerRound()
		values["setup_s"] = setupS
		fmt.Fprintf(out, "%s seed %d: %d timed rounds in %.2f s (p50 over %d samples), %d warm-up rounds\n",
			w.name, cfg.seed, timed.timed, timed.elapsed.Seconds(), timed.timed, warmup)
		fill(rep, endToEnd, values)
	default:
		plain, under, err := runTraced(cfg, fx, warmup, warm, limit, values, out)
		count("untraced stretch", plain)
		count("traced stretch", under)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("traced run: %w", err)
		}
		fill(rep, perLayer, values)
	}
	rep.Correct = rep.Failed == 0 && firstErr == nil
	if !rep.Correct && firstErr == nil {
		firstErr = errors.New("rounds failed the correctness gate")
	}
	if firstErr != nil {
		firstErr = fmt.Errorf("%s: %d of %d rounds failed: %w", w.name, rep.Failed, rep.Attempted, firstErr)
	}
	return rep, firstErr
}

// fill copies the listed metrics into the report; a layer that did not run
// on this workload left no value and reports 0.
func fill(rep *report, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		rep.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}
