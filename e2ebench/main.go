// Command e2ebench is the repository's end-to-end benchmark. It drives the
// MORE-Stress serving stack only through its public entry points —
// Engine.Solve for the library workloads, serveapi.Server.Routes over
// loopback HTTP for the serving workload — with solver, preconditioner,
// ordering and precision left at their defaults, checks every answer
// against an independent reference, and prints one JSON result line.
//
//	e2ebench --workload hotspot-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads listed in BENCHMARK.json:
//
//   - cold-lattices: 1 closed-loop caller solves seeded lattices on a fresh
//     Engine each time (sharing only the ROM cache), so every operation
//     pays assembly, preconditioner build and solve.
//   - serve-mixed: an open loop of /solve, /batch and journaled /jobs
//     requests against an in-process server over 2 engine shards, at a fixed
//     rate (config.json) of about a third of the capacity --capacity
//     measures: at half, the queueing that builds whenever a co-tenant slows
//     the host moved the latency medians by up to 28% from run to run.
//
// One more workload runs on request:
//
//   - hotspot-sweep: 2 closed-loop callers solve one cached 12×12 lattice
//     under seeded per-block hotspot ΔT fields, so every operation is a
//     full iterative solve on a warm assembly and preconditioner. Its solves
//     stream ~150 MB per iteration, so on a host whose memory bandwidth is
//     shared with other tenants its latency moves by 20–40% from run to
//     run — more than any regression bound — and it is not gated.
//
// With --trace 0 the run measures the end-to-end metrics. With --trace 1 it
// runs the timed phase twice, untraced and then traced, prints the tracing
// overhead, writes the spans to .bench_build/traces/, and reports the
// per-layer metrics. The last line of standard output is the JSON result.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_scen_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in report order. Layers a
// workload does not exercise report 0.
var perLayer = []metricDef{
	{"rom.build_ms", "ms"},
	{"romcache.misses", "count"},
	{"engine.solve_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"engine.assemble_ms", "ms"},
	{"engine.assembly_hit_rate", "ratio"},
	{"engine.warm_start_rate", "ratio"},
	{"array.assembly.nnz", "count"},
	{"array.precond.build_ms", "ms"},
	{"array.precond.builds", "count"},
	{"array.precond.hits", "count"},
	{"array.rhs_ms", "ms"},
	{"array.field_ms", "ms"},
	{"solver.iterations", "count"},
	{"solver.solve_ms", "ms"},
	{"solver.precond_apply_ms", "ms"},
	{"solver.other_ms", "ms"},
	{"solver.refinements", "count"},
	{"solver.precision_fallbacks", "count"},
	{"sparse.bytes_per_iter", "B"},
	{"serveapi.handler_ms", "ms"},
	{"serveapi.self_ms", "ms"},
	{"serveapi.response_kb", "KiB"},
	{"http.transport_ms", "ms"},
	{"router.solver_ms", "ms"},
	{"router.shard_skew", "ratio"},
	{"jobqueue.submit_ms", "ms"},
	{"jobqueue.wait_ms", "ms"},
	{"jobqueue.run_ms", "ms"},
	{"jobqueue.job_p90_ms", "ms"},
	{"wal.appends", "count"},
	{"wal.bytes", "B"},
}

//go:embed config.json
var configJSON []byte

// config holds the benchmark's fixed settings: the serve-mixed rate, the
// oracle tolerances, the generator lag bound, and the map from each layer
// metric to the end-to-end metric it should move.
type config struct {
	ServeRate      float64 `json:"serve_rate_per_s"`
	MaxLagP90MS    float64 `json:"max_lag_p90_ms"`
	FieldRelTol    float64 `json:"field_rel_tol"`
	OracleSamples  int     `json:"oracle_samples"`
	SetupRepeats   int     `json:"setup_repeats"`
	LayerMetricMap map[string]struct {
		Moves []string `json:"moves"`
		On    []string `json:"on"`
	} `json:"layer_metric_map"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("config.json: %w", err)
	}
	if c.ServeRate <= 0 || c.MaxLagP90MS <= 0 || c.FieldRelTol <= 0 || c.OracleSamples < 1 || c.SetupRepeats < 1 {
		return c, fmt.Errorf("config.json: every setting must be positive")
	}
	return c, nil
}

// workload is one benchmark workload: set up, run timed phases, and check
// the answers outside the timed phase.
type workload interface {
	// setup prepares the state the timed phase needs; it is run
	// cfg.SetupRepeats times and only the last state is kept.
	setup(tr *tracer) (time.Duration, error)
	// phase runs one timed phase; tr is nil when tracing is off.
	phase(tr *tracer) (*phaseResult, error)
	// check runs the correctness oracle over the phase's retained answers
	// and returns how many operations it found wrong.
	check(p *phaseResult) (checked, wrong int, err error)
	// close releases the workload's resources.
	close()
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	lat       []time.Duration // per completed operation, in completion order
	scenarios int             // scenarios completed
	elapsed   time.Duration   // from the first operation's start to the last's end
	attempted int
	failed    int
	layers    map[string]float64
	notes     []reportLine // workload-specific lines for the report
	invalid   string       // non-empty when the phase is not a valid measurement
	answers   []any        // retained answers for the oracle, workload-specific
}

type reportLine struct {
	name  string
	value float64
	unit  string
	n     int
}

// newWorkload builds the named workload. hotspot-sweep runs on request but
// is not listed in BENCHMARK.json: see the package comment.
func newWorkload(name string, seed uint64, dur time.Duration, cfg config) (workload, error) {
	switch name {
	case "hotspot-sweep":
		return newHotspot(seed, dur, cfg), nil
	case "cold-lattices":
		return newCold(seed, dur, cfg), nil
	case "serve-mixed":
		return newServe(seed, dur, cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "hotspot-sweep, cold-lattices, or serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
	capacity := flag.Bool("capacity", false, "serve-mixed only: run closed-loop to measure the capacity config.json's rate is derived from")
	flag.Parse()
	processStart := time.Now()

	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *capacity {
		cfg.ServeRate = 0
	}
	w, err := newWorkload(*name, *seed, dur, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer w.close()

	fmt.Printf("host: goos=%s goarch=%s nproc=%d gomaxprocs=%d go=%s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	setups := make([]time.Duration, 0, cfg.SetupRepeats)
	for i := 0; i < cfg.SetupRepeats; i++ {
		d, err := w.setup(tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: setup:", err)
			return 1
		}
		setups = append(setups, d)
	}
	fmt.Printf("setup: %d repetitions, first timed operation %.3f s after process start\n",
		len(setups), time.Since(processStart).Seconds())

	// Start the timed phase from a collected heap, so set-up garbage is not
	// swept on the clock.
	runtime.GC()
	plain, err := w.phase(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: timed phase:", err)
		return 1
	}
	peakRSS := maxRSSMB()
	final := plain
	if tr != nil {
		// The traced phase starts from a fresh set-up too, so state the
		// untraced phase left behind (retained jobs, journal growth) does
		// not count as tracing overhead.
		if _, err := w.setup(tr); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: setup:", err)
			return 1
		}
		runtime.GC()
		traced, err := w.phase(tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: traced phase:", err)
			return 1
		}
		final = traced
	}

	phases := []*phaseResult{plain}
	if final != plain {
		phases = append(phases, final)
	}
	attempted, failed, checked, wrong := 0, 0, 0, 0
	valid := true
	for _, p := range phases {
		c, w2, err := w.check(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: oracle:", err)
			return 1
		}
		attempted += p.attempted
		failed += p.failed + w2
		checked += c
		wrong += w2
		if p.invalid != "" {
			valid = false
		}
	}

	e2e := endToEndValues(setups, plain, peakRSS)
	printReport("end-to-end (untraced phase)", e2e, plain, len(setups))
	for _, l := range plain.notes {
		fmt.Printf("  %-26s %14.4f %-6s n=%d\n", l.name, l.value, l.unit, l.n)
	}
	fmt.Printf("  %-26s %14.4f %-6s n=%d\n", "failed_frac", frac(failed, attempted), "ratio", attempted)
	fmt.Printf("oracle: %d answers checked against references, %d wrong\n", checked, wrong)
	for _, p := range phases {
		if p.invalid != "" {
			fmt.Println("INVALID RUN:", p.invalid)
		}
	}
	out := result{Correct: failed == 0 && checked > 0 && valid, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	if tr == nil {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metric{Value: e2e[m.Name], Unit: m.Unit}
		}
	} else {
		traced := endToEndValues(setups, final, peakRSS)
		printReport("end-to-end (traced phase)", traced, final, len(setups))
		fmt.Println("tracing overhead (traced vs untraced phase):")
		for _, m := range endToEnd[1:4] {
			fmt.Printf("  %-26s %+9.2f %%\n", m.Name, 100*(traced[m.Name]-e2e[m.Name])/e2e[m.Name])
		}
		path, err := tr.write(*name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: write trace:", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", tr.spanCount(), path)
		tr.printSelfTimes()
		fmt.Println("per-layer (traced phase):")
		for _, m := range perLayer {
			v := final.layers[m.Name]
			out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
			fmt.Printf("  %-28s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEndValues(setups []time.Duration, p *phaseResult, peakRSS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":           median(setups).Seconds(),
		"latency_p50_ms":    ms(quantile(p.lat, 0.50)),
		"latency_p90_ms":    ms(quantile(p.lat, 0.90)),
		"throughput_scen_s": float64(p.scenarios) / p.elapsed.Seconds(),
		"peak_rss_mb":       peakRSS,
	}
}

func printReport(title string, v map[string]float64, p *phaseResult, setups int) {
	fmt.Println(title + ":")
	n := map[string]int{
		"setup_s": setups, "latency_p50_ms": len(p.lat), "latency_p90_ms": len(p.lat),
		"throughput_scen_s": p.scenarios, "peak_rss_mb": 1,
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-26s %14.4f %-6s n=%d\n", m.Name, v[m.Name], m.Unit, n[m.Name])
	}
}

// maxRSSMB is the process's peak resident set so far (getrusage maxrss).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the q-quantile of ds by the nearest-rank rule (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }
