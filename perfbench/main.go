package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported metric, as BENCHMARK.json lists it.
type metric struct{ name, unit, better string }

// endToEnd are the metrics an untraced run reports for every workload.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"sim_time_us", "us", "lower"},
}

// perLayer are the metrics a traced run reports for every workload. A
// metric named "<span>_s" in seconds is the per-pass total of that span.
var perLayer = []metric{
	{"sim.coroutine.cpu_share", "%", "lower"},
	{"sim.event.cpu_share", "%", "lower"},
	{"memmodel.cpu_share", "%", "lower"},
	{"coll.cpu_share", "%", "lower"},
	{"mpi.cpu_share", "%", "lower"},
	{"plan.cpu_share", "%", "lower"},
	{"cluster.cpu_share", "%", "lower"},
	{"resilient.cpu_share", "%", "lower"},
	{"fault.cpu_share", "%", "lower"},
	{"serve.cpu_share", "%", "lower"},
	{"runtime.cpu_share", "%", "lower"},
	{"other.cpu_share", "%", "lower"},
	{"sim.run_program_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"memmodel.dram_bytes", "B", "lower"},
	{"memmodel.cross_socket_bytes", "B", "lower"},
	{"memmodel.nt_store_bytes", "B", "lower"},
	{"memmodel.rfo_bytes", "B", "lower"},
	{"memmodel.dav_bytes", "B", "lower"},
	{"memmodel.copy_volume_bytes", "B", "lower"},
	{"memmodel.sync_count", "count", "lower"},
	{"mpi.new_machine_s", "s", "lower"},
	{"mpi.run_s", "s", "lower"},
	{"mpi.runs", "count", "lower"},
	{"plan.load_s", "s", "lower"},
	{"plan.tuned_hit_frac", "frac", "higher"},
	{"coll.exec_calls", "count", "lower"},
	{"coll.speedup_vs_best", "x", "higher"},
	{"cluster.new_s", "s", "lower"},
	{"cluster.compile_s", "s", "lower"},
	{"cluster.run_armed_s", "s", "lower"},
	{"cluster.allocs_per_rank", "count", "lower"},
	{"cluster.bytes_per_rank_run", "B", "lower"},
	{"cluster.speedup_vs_best", "x", "higher"},
	{"resilient.supervise_s", "s", "lower"},
	{"resilient.attempts", "count", "lower"},
	{"resilient.recompiles", "count", "lower"},
	{"resilient.retries", "count", "lower"},
	{"resilient.rejoins", "count", "higher"},
	{"resilient.recovered_frac", "frac", "higher"},
	{"resilient.recovery_virtual_ms", "ms", "lower"},
	{"fault.fired", "count", "lower"},
	{"serve.run_s", "s", "lower"},
	{"serve.admitted", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.deadline_violations", "count", "lower"},
	{"serve.wait_p99_ms", "ms", "lower"},
	{"serve.capacity_epochs", "count", "lower"},
	{"serve.p99_ms", "ms", "lower"},
	{"serve.max_rate_jps", "1/s", "higher"},
	{"serve.goodput_jps", "1/s", "higher"},
	{"runtime.gc_cpu_share", "%", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

const (
	// minPasses is the fewest measured passes a run takes, whatever
	// -seconds says.
	minPasses = 3
	// defaultTraceDir is where "-trace 1" writes.
	defaultTraceDir = ".bench_build/trace"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", expectedSeed, fmt.Sprintf("input seed; seed %d is also checked against %s", expectedSeed, expectedPath))
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	trace := fs.String("trace", "0", "0 measures the end-to-end metrics; 1 or a directory runs the traced variant and reports the per-layer metrics, writing trace.json and <workload>.cpu.pprof to the directory (1 means "+defaultTraceDir+")")
	writeExp := fs.Bool("write-expected", false, fmt.Sprintf("record this run's outputs in %s (seed %d only)", expectedPath, expectedSeed))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The simulator is single-threaded. With one P the collector shares
	// the simulator's thread instead of racing it on a second CPU that other
	// load may hold, which made pass times both slower and noisier.
	runtime.GOMAXPROCS(1)
	if *writeExp && *seed != expectedSeed {
		fmt.Fprintf(stderr, "perfbench: -write-expected needs -seed %d\n", expectedSeed)
		return 2
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	var runs []*wlRun
	for _, n := range names {
		w, err := newWorkload(n, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		runs = append(runs, &wlRun{w: w, seed: *seed})
	}
	if *seed == expectedSeed && !*writeExp {
		exp, err := loadExpected(expectedPath)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, r := range runs {
			r.expected = &exp
		}
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%g GOMAXPROCS=%d %s\n",
		*name, *seed, *seconds, runtime.GOMAXPROCS(0), runtime.Version())

	dir := ""
	switch *trace {
	case "0", "":
	case "1":
		dir = defaultTraceDir
	default:
		dir = *trace
	}
	var values []map[string]float64
	if dir == "" {
		measure(runs, *seconds)
		for _, r := range runs {
			values = append(values, r.endToEnd())
			r.report(stderr, values[len(values)-1])
		}
	} else {
		vs, err := traced(runs, *seconds, dir, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		values = vs
	}

	if *writeExp {
		outputs := map[string]map[string]string{}
		for _, r := range runs {
			outputs[r.w.name] = r.ref
		}
		if err := writeExpected(expectedPath, outputs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: wrote %s\n", expectedPath)
	}

	defs := endToEnd
	if dir != "" {
		defs = perLayer
	}
	return summarize(runs, defs, values, stdout)
}

// summarize prints the one-line JSON result, the last line of the output,
// and returns the exit code: 1 when any operation failed.
func summarize(runs []*wlRun, defs []metric, values []map[string]float64, stdout io.Writer) int {
	res := result{Metrics: map[string]metricValue{}}
	for i, r := range runs {
		res.Attempted += r.attempted
		res.Failed += len(r.problems)
		for _, m := range defs {
			key := m.name
			if len(runs) > 1 {
				key = r.w.name + "/" + m.name
			}
			res.Metrics[key] = metricValue{Value: finite(values[i][m.name]), Unit: m.unit}
		}
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		return 1 // unreachable: finite values and string keys always marshal
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON summary printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// wlRun is one workload's run: its warm-up outputs, its measured passes and
// every failed operation.
type wlRun struct {
	w        *workload
	seed     uint64
	expected *expectedFile // nil unless the seed is expectedSeed

	ref       map[string]string // outputs of the warm-up pass
	passes    []*pass           // measured passes; traced ones in a traced run
	plain     []*pass           // untraced passes of a traced run
	attempted int
	problems  []string

	// Traced run only: CPU share and span self time per layer, and the GC's
	// share of CPU time.
	shares  map[string]float64
	self    map[string]time.Duration
	gcShare float64
}

// runPass runs one pass and checks its outputs against the warm-up pass.
func (r *wlRun) runPass(tr *tracer) *pass {
	p := newPass(r.seed, tr)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("bench." + r.w.name)
	start := time.Now()
	r.w.run(p)
	p.wall = time.Since(start)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	if t := p.totals["sim.run_program"].Seconds(); t > 0 {
		p.counters["sim.events_per_s"] = p.counters["sim.events"] / t
	}

	r.attempted += p.ops
	r.problems = append(r.problems, p.problems...)
	if r.ref == nil {
		r.ref = p.records
		if r.expected != nil {
			r.problems = append(r.problems, checkExpected(*r.expected, r.w.name, p.records)...)
		}
	} else {
		r.problems = append(r.problems, diffRecords("against the first pass", r.ref, p.records)...)
	}
	return p
}

// repeat runs passes until they have taken about seconds, and at least
// least of them.
func (r *wlRun) repeat(tr *tracer, seconds float64, least int) []*pass {
	var ps []*pass
	start := time.Now()
	for {
		ps = append(ps, r.runPass(tr))
		el := time.Since(start).Seconds()
		if len(ps) >= least && el*(1+0.5/float64(len(ps))) >= seconds {
			return ps
		}
	}
}

// measure runs one discarded warm-up pass of every workload, then measured
// passes round-robin across the workloads, so that drift on the host
// reaches each of them alike, until each has had about seconds.
func measure(runs []*wlRun, seconds float64) {
	off := newTracer(false)
	for _, r := range runs {
		r.runPass(off)
	}
	budget := seconds * float64(len(runs))
	start := time.Now()
	for round := 1; ; round++ {
		for _, r := range runs {
			r.passes = append(r.passes, r.runPass(off))
		}
		el := time.Since(start).Seconds()
		if round >= minPasses && el*(1+0.5/float64(round)) >= budget {
			return
		}
	}
}

func (r *wlRun) endToEnd() map[string]float64 {
	var wall, setup, alloc, simT []float64
	for _, p := range r.passes {
		wall = append(wall, p.wall.Seconds())
		setup = append(setup, p.setup.Seconds())
		alloc = append(alloc, float64(p.alloc)/1e6)
		simT = append(simT, geomean(p.sim)*1e6)
	}
	return map[string]float64{
		"wall_s":      median(wall),
		"setup_s":     median(setup),
		"alloc_mb":    median(alloc),
		"sim_time_us": median(simT),
	}
}

// traced runs the traced variant of each workload in turn: a warm-up pass,
// untraced passes for half the time, then traced passes under the CPU
// profiler for the other half. It writes the spans and the profiles to
// dir, prints the per-layer table and returns each workload's per-layer
// metrics.
func traced(runs []*wlRun, seconds float64, dir string, log io.Writer) ([]map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	off, tr := newTracer(false), newTracer(true)
	var out []map[string]float64
	for _, r := range runs {
		r.runPass(off)
		r.plain = r.repeat(off, seconds/2, 2)
		path := filepath.Join(dir, r.w.name+".cpu.pprof")
		from := len(tr.spans)
		if err := r.profile(path, func() { r.passes = r.repeat(tr, seconds/2, 2) }); err != nil {
			return nil, err
		}
		r.self = selfTimes(tr.spans, from)
		v := r.layerValues()
		r.layerReport(log, v)
		out = append(out, v)
	}
	tp := filepath.Join(dir, "trace.json")
	if err := writeTrace(tp, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: wrote %s and the CPU profiles to %s\n", tp, dir)
	return out, nil
}

// profile runs f under the CPU profiler, writing the profile to path, and
// attributes its samples and the GC's CPU time to layers.
func (r *wlRun) profile(path string, f func()) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	gc0, total0 := cpuSeconds()
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	f()
	pprof.StopCPUProfile()
	gc1, total1 := cpuSeconds()
	if err := file.Close(); err != nil {
		return err
	}
	if total1 > total0 {
		r.gcShare = 100 * (gc1 - gc0) / (total1 - total0)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r.shares, err = cpuShares(raw)
	return err
}

// cpuSeconds returns the runtime's estimate of CPU seconds spent in GC and
// in total so far.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// layerValues computes the per-layer metrics from the traced passes.
func (r *wlRun) layerValues() map[string]float64 {
	v := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range r.passes {
			if span, ok := strings.CutSuffix(m.name, "_s"); ok && m.unit == "s" {
				xs = append(xs, p.totals[span].Seconds())
			} else {
				xs = append(xs, p.counters[m.name])
			}
		}
		v[m.name] = median(xs)
	}
	for layer, share := range r.shares {
		v[layer+".cpu_share"] = share
	}
	var gcs, tracedWall, plainWall []float64
	for _, p := range r.passes {
		gcs = append(gcs, float64(p.gcCycles))
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	for _, p := range r.plain {
		plainWall = append(plainWall, p.wall.Seconds())
	}
	v["runtime.gc_cpu_share"] = r.gcShare
	v["runtime.gc_cycles"] = median(gcs)
	v["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	return v
}

// report prints one workload's end-to-end metrics with their spread across
// passes, and the time per pass spent in each kind of call.
func (r *wlRun) report(log io.Writer, v map[string]float64) {
	fmt.Fprintf(log, "\n%s: %d measured passes after 1 warm-up, %d ops attempted, %d failed\n",
		r.w.name, len(r.passes), r.attempted, len(r.problems))
	series := map[string][]float64{}
	for _, p := range r.passes {
		series["wall_s"] = append(series["wall_s"], p.wall.Seconds())
		series["setup_s"] = append(series["setup_s"], p.setup.Seconds())
		series["alloc_mb"] = append(series["alloc_mb"], float64(p.alloc)/1e6)
	}
	for _, m := range endToEnd {
		line := fmt.Sprintf("  %-30s %14.6g %-6s", m.name, v[m.name], m.unit)
		if xs := series[m.name]; len(xs) > 1 {
			line += fmt.Sprintf("  IQR %.3g (%.1f%%)  N=%d", iqr(xs), 100*iqr(xs)/v[m.name], len(xs))
		}
		fmt.Fprintln(log, line)
	}
	fmt.Fprintf(log, "  %-30s %.3f\n", "wall_s per pass", series["wall_s"])
	calls := map[string][]float64{}
	for _, p := range r.passes {
		for name, d := range p.totals {
			calls[name] = append(calls[name], d.Seconds())
		}
	}
	names := make([]string, 0, len(calls))
	for name := range calls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "  %-30s %14.6g s/pass  IQR %.1f%%\n", "in "+name, median(calls[name]), 100*iqr(calls[name])/median(calls[name]))
	}
	r.printProblems(log)
}

// layerReport prints the per-layer table of a traced workload: each layer's
// share of the CPU samples, each layer's span self time per pass, then
// every per-layer metric.
func (r *wlRun) layerReport(log io.Writer, v map[string]float64) {
	fmt.Fprintf(log, "\n%s (traced): %d traced passes, %d untraced, tracing overhead %+.1f%%\n",
		r.w.name, len(r.passes), len(r.plain), 100*v["trace.overhead_frac"])
	fmt.Fprintf(log, "  %-16s %9s\n", "layer", "cpu share")
	for _, l := range cpuLayers {
		fmt.Fprintf(log, "  %-16s %8.1f%%\n", l, r.shares[l])
	}
	layers := make([]string, 0, len(r.self))
	for l := range r.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(log, "  %-16s %14s\n", "span layer", "self s/pass")
	for _, l := range layers {
		fmt.Fprintf(log, "  %-16s %14.4f\n", l, r.self[l].Seconds()/float64(len(r.passes)))
	}
	for _, m := range perLayer {
		if !strings.HasSuffix(m.name, ".cpu_share") {
			fmt.Fprintf(log, "  %-30s %14.6g %s\n", m.name, v[m.name], m.unit)
		}
	}
	r.printProblems(log)
}

func (r *wlRun) printProblems(log io.Writer) {
	for i, pr := range r.problems {
		if i == 20 {
			fmt.Fprintf(log, "  ... and %d more failed ops\n", len(r.problems)-i)
			return
		}
		fmt.Fprintf(log, "  FAILED: %s\n", pr)
	}
}
