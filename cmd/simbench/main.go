// Command simbench measures the simulator's own performance — the
// engine's control-transfer primitives, the residency tracker's hot
// paths and the wall-clock time of a full quick figure sweep — and
// emits the results as JSON suitable for checking in as BENCH_sim.json.
//
// Usage:
//
//	go run ./cmd/simbench            # full run, JSON on stdout
//	go run ./cmd/simbench -skip-fig  # micro-benchmarks only
//	go run ./cmd/simbench -skip-fig -compare BENCH_sim.json
//	                                 # re-run and fail on >15% regression
//	go run ./cmd/simbench -skip-fig -count 5
//	                                 # run the micro set 5 times round-robin;
//	                                 # report medians, minima and IQRs
//	go run ./cmd/simbench -engine-compare
//	                                 # run the full engine parity matrix and
//	                                 # fail on any makespan divergence
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"yhccl/internal/bench"
	"yhccl/internal/cluster"
	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/serve"
	"yhccl/internal/sim"
	"yhccl/internal/sim/micro"
	"yhccl/internal/topo"
	"yhccl/internal/tune"
)

// result is one benchmark's measurement. With several samples (-count k)
// NsPerOp is their median and MinNsPerOp/IQRNsPerOp describe the spread;
// both are omitted for a single sample.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MinNsPerOp  float64 `json:"min_ns_per_op,omitempty"`
	IQRNsPerOp  float64 `json:"iqr_ns_per_op,omitempty"`
}

type report struct {
	GoVersion          string            `json:"go_version"`
	GOOS               string            `json:"goos"`
	GOARCH             string            `json:"goarch"`
	NumCPU             int               `json:"num_cpu"`
	GOMAXPROCS         int               `json:"gomaxprocs"`
	EngineParityCases  int               `json:"engine_parity_cases,omitempty"`
	Benchmarks         map[string]result `json:"benchmarks"`
	PlanCacheEntries   int               `json:"plan_cache_entries,omitempty"`
	Fig11aQuickSeconds float64           `json:"fig11a_quick_wall_seconds,omitempty"`
}

// run measures one benchmark sample and logs it, with any counts the
// benchmark reports.
func run(name string, f func(b *testing.B)) testing.BenchmarkResult {
	r := testing.Benchmark(f)
	ns := nsPerOp(r)
	fmt.Fprintf(os.Stderr, "%-24s %10.1f ns/op %14.0f ops/sec", name, ns, 1e9/ns)
	for _, unit := range slices.Sorted(maps.Keys(r.Extra)) {
		fmt.Fprintf(os.Stderr, " %12.0f %s", r.Extra[unit], unit)
	}
	fmt.Fprintln(os.Stderr)
	return r
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// summarize folds one benchmark's samples into its result: the median of
// each figure, plus the minimum and interquartile range of ns/op when there
// is more than one sample.
func summarize(samples []testing.BenchmarkResult) result {
	ns := make([]float64, len(samples))
	bytes := make([]float64, len(samples))
	allocs := make([]float64, len(samples))
	for i, r := range samples {
		ns[i] = nsPerOp(r)
		bytes[i] = float64(r.AllocedBytesPerOp())
		allocs[i] = float64(r.AllocsPerOp())
	}
	q1, med, q3 := quartiles(ns)
	res := result{
		NsPerOp:     med,
		OpsPerSec:   1e9 / med,
		BytesPerOp:  int64(median(bytes)),
		AllocsPerOp: int64(median(allocs)),
	}
	if len(samples) > 1 {
		res.MinNsPerOp = slices.Min(ns)
		res.IQRNsPerOp = q3 - q1
	}
	return res
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(n=4), the method
// perfbench reports its spreads with. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Sorted(slices.Values(xs))
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	d := slices.Sorted(slices.Values(xs))
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// modelWarm drives the residency tracker's insert path through Model.Warm
// with a working set 4x the cache capacity, so steady state evicts on
// every insert.
func modelWarm(b *testing.B) {
	node := topo.NodeA()
	m := memmodel.New(node, []int{0})
	pages := 4 * node.L3PerSocket / 4096
	buf := m.NewBuffer("bench", memmodel.Private, 0, pages*4096, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i) % pages * 4096
		m.Warm(0, buf, off, 4096)
	}
}

// modelLoad measures Model.Load of fully-resident data on a running sim
// proc — the per-chunk hot path of every collective.
func modelLoad(b *testing.B) {
	node := topo.NodeA()
	m := memmodel.New(node, []int{0})
	const span = 1 << 20
	buf := m.NewBuffer("bench", memmodel.Private, 0, span, false)
	m.Warm(0, buf, 0, span)
	e := sim.NewEngine()
	n := b.N
	e.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			off := int64(i%256) * 4096
			m.Load(p, 0, buf, off, 512)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// coroutineDPML measures one warm, model-only DPML all-reduce of 8 MB on
// NodeA with 64 ranks: every rank streams runs of fused copies and
// reductions through the shared residency trackers, so the coroutine
// engine's per-sub-charge scheduling dominates, as in the paper's 64 MB
// baseline. It reports the engine's run-queue pops and coroutine resumes,
// and the residency trackers' evictions and index seeks, per all-reduce.
func coroutineDPML(b *testing.B) {
	const n = int64(8<<20) / memmodel.ElemSize
	m := mpi.NewMachine(topo.NodeA(), 64, false)
	body := func(r *mpi.Rank) {
		sb := r.PersistentBuffer("sb", n)
		rb := r.PersistentBuffer("rb", n)
		r.Warm(sb, 0, n)
		coll.AllreduceDPML(r, r.World(), sb, rb, n, mpi.Sum, coll.Options{})
	}
	m.MustRun(body) // warm-up: buffers, shared segments, residency
	before := m.Model.TrackerCounts()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		m.MustRun(body)
	}
	counts := m.RunCounts()
	tracked := m.Model.TrackerCounts().Sub(before)
	b.ReportMetric(float64(counts.Pops), "pops/op")
	b.ReportMetric(float64(counts.Resumes), "resumes/op")
	b.ReportMetric(float64(tracked.Evictions)/float64(b.N), "evictions/op")
	b.ReportMetric(float64(tracked.Seeks)/float64(b.N), "seeks/op")
}

// eventPostPop drives the event calendar's push/pop hot path at a rolling
// depth of 1024 entries — cluster-typical (one in-flight event per rank
// wavefront).
func eventPostPop(b *testing.B) {
	e := sim.NewEventEngine()
	var now sim.Tick
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Post(now+sim.Tick(i%97), int32(i&1023), 0)
		if e.Pending() >= 1024 {
			e.Run(func(t sim.Tick, _, _ int32) { now = t })
		}
	}
}

// planLookup measures the per-call plan-table dispatch: one bucket index
// plus an edge clamp. This is the hot path every tuned collective pays, so
// it must stay O(1) with zero allocations (AllocsPerOp is asserted in CI
// via the checked-in BENCH_sim.json showing 0).
func planLookup(b *testing.B) {
	var entries []plan.Plan
	for _, c := range plan.Colls() {
		for bkt := plan.Bucket(64 << 10); bkt <= plan.Bucket(256<<20); bkt++ {
			entries = append(entries, plan.Plan{
				Collective: c.String(), Bucket: bkt, SizeBytes: plan.BucketSize(bkt),
				Params: plan.Params{Family: "socket-ma"},
			})
		}
	}
	tab, err := plan.NewTable(entries)
	if err != nil {
		b.Fatal(err)
	}
	sizes := [8]int64{4 << 10, 64 << 10, 640 << 10, 2 << 20, 13 << 20, 64 << 20, 256 << 20, 1 << 30}
	b.ReportAllocs()
	b.ResetTimer()
	var sink *plan.Plan
	for i := 0; i < b.N; i++ {
		sink = tab.Lookup(plan.Allreduce, sizes[i&7])
	}
	_ = sink
}

// planCacheEntries is the plan count of plan_synthesize's last tuner run.
var planCacheEntries int

// planSynthesize measures one cold quick-budget tuner run at a small rank
// count — the offline cost a `make tune -quick` pays per machine.
func planSynthesize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache, err := tune.Tune(tune.Config{Node: topo.NodeA(), Ranks: 4, Quick: true, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		planCacheEntries = len(cache.Plans)
	}
}

// serveAdmission measures the pure scheduling cost of the multi-tenant
// admission/placement engine — a 256-job saturating stream with an oracle
// supplying service times, so no simulation runs. One op = one full
// stream (admission, placement, fluid rate updates, completion).
func serveAdmission(b *testing.B) {
	node := topo.NodeA()
	oracle := func(spec serve.JobSpec, perSocket, ext []int) float64 {
		s := 1e-3 * float64(spec.Ranks) * float64(spec.Calls)
		for sk := range perSocket {
			if perSocket[sk] > 0 && ext[sk] > 0 {
				s *= 1 + 0.1*float64(ext[sk])
			}
		}
		return s
	}
	arrivals, err := serve.GenStream(serve.StreamConfig{
		Seed: 42, Mix: serve.DefaultMix(), Jobs: 256, Rate: 2000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := serve.NewScheduler(node, serve.PlaceAuto)
		s.SetServiceOracle(oracle)
		if _, err := s.Run(arrivals); err != nil {
			b.Fatal(err)
		}
	}
}

// serveMixedLoad measures one cold sim-backed load point of the default
// mix at a saturating rate — the cost `make serve` pays per swept rate,
// including the memoized service-time measurements.
func serveMixedLoad(b *testing.B) {
	node := topo.NodeA()
	cfg := serve.StreamConfig{Seed: 42, Mix: serve.DefaultMix(), Jobs: 20, Rate: 1600}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lp, err := serve.RunLoad(node, serve.PlaceAuto, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if lp.Jobs != cfg.Jobs {
			b.Fatalf("completed %d of %d jobs", lp.Jobs, cfg.Jobs)
		}
	}
}

// clusterCrossoverProgram is the shared compiled schedule both program
// benchmarks interpret: the fig16b config (16 nodes x 64 ranks, 2 MB), the
// apples-to-apples crossover between engines.
func clusterCrossoverProgram() sim.Program {
	c := cluster.New(topo.NodeA(), 16, 64, cluster.IB100())
	prog, err := c.CompileAllreduce(cluster.YHCCLHierarchical, (2<<20)/8, cluster.ScheduleOptions{})
	if err != nil {
		panic(err)
	}
	return prog
}

func programEngine(kind sim.EngineKind) func(b *testing.B) {
	return func(b *testing.B) {
		prog := clusterCrossoverProgram()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunProgram(kind, prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// clusterFaultOverhead measures the healthy armed path: the crossover
// program run through the cluster fault layer with no plan armed. The
// figure of merit is the delta against program_event — arming must cost
// ~nothing when nothing is injected, or every healthy sweep pays for it.
// A cluster's membership epoch labels the supervisor's attempts and is not
// carried by the compiled program, so a cluster several epochs in runs
// this same program: this is also the healthy path of an epoch-stamped
// world.
func clusterFaultOverhead(b *testing.B) {
	prog := clusterCrossoverProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.RunArmed(prog, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterRecompile measures a membership-change compile: a fresh
// hierarchical-allreduce schedule over the 63 survivors of a 64-node
// cluster — the setup cost every recovered-by-recompile attempt pays before
// it can re-run. A rejoin pays the same compile one epoch later, back at
// full membership.
func clusterRecompile(b *testing.B) {
	node := topo.NodeA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cluster.New(node, 63, 64, cluster.IB100())
		if _, err := c.CompileAllreduce(cluster.YHCCLHierarchical, 1<<16, cluster.ScheduleOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// engineCompare runs both engines over the shared parity matrix and fails
// on any makespan divergence — the gate, invocable from CI.
func engineCompare(verbose bool) (int, error) {
	results, err := cluster.VerifyParity(cluster.ParityCases())
	if err != nil {
		return 0, err
	}
	if verbose {
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "parity %-44s %14d ticks  %8d events\n", r.Name, r.Makespan, r.Events)
		}
	}
	return len(results), nil
}

// micros is the micro-benchmark set, in run order. Its names are exactly
// the benchmark keys of the committed BENCH_sim.json
// (TestMicrosMatchBaseline), so -compare never passes over a micro that
// has no baseline.
var micros = []struct {
	name string
	f    func(b *testing.B)
}{
	{"engine_yield", micro.EngineYield},
	{"engine_yield_fast", micro.EngineYieldFast},
	{"engine_flag_wait", micro.EngineFlagWait},
	{"engine_barrier", micro.EngineBarrier},
	{"engine_mixed", micro.EngineMixed},
	{"engine_lockstep64", micro.EngineLockstep64},
	{"event_post_pop", eventPostPop},
	{"event_lockstep", micro.EventLockstep},
	{"program_event", programEngine(sim.EngineEvent)},
	{"program_coroutine", programEngine(sim.EngineCoroutine)},
	{"model_warm", modelWarm},
	{"model_load", modelLoad},
	{"coroutine_dpml", coroutineDPML},
	{"plan_lookup", planLookup},
	{"plan_synthesize", planSynthesize},
	{"serve_admission", serveAdmission},
	{"serve_mixed_load", serveMixedLoad},
	{"cluster_fault_overhead", clusterFaultOverhead},
	{"cluster_recompile", clusterRecompile},
}

func main() {
	os.Exit(realMain())
}

// realMain carries main's body so deferred profile writers run before the
// process exits with a failure code.
func realMain() int {
	var (
		skipFig   = flag.Bool("skip-fig", false, "skip the fig11a quick wall-clock run")
		compare   = flag.String("compare", "", "baseline JSON to diff against; exit non-zero on regression")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional ns/op regression for -compare (widened to 3 IQR/median where the baseline records an IQR)")
		count     = flag.Int("count", 1, "run the micro-benchmark set this many times round-robin and report per-benchmark medians, minima and IQRs")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		engCmp    = flag.Bool("engine-compare", false, "run the engine parity matrix (both engines, all shared configs) and exit; nonzero on divergence")
	)
	flag.Parse()

	if *count < 1 {
		fmt.Fprintln(os.Stderr, "simbench: -count must be at least 1")
		return 1
	}

	if *engCmp {
		n, err := engineCompare(true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "simbench: %d configs, event == coroutine makespans on all\n", n)
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		f.Close()
	}()

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]result{},
	}
	// Round-robin, so host drift during the run reaches every benchmark
	// alike instead of landing on whichever ran last.
	samples := make([][]testing.BenchmarkResult, len(micros))
	for range *count {
		for i, m := range micros {
			samples[i] = append(samples[i], run(m.name, m.f))
		}
	}
	for i, m := range micros {
		rep.Benchmarks[m.name] = summarize(samples[i])
	}
	rep.PlanCacheEntries = planCacheEntries

	fmt.Fprintf(os.Stderr, "running engine parity matrix...\n")
	nParity, err := engineCompare(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	rep.EngineParityCases = nParity

	if !*skipFig {
		fmt.Fprintf(os.Stderr, "running fig11a quick sweep...\n")
		start := time.Now()
		if _, err := bench.Run("fig11a", true); err != nil {
			fmt.Fprintf(os.Stderr, "fig11a: %v\n", err)
			return 1
		}
		rep.Fig11aQuickSeconds = time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "fig11a quick: %.1f s\n", rep.Fig11aQuickSeconds)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(out))

	if *compare != "" {
		if err := compareBaseline(os.Stderr, *compare, *tolerance, rep); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "simbench: within %.0f%% of %s\n", *tolerance*100, *compare)
	}
	return 0
}

// regressionLimit is the fractional ns/op slowdown beyond which a benchmark
// counts as regressed: the tolerance, widened to 3 IQR/median when the
// baseline recorded a spread, so a benchmark that is noisy on the baseline
// host does not fail on noise alone.
func regressionLimit(base result, tolerance float64) float64 {
	if base.IQRNsPerOp > 0 && base.NsPerOp > 0 {
		return max(tolerance, 3*base.IQRNsPerOp/base.NsPerOp)
	}
	return tolerance
}

// compareBaseline diffs the fresh measurements against a checked-in
// baseline JSON, writing one line per benchmark to w in name order, and
// reports an error when any shared micro-benchmark regressed beyond its
// regressionLimit (or the fig11a wall clock, when both runs measured it,
// beyond the tolerance). Benchmarks present on only one side, or with no
// baseline ns/op, are reported but do not fail the comparison, so the
// baseline file and the benchmark set can evolve independently.
func compareBaseline(w io.Writer, path string, tolerance float64, fresh report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	names := slices.Collect(maps.Keys(base.Benchmarks))
	for name := range fresh.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	var regressions []string
	for _, name := range names {
		b, inBase := base.Benchmarks[name]
		f, inFresh := fresh.Benchmarks[name]
		switch {
		case !inFresh:
			fmt.Fprintf(w, "compare: %s only in baseline, skipped\n", name)
			continue
		case !inBase:
			fmt.Fprintf(w, "compare: %s only in this run, no baseline\n", name)
			continue
		case b.NsPerOp <= 0:
			fmt.Fprintf(w, "compare: %s has no baseline ns/op, skipped\n", name)
			continue
		}
		ratio := f.NsPerOp/b.NsPerOp - 1
		limit := regressionLimit(b, tolerance)
		widened := ""
		if limit > tolerance {
			widened = fmt.Sprintf(" limit %.1f%% from the baseline IQR", limit*100)
		}
		fmt.Fprintf(w, "compare: %-24s %10.1f -> %10.1f ns/op (%+.1f%%)%s\n",
			name, b.NsPerOp, f.NsPerOp, ratio*100, widened)
		if ratio > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s %.1f%% slower", name, ratio*100))
		}
	}
	if base.Fig11aQuickSeconds > 0 && fresh.Fig11aQuickSeconds > 0 {
		ratio := fresh.Fig11aQuickSeconds/base.Fig11aQuickSeconds - 1
		fmt.Fprintf(w, "compare: %-24s %10.1f -> %10.1f s      (%+.1f%%)\n",
			"fig11a_quick", base.Fig11aQuickSeconds, fresh.Fig11aQuickSeconds, ratio*100)
		if ratio > tolerance {
			regressions = append(regressions,
				fmt.Sprintf("fig11a_quick %.1f%% slower", ratio*100))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("regression beyond %.0f%%: %s",
			tolerance*100, strings.Join(regressions, "; "))
	}
	return nil
}
