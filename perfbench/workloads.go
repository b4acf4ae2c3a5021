package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"yhccl"
	"yhccl/internal/bench"
	"yhccl/internal/chaos"
	"yhccl/internal/cluster"
	"yhccl/internal/coll"
	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/plan"
	"yhccl/internal/resilient"
	"yhccl/internal/serve"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// workloadNames lists the workloads in the order "-workload all" runs them.
var workloadNames = []string{"node-small", "node-large", "cluster-scale", "recover-serve"}

// workload is one named set of inputs, drawn from the seed once, and the
// pass that runs them.
type workload struct {
	name string
	run  func(p *pass)
}

func newWorkload(name string, seed uint64) (*workload, error) {
	rng := splitmix64(seed)
	switch name {
	case "node-small":
		cases := nodeSmallCases(&rng)
		return &workload{name, func(p *pass) { runNode(p, cases, seedBases(seed)) }}, nil
	case "node-large":
		cases := nodeLargeCases(&rng)
		return &workload{name, func(p *pass) { runNode(p, cases, seedBases(seed)) }}, nil
	case "cluster-scale":
		elems := jitter(&rng, 64<<20) / memmodel.ElemSize
		return &workload{name, func(p *pass) { runClusterScale(p, elems) }}, nil
	case "recover-serve":
		elems := jitter(&rng, (1<<16)*memmodel.ElemSize) / memmodel.ElemSize
		return &workload{name, func(p *pass) { runRecoverServe(p, elems) }}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

// splitmix64 is the generator the benchmark draws its inputs from.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// jitter returns nominal bytes less a seeded offset below 1/2048 of it, in
// whole float64 elements, so sizes under 32 KB keep their nominal value.
// Each seed moves the simulated times a little, while every point stays in
// the regime it was chosen for: size switches (the small-message algorithm
// switch, plan buckets) include their upper edge, so a power of two and the
// sizes just below it fall on the same side. The offset is this small so
// that sim_time_us varies across seeds by far less than its 0.1% bound.
func jitter(rng *splitmix64, nominal int64) int64 {
	return nominal - memmodel.ElemSize*int64(rng.float64()*float64(nominal/memmodel.ElemSize/2048))
}

// fmtFloat prints a float with every digit, so equal strings mean equal bits.
func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// hashLines returns a short digest of an event log.
func hashLines(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// ---- node-small and node-large: steady-state collectives on one node ----

var paperColls = []string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather"}

// nodeCase is one steady-state collective measurement on one node.
type nodeCase struct {
	node  *topo.Node
	ranks int
	coll  string
	// alg is a registry algorithm name, or "tuned" for dispatch through the
	// machine's tuned-plan table.
	alg string
	// bytes is the working set: the message of allreduce, reduce and bcast,
	// the total of reduce-scatter and allgather (bytes/ranks per rank).
	bytes int64
	// real selects data-carrying buffers whose every output is validated.
	real bool
}

func (c nodeCase) key() string {
	return fmt.Sprintf("%s/p%d/%s/%s/%dB", c.node.Name, c.ranks, c.coll, c.alg, c.bytes)
}

// ours reports whether the case runs the library's own dispatch (the
// default algorithm or the tuned plan) rather than a baseline.
func (c nodeCase) ours() bool { return c.alg == "yhccl" || c.alg == "tuned" }

// count is the per-rank element count the request carries.
func (c nodeCase) count() int64 {
	n := c.bytes / memmodel.ElemSize
	if c.coll == "reduce-scatter" || c.coll == "allgather" {
		n /= int64(c.ranks)
	}
	return max(n, 1)
}

type nodeShape struct {
	node  *topo.Node
	ranks int
}

var paperNodes = []nodeShape{{topo.NodeA(), 64}, {topo.NodeB(), 48}}

// nodeSmallCases is the latency regime: 8-256 KB on both paper nodes, each
// collective by default and tuned dispatch, plus the all-reduce baselines.
// Rabenseifner runs only on NodeA: on p=48, not a power of two, coll falls
// back to ring and would repeat the ring case. Points up to 64 KB carry
// real payloads.
func nodeSmallCases(rng *splitmix64) []nodeCase {
	var cases []nodeCase
	for _, sh := range paperNodes {
		for _, nominal := range []int64{8 << 10, 64 << 10, 256 << 10} {
			bytes := jitter(rng, nominal)
			add := func(coll, alg string) {
				cases = append(cases, nodeCase{sh.node, sh.ranks, coll, alg, bytes, nominal <= 64<<10})
			}
			for _, c := range paperColls {
				add(c, "yhccl")
				add(c, "tuned")
			}
			for _, alg := range []string{"dpml", "ring", "rabenseifner", "rg"} {
				if alg != "rabenseifner" || sh.ranks&(sh.ranks-1) == 0 {
					add("allreduce", alg)
				}
			}
		}
	}
	return cases
}

// nodeLargeCases is the bandwidth regime: 64 MB, far past the modelled LLC.
func nodeLargeCases(rng *splitmix64) []nodeCase {
	a, b := paperNodes[0], paperNodes[1]
	bytes := jitter(rng, 64<<20)
	var cases []nodeCase
	for _, c := range paperColls {
		cases = append(cases, nodeCase{a.node, a.ranks, c, "yhccl", bytes, false})
	}
	for _, alg := range []string{"dpml", "ring"} {
		cases = append(cases, nodeCase{a.node, a.ranks, "allreduce", alg, bytes, false})
	}
	return append(cases, nodeCase{b.node, b.ranks, "allreduce", "yhccl", bytes, false})
}

// seedBases returns each rank's FillPattern base for validated runs. The
// values stay integral and far below 2^53, so reductions are exact in any
// order and outputs compare with ==.
func seedBases(seed uint64) []float64 {
	off := int(seed % 1000)
	bases := make([]float64, 64)
	for r := range bases {
		bases[r] = float64((off + r) * 1000)
	}
	return bases
}

// garbage fills every buffer a collective must overwrite, so a stale result
// from the warm-up run cannot pass validation.
const garbage = -1e9

// body returns the per-rank program of one case: fill and warm the buffers
// the way the figure harness does, run the request through yhccl.Exec, and
// validate the output when the case carries data. errs[rank] receives the
// rank's error.
func (c nodeCase) body(bases []float64, errs []error) func(r *yhccl.Rank) {
	n, p := c.count(), int64(c.ranks)
	opts := bench.NodeOptions(c.node)
	op := c.coll + "/" + c.alg
	return func(r *yhccl.Rank) {
		id := r.ID()
		q := yhccl.Req{Collective: c.coll, Count: n, Options: opts}
		if c.alg == "tuned" {
			q.Tuned = true
		} else {
			q.Alg = c.alg
		}
		var check func() error
		switch c.coll {
		case "reduce-scatter":
			q.Send, q.Recv = r.PersistentBuffer("bench/sb", n*p), r.PersistentBuffer("bench/rb", n)
			check = func() error { return coll.ValidateReduceScatterSum(op, id, q.Recv, n, bases[:p]) }
		case "allgather":
			q.Send, q.Recv = r.PersistentBuffer("bench/sb", n), r.PersistentBuffer("bench/rb", n*p)
			check = func() error { return coll.ValidateAllgather(op, id, q.Recv, n, bases[:p]) }
		case "bcast":
			q.Send = r.PersistentBuffer("bench/buf", n)
			check = func() error { return coll.ValidateBcast(op, id, q.Send, n, bases[0]) }
		case "reduce":
			q.Send, q.Recv = r.PersistentBuffer("bench/sb", n), r.PersistentBuffer("bench/rb", n)
			check = func() error { return coll.ValidateReduceSum(op, id, 0, q.Recv, n, bases[:p]) }
		default:
			q.Send, q.Recv = r.PersistentBuffer("bench/sb", n), r.PersistentBuffer("bench/rb", n)
			check = func() error { return coll.ValidateAllreduceSum(op, id, q.Recv, n, bases[:p]) }
		}
		if c.real {
			base := bases[id]
			if c.coll == "bcast" && id != 0 {
				base = garbage
			}
			r.FillPattern(q.Send, base)
			if q.Recv != nil {
				r.FillPattern(q.Recv, garbage)
			}
		}
		r.Warm(q.Send, 0, q.Send.Elems)
		if q.Recv != nil && c.coll != "allgather" {
			r.Warm(q.Recv, 0, q.Recv.Elems)
		}
		if err := yhccl.Exec(r, q); err != nil {
			errs[id] = err
			return
		}
		errs[id] = check()
	}
}

// measure runs one case steady-state, as bench.steadyState does: one run
// to warm the modelled caches, then the measured run. It returns the
// measured makespan in simulated seconds.
func (c nodeCase) measure(p *pass, bases []float64) (float64, bool) {
	p.ops++
	var m *yhccl.Machine
	p.setupCall("mpi.new_machine", func() { m = yhccl.NewMachine(c.node, c.ranks, c.real) })
	errs := make([]error, c.ranks)
	body := c.body(bases, errs)
	var t float64
	var err error
	var before memmodel.Counters
	for run := 0; run < 2 && err == nil; run++ {
		before = m.Model.Counters()
		p.call("mpi.run", func() { t, err = m.Run(body) })
		if err == nil {
			err = errors.Join(errs...)
		}
		p.add("mpi.runs", 1)
		p.add("coll.exec_calls", float64(c.ranks))
	}
	if err != nil {
		p.fail("%s: %v", c.key(), err)
		return 0, false
	}
	d := m.Model.Counters().Sub(before)
	for name, v := range map[string]int64{
		"memmodel.dram_bytes":         d.DRAMTraffic,
		"memmodel.cross_socket_bytes": d.CrossSocketBytes,
		"memmodel.nt_store_bytes":     d.NTStoreBytes,
		"memmodel.rfo_bytes":          d.RFOBytes,
		"memmodel.dav_bytes":          d.DAV(),
		"memmodel.copy_volume_bytes":  d.CopyVolume,
		"memmodel.sync_count":         d.SyncCount,
	} {
		p.add(name, float64(v))
	}
	p.record(c.key(), fmt.Sprintf("t=%s dram=%d cross=%d nt=%d rfo=%d dav=%d copy=%d sync=%d",
		fmtFloat(t), d.DRAMTraffic, d.CrossSocketBytes, d.NTStoreBytes, d.RFOBytes, d.DAV(), d.CopyVolume, d.SyncCount))
	return t, true
}

// tunedKey is the size the plan table indexes a case by.
func (c nodeCase) tunedKey() (plan.Coll, int64) {
	pc, _ := plan.ParseColl(c.coll)
	n := c.count() * memmodel.ElemSize
	if c.coll == "reduce-scatter" {
		n *= int64(c.ranks)
	}
	return pc, n
}

// runNode is one pass of a node workload. Each pass loads the committed
// plan caches, as a fresh process attaching them would, then measures every
// case; bases are the fill values of the cases that carry data.
func runNode(p *pass, cases []nodeCase, bases []float64) {
	tables := map[string]*plan.Table{}
	for _, sh := range paperNodes {
		key := fmt.Sprintf("%s/p%d", sh.node.Name, sh.ranks)
		p.ops++
		var cache *plan.Cache
		var err error
		p.setupCall("plan.load", func() { cache, err = plan.Load(yhccl.PlanDir(), sh.node, sh.ranks) })
		var t *plan.Table
		if err == nil {
			t, err = cache.Table()
		}
		if err != nil {
			p.fail("plan cache %s: %v", key, err)
			continue
		}
		tables[key] = t
	}
	ours := map[string]float64{} // yhccl allreduce time per node and size
	best := map[string]float64{} // best baseline allreduce time
	tuned, hits := 0, 0
	for _, c := range cases {
		t, ok := c.measure(p, bases)
		if !ok {
			continue
		}
		if c.ours() {
			p.sim = append(p.sim, t)
		}
		at := fmt.Sprintf("%s/%d", c.node.Name, c.bytes)
		switch {
		case c.coll != "allreduce":
		case c.alg == "yhccl":
			ours[at] = t
		case !c.ours():
			if b, ok := best[at]; !ok || t < b {
				best[at] = t
			}
		}
		if c.alg == "tuned" {
			tuned++
			pc, size := c.tunedKey()
			if tab := tables[fmt.Sprintf("%s/p%d", c.node.Name, c.ranks)]; tab != nil {
				if lo, hi, ok := tab.Buckets(pc); ok && plan.Bucket(size) >= lo && plan.Bucket(size) <= hi {
					hits++
				}
			}
		}
	}
	var speedups []float64
	for _, c := range cases {
		at := fmt.Sprintf("%s/%d", c.node.Name, c.bytes)
		if c.coll == "allreduce" && c.alg == "yhccl" && best[at] > 0 && ours[at] > 0 {
			speedups = append(speedups, best[at]/ours[at])
		}
	}
	p.counters["coll.speedup_vs_best"] = geomean(speedups)
	if tuned > 0 {
		p.counters["plan.tuned_hit_frac"] = float64(hits) / float64(tuned)
	}
}

// ---- cluster-scale: compiled programs on the event engine ----

type clusterCase struct {
	nodes int
	alg   cluster.Algorithm
}

// clusterCases are the make-scale shapes: the hierarchical composition at
// 16k and 65k ranks against both leader compositions at the same shapes,
// and the leader tree alone at 262144 ranks.
var clusterCases = []clusterCase{
	{256, cluster.YHCCLHierarchical}, {256, cluster.LeaderRing}, {256, cluster.LeaderTree},
	{1024, cluster.YHCCLHierarchical}, {1024, cluster.LeaderRing}, {1024, cluster.LeaderTree},
	{4096, cluster.LeaderTree},
}

// compile builds a 64-rank-per-node NodeA cluster and compiles one
// all-reduce, as set-up.
func compile(p *pass, nodes int, alg cluster.Algorithm, elems int64, o cluster.ScheduleOptions) (sim.Program, error) {
	var c *cluster.Cluster
	p.setupCall("cluster.new", func() { c = cluster.New(topo.NodeA(), nodes, 64, cluster.IB100()) })
	var prog sim.Program
	var err error
	p.setupCall("cluster.compile", func() { prog, err = c.CompileAllreduce(alg, elems, o) })
	return prog, err
}

func runClusterScale(p *pass, elems int64) {
	opts := cluster.ScheduleOptions{RingSteps: 128}
	times := map[clusterCase]float64{}
	for _, c := range clusterCases {
		key := fmt.Sprintf("%s/%dx64/%dB", c.alg, c.nodes, elems*memmodel.ElemSize)
		p.ops++
		prog, err := compile(p, c.nodes, c.alg, elems, opts)
		if err != nil {
			p.fail("%s: compile: %v", key, err)
			continue
		}
		var m0, m1 runtime.MemStats
		var res sim.ProgramResult
		runtime.ReadMemStats(&m0)
		p.call("sim.run_program", func() { res, err = sim.RunProgram(sim.EngineEvent, prog) })
		runtime.ReadMemStats(&m1)
		if err != nil {
			p.fail("%s: %v", key, err)
			continue
		}
		ranks := float64(prog.Ranks())
		p.peak("cluster.bytes_per_rank_run", float64(m1.TotalAlloc-m0.TotalAlloc)/ranks)
		p.peak("cluster.allocs_per_rank", float64(m1.Mallocs-m0.Mallocs)/ranks)
		p.add("sim.events", float64(res.Events))
		p.record(key, fmt.Sprintf("ticks=%d events=%d", res.Makespan, res.Events))
		times[c] = res.Makespan.Seconds()
		if c.alg == cluster.YHCCLHierarchical {
			p.sim = append(p.sim, res.Makespan.Seconds())
		}
	}
	var speedups []float64
	for _, c := range clusterCases {
		t, ok := times[c]
		if c.alg != cluster.YHCCLHierarchical || !ok {
			continue
		}
		ring, okR := times[clusterCase{c.nodes, cluster.LeaderRing}]
		tree, okT := times[clusterCase{c.nodes, cluster.LeaderTree}]
		if okR && okT {
			speedups = append(speedups, min(ring, tree)/t)
		}
	}
	p.counters["cluster.speedup_vs_best"] = geomean(speedups)

	// Engine parity on the fig16b crossover program: the event engine must
	// reproduce the coroutine engine's makespan exactly.
	p.ops++
	prog, err := compile(p, 16, cluster.YHCCLHierarchical, (2<<20)/memmodel.ElemSize, cluster.ScheduleOptions{})
	if err != nil {
		p.fail("parity: compile: %v", err)
		return
	}
	var ev, co sim.ProgramResult
	var errE, errC error
	p.call("sim.run_program", func() { ev, errE = sim.RunProgram(sim.EngineEvent, prog) })
	p.call("sim.run_program_coroutine", func() { co, errC = sim.RunProgram(sim.EngineCoroutine, prog) })
	p.add("sim.events", float64(ev.Events))
	switch {
	case errE != nil || errC != nil:
		p.fail("parity: event: %v, coroutine: %v", errE, errC)
	case ev.Makespan != co.Makespan:
		p.fail("parity: event makespan %d ticks, coroutine %d", ev.Makespan, co.Makespan)
	default:
		p.record("parity/16x64/2MB", fmt.Sprintf("ticks=%d events=%d", ev.Makespan, ev.Events))
	}
}

// ---- recover-serve: cluster supervision and open-loop serving ----

// chaosTenant is the fault-seeded tenant the serve gate adds to the mix.
var chaosTenant = serve.JobSpec{
	Name: "chaos-tenant", Collective: "allreduce", MsgBytes: 256 << 10, Calls: 4,
	Ranks: 4, Placement: serve.PlacePack, Weight: 0.5, FaultSeed: 3,
}

// Serving inputs and limits. Every stream uses the serving gates' arrival
// seed rather than the benchmark's: near saturation the scheduler is
// chaotic, and any other stream, even the same arrivals with message sizes
// 0.4% apart, changes which co-tenancies occur and with them the
// service-time simulations a load point runs, by up to 2x. The rate
// ladder holds each rate to a p99 latency limit and to completions trailing
// arrivals by at most serveSpanLimit, beyond which the backlog grows.
const (
	serveSeed      = 42
	serveP99Limit  = 0.010
	serveSpanLimit = 1.1
)

// recoveryTime returns the virtual seconds a supervised job spent until its
// final outcome: each completed attempt's makespan, the halt tick of each
// attempt a dead node or the watchdog stopped, and for an attempt that
// completed with a corrupted result the final makespan, since the retry
// re-runs the same schedule.
func recoveryTime(rep resilient.ClusterReport) float64 {
	var ticks sim.Tick
	for _, a := range rep.Attempts {
		var ce *cluster.ClusterRunError
		switch {
		case a.Err == nil:
			ticks += a.Makespan
		case errors.As(a.Err, &ce) && (len(ce.DeadNodes) > 0 || ce.HorizonHit):
			ticks += ce.HaltTick
		default:
			ticks += rep.Makespan
		}
	}
	return ticks.Seconds()
}

// runRecoverServe supervises the cluster chaos cases and seeded churn
// cycles at 4096 ranks, then runs the serving gates' load points. The seed
// draws the churn plans and elems, the supervised jobs' element count in
// place of 1<<16 (the chaos cases' counts are scaled by elems/2^16).
func runRecoverServe(p *pass, elems int64) {
	const nodes, perNode = 64, 64
	job := resilient.ClusterJob{Coll: cluster.CollAllreduce, Alg: cluster.YHCCLHierarchical, Elems: elems}

	// The healthy armed run sets the horizon crash ticks are drawn from.
	p.ops++
	prog, err := compile(p, nodes, job.Alg, job.Elems, job.Opts)
	var healthy cluster.ArmedRun
	if err == nil {
		p.call("cluster.run_armed", func() { healthy, err = cluster.RunArmed(prog, nil, 0) })
	}
	if err != nil {
		p.fail("healthy reference run: %v", err)
		return
	}
	p.record("healthy/64x64", fmt.Sprintf("ticks=%d", healthy.Res.Makespan))

	cases := chaos.DefaultClusterCases(true)
	for i := range cases {
		cases[i].Job.Elems = cases[i].Job.Elems * elems >> 16
	}
	chaosCases := len(cases)
	shape := fault.ClusterShape{Nodes: nodes, PerNode: perNode}
	for i := 0; i < 4; i++ {
		var pl *fault.ClusterPlan
		p.setupCall("fault.gen_churn_plan", func() {
			pl = fault.GenChurnPlan(p.seed+uint64(i), shape, int64(healthy.Res.Makespan))
		})
		cases = append(cases, chaos.ClusterCase{Name: pl.Name, Nodes: nodes, PerNode: perNode, Job: job, Plan: pl})
	}
	recovered := 0
	var virt []float64
	for i, c := range cases {
		p.ops++
		var r chaos.ClusterResult
		p.call("resilient.supervise", func() { r = chaos.RunCluster(c) })
		rep := r.Report
		for _, v := range chaos.ClusterRecoveryGate([]chaos.ClusterResult{r}) {
			p.fail("chaos: %s", v)
		}
		if i >= chaosCases && (rep.Outcome != resilient.RecoveredRejoin || rep.FinalNodes != nodes || rep.FinalEpoch != 2) {
			p.fail("churn %s: %s at %d nodes, epoch %d; want recovered-by-rejoin at %d nodes, epoch 2",
				c.Name, rep.Outcome, rep.FinalNodes, rep.FinalEpoch, nodes)
		}
		if rep.Outcome == resilient.CleanPass || rep.Outcome.Recovered() {
			recovered++
		}
		p.add("resilient.attempts", float64(len(rep.Attempts)))
		for _, a := range rep.Attempts {
			switch a.Action {
			case "recompile":
				p.add("resilient.recompiles", 1)
			case "retry":
				p.add("resilient.retries", 1)
			case "rejoin":
				p.add("resilient.rejoins", 1)
			}
			p.add("fault.fired", float64(len(a.Events)))
		}
		vt := recoveryTime(rep)
		virt = append(virt, vt)
		p.sim = append(p.sim, vt)
		p.record("chaos/"+c.Name, fmt.Sprintf("%s ticks=%d attempts=%d epoch=%d nodes=%d alg=%s",
			rep.Outcome, rep.Makespan, len(rep.Attempts), rep.FinalEpoch, rep.FinalNodes, rep.FinalAlg))
	}
	p.counters["resilient.recovered_frac"] = float64(recovered) / float64(len(cases))
	p.counters["resilient.recovery_virtual_ms"] = median(virt) * 1e3

	// The serve gate's sweep: the default mix plus the chaos tenant at a
	// light, a moderate and a saturating rate.
	mix := append(serve.DefaultMix(), chaosTenant)
	for _, rate := range []float64{100, 400, 1600} {
		lp, ok := runLoad(p, "serve/mix", serve.StreamConfig{Seed: serveSeed, Mix: mix, Jobs: 200, Rate: rate})
		switch {
		case !ok:
		case rate < 1600:
			p.sim = append(p.sim, lp.P99)
		default:
			p.counters["serve.p99_ms"] = lp.P99 * 1e3
		}
	}

	// The rate ladder: the highest offered rate served within the latency
	// limit, shedding nothing and without a growing backlog, taken as the
	// last completion trailing the nominal arrival span Jobs/rate by at most
	// serveSpanLimit.
	for rate := 400.0; rate <= 2400; rate += 400 {
		cfg := serve.StreamConfig{Seed: serveSeed, Mix: serve.DefaultMix(), Jobs: 200, Rate: rate}
		lp, ok := runLoad(p, "serve/ladder", cfg)
		if ok && lp.P99 <= serveP99Limit && lp.Shed == 0 && lp.Makespan <= serveSpanLimit*float64(cfg.Jobs)/rate {
			p.counters["serve.max_rate_jps"] = rate
		}
	}

	// The overload point: bounded queue at 1.5x the saturating rate.
	lp, ok := runLoad(p, "serve/overload", serve.StreamConfig{
		Seed: serveSeed, Mix: serve.OverloadMix(), Jobs: 400,
		Rate: serve.OverloadRate, QueueBudget: serve.OverloadQueueBudget,
	})
	if ok && lp.Makespan > 0 {
		p.counters["serve.goodput_jps"] = float64(lp.Jobs-lp.DeadlineViolations) / lp.Makespan
	}

	runCapacityChurn(p)
}

// runLoad runs one open-loop load point. Every arrival is an attempted op;
// an admitted job that misses its deadline or ends UNDIAGNOSED is a failed
// one, while a shed job is admission policy, not a failure.
func runLoad(p *pass, key string, cfg serve.StreamConfig) (serve.LoadPoint, bool) {
	key = fmt.Sprintf("%s/%g", key, cfg.Rate)
	var lp serve.LoadPoint
	var err error
	p.call("serve.run", func() { lp, err = serve.RunLoad(topo.NodeA(), serve.PlaceAuto, cfg, nil) })
	if err != nil {
		p.ops++
		p.fail("%s: %v", key, err)
		return lp, false
	}
	countJobs(p, key, lp.Jobs, lp.Shed, lp.DeadlineViolations, lp.Undiag)
	p.record(key, fmt.Sprintf("jobs=%d shed=%d p99=%s log=%s", lp.Jobs, lp.Shed, fmtFloat(lp.P99), hashLines(lp.EventLog)))
	return lp, true
}

func countJobs(p *pass, key string, admitted, shed, late, undiag int) {
	p.ops += admitted + shed
	p.add("serve.admitted", float64(admitted))
	p.add("serve.shed", float64(shed))
	p.add("serve.deadline_violations", float64(late))
	for i := 0; i < late; i++ {
		p.fail("%s: admitted job missed its deadline", key)
	}
	for i := 0; i < undiag; i++ {
		p.fail("%s: UNDIAGNOSED job", key)
	}
}

// runCapacityChurn drives the deadline mix at 1.2x the saturating rate
// through 8 shrink/grow cycles of 8 cores, as the serving churn gate does:
// a cycle drains the cores at its quarter point and returns them at its
// three-quarter point.
func runCapacityChurn(p *pass) {
	const cycles, drainCores = 8, 8
	node := topo.NodeA()
	cfg := serve.StreamConfig{
		Seed: serveSeed, Mix: serve.OverloadMix(), Jobs: 600,
		Rate: 1.2 * serve.SaturatingRate, QueueBudget: serve.OverloadQueueBudget,
	}
	key := fmt.Sprintf("serve/capacity/%g", cfg.Rate)
	var arrivals []serve.Arrival
	var events []serve.CapacityEvent
	var err error
	p.setupCall("serve.gen_stream", func() {
		arrivals, err = serve.GenStream(cfg)
		if err != nil {
			return
		}
		drain := make([]int, drainCores)
		for i := range drain {
			drain[i] = node.Cores() - drainCores + i
		}
		step := arrivals[len(arrivals)-1].At / cycles
		for i := 0; i < cycles; i++ {
			base := step * float64(i)
			events = append(events,
				serve.CapacityEvent{At: base + 0.25*step, Remove: drain},
				serve.CapacityEvent{At: base + 0.75*step, Add: drain})
		}
	})
	var results []serve.JobResult
	s := serve.NewScheduler(node, serve.PlaceAuto)
	s.SetQueueBudget(cfg.QueueBudget)
	if err == nil {
		p.call("serve.run", func() { results, err = s.RunWithEvents(arrivals, events) })
	}
	if err != nil {
		p.ops++
		p.fail("%s: %v", key, err)
		return
	}
	var admitted, shed, late, undiag int
	var waits []float64
	for _, r := range results {
		if r.Shed {
			shed++
			continue
		}
		admitted++
		waits = append(waits, r.Wait())
		if r.DeadlineMiss() {
			late++
		}
		if r.Outcome == resilient.Undiagnosed {
			undiag++
		}
	}
	countJobs(p, key, admitted, shed, late, undiag)
	p.ops++
	if s.Epochs() != 2*cycles {
		p.fail("%s: applied %d capacity epochs, want %d", key, s.Epochs(), 2*cycles)
	}
	p.counters["serve.capacity_epochs"] = float64(s.Epochs())
	p.counters["serve.wait_p99_ms"] = nearestRank(waits, 0.99) * 1e3
	p.record(key, fmt.Sprintf("jobs=%d shed=%d epochs=%d log=%s", admitted, shed, s.Epochs(), hashLines(s.EventLog())))
}
