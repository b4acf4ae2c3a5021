package chaos

import (
	"fmt"
	"io"
	"runtime"

	"yhccl/internal/cluster"
	"yhccl/internal/fault"
	"yhccl/internal/resilient"
	"yhccl/internal/topo"
)

// Cluster-scale chaos: the recovery sweep one level up. Instead of ranks
// inside one machine, whole nodes of a 4k-16k rank event-engine world
// fail — crashes, degraded inter-node lanes, stragglers, transient phase
// corruption — and the cluster supervisor must end every case in a
// classified state: clean-pass, recovered (by recompile, reroute or
// retry), degraded-but-diagnosed, or unrecoverable-but-diagnosed. The
// gate additionally holds the event engine to its flat-memory claim while
// faults are armed: per-rank allocation budgets identical to the healthy
// scale gate, and zero goroutine growth.

// ClusterCase is one cell of the cluster sweep.
type ClusterCase struct {
	Name    string
	Nodes   int
	PerNode int
	Job     resilient.ClusterJob
	Plan    *fault.ClusterPlan
}

func (c ClusterCase) Ranks() int { return c.Nodes * c.PerNode }

func (c ClusterCase) String() string {
	plan := "healthy"
	if !c.Plan.Empty() {
		plan = c.Plan.Name
	}
	return fmt.Sprintf("%s @%dx%d plan=%s", c.Job, c.Nodes, c.PerNode, plan)
}

// Class is the case's fault class — the key of the cluster gate.
func (c ClusterCase) Class() string {
	if c.Plan.Empty() {
		return "healthy"
	}
	return c.Plan.Class()
}

// ClusterResult pairs a case with the supervisor's verdict and the
// measured memory footprint of the whole supervised run (compile, arming,
// every attempt).
type ClusterResult struct {
	Case   ClusterCase
	Report resilient.ClusterReport
	// Runs is the number of armed executions the supervisor performed
	// (initial attempt, retries, recompiles and reroute probes).
	Runs int
	// BytesPerRun / AllocsPerRun are allocation deltas normalized per rank
	// per armed run — directly comparable to the healthy scale gate's
	// per-rank budgets.
	BytesPerRun    float64
	AllocsPerRun   float64
	GoroutineDelta int
}

func (r ClusterResult) class() string              { return r.Case.Class() }
func (r ClusterResult) outcome() resilient.Outcome { return r.Report.Outcome }
func (r ClusterResult) err() error                 { return r.Report.Err }

// RunCluster executes one case under the cluster supervisor and never
// panics: a raw panic escaping the stack is classified UNDIAGNOSED.
func RunCluster(c ClusterCase) (res ClusterResult) {
	res.Case = c
	defer func() {
		if r := recover(); r != nil {
			res.Report = resilient.ClusterReport{
				Job:     c.Job,
				Outcome: resilient.Undiagnosed,
				Err:     fmt.Errorf("chaos: unattributed panic: %v", r),
			}
		}
	}()

	cl := cluster.New(topo.NodeA(), c.Nodes, c.PerNode, cluster.IB100())
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()
	res.Report = resilient.SuperviseCluster(cl, c.Job, c.Plan, resilient.DefaultClusterPolicy())
	g1 := runtime.NumGoroutine()
	runtime.ReadMemStats(&m1)

	res.Runs = len(res.Report.Attempts)
	if res.Runs == 0 {
		res.Runs = 1
	}
	denom := float64(c.Ranks() * res.Runs)
	res.BytesPerRun = float64(m1.TotalAlloc-m0.TotalAlloc) / denom
	res.AllocsPerRun = float64(m1.Mallocs-m0.Mallocs) / denom
	res.GoroutineDelta = g1 - g0
	return res
}

// SweepCluster runs every case in order.
func SweepCluster(cases []ClusterCase) []ClusterResult {
	out := make([]ClusterResult, len(cases))
	for i, c := range cases {
		out[i] = RunCluster(c)
	}
	return out
}

// Flat-memory budgets under faults: identical to the healthy scale gate's
// per-rank budgets, applied per armed run. A per-node goroutine, an
// O(steps) allocation per rank, or a fault wrapper that copies per-rank
// state blows these immediately.
const (
	clusterMaxBytesPerRun  = 512
	clusterMaxAllocsPerRun = 8
)

// DefaultClusterCases builds the sweep: per-class hand-written plans plus
// a seeded band, at 64x64 (4096 ranks) and — unless quick — 256x64
// (16384 ranks).
func DefaultClusterCases(quick bool) []ClusterCase {
	shapes := []struct{ nodes, perNode int }{{64, 64}}
	if !quick {
		shapes = append(shapes, struct{ nodes, perNode int }{256, 64})
	}
	seeds := 8
	if quick {
		seeds = 4
	}

	var cases []ClusterCase
	for _, sh := range shapes {
		hier := resilient.ClusterJob{Coll: cluster.CollAllreduce, Alg: cluster.YHCCLHierarchical, Elems: 1 << 16}
		// Reroute only beats a degraded ring in the latency-dominated
		// regime, where the ring serializes 2(N-1) hops through the slow
		// lane; at bandwidth-bound sizes the ring is per-lane optimal and
		// the honest outcome is degraded-pass.
		ringSmall := resilient.ClusterJob{Coll: cluster.CollAllreduce, Alg: cluster.LeaderRing, Elems: 1 << 10}
		add := func(name string, job resilient.ClusterJob, pl *fault.ClusterPlan) {
			cases = append(cases, ClusterCase{
				Name: name, Nodes: sh.nodes, PerNode: sh.perNode, Job: job, Plan: pl,
			})
		}
		add("healthy", hier, nil)
		add("crash-early", hier, &fault.ClusterPlan{Name: "crash-early",
			Crashes: []fault.NodeCrash{{Node: 3, AtTick: 0}}})
		add("crash-mid", hier, &fault.ClusterPlan{Name: "crash-mid",
			Crashes: []fault.NodeCrash{{Node: sh.nodes / 2, AtTick: 50_000}}})
		add("degrade-latency", ringSmall, &fault.ClusterPlan{Name: "degrade-latency",
			LinkDegrades: []fault.LinkDegrade{{Node: 2, Factor: 12}}})
		add("degrade-bandwidth", hier, &fault.ClusterPlan{Name: "degrade-bandwidth",
			LinkDegrades: []fault.LinkDegrade{{Node: 5, Factor: 4}}})
		add("straggler", hier, &fault.ClusterPlan{Name: "straggler",
			Stragglers: []fault.NodeStraggler{{Node: 7, Factor: 4}}})
		add("corrupt-inter", hier, &fault.ClusterPlan{Name: "corrupt-inter",
			Corruptions: []fault.PhaseCorrupt{{Node: 9, Phase: 1}}})
		shape := fault.ClusterShape{Nodes: sh.nodes, PerNode: sh.perNode}
		for seed := 1; seed <= seeds; seed++ {
			pl := fault.GenClusterPlan(uint64(seed), shape, 1_000_000)
			add(pl.Name, hier, pl)
		}
	}
	return cases
}

// ClusterRecoveryGate returns one violation string per unacceptable
// result: any UNDIAGNOSED outcome anywhere, any unrecoverable node-crash
// or link-degrade case (those classes the policy chain must always
// survive — by recompile, reroute, or a diagnosed degraded pass), a
// healthy case that is not a clean pass, and any case that breaks the
// flat-memory budgets while faults are armed.
func ClusterRecoveryGate(results []ClusterResult) []string {
	var bad []string
	for _, r := range results {
		switch r.Report.Outcome {
		case resilient.Undiagnosed:
			bad = append(bad, fmt.Sprintf("UNDIAGNOSED: %s: %v", r.Case, r.Report.Err))
		case resilient.Unrecoverable:
			if cl := r.Case.Class(); cl == "node-crash" || cl == "link-degrade" {
				bad = append(bad, fmt.Sprintf("unrecoverable %s plan: %s: %v", cl, r.Case, r.Report.Err))
			}
		}
		if r.Case.Class() == "healthy" && r.Report.Outcome != resilient.CleanPass {
			bad = append(bad, fmt.Sprintf("healthy case not clean: %s: %s", r.Case, r.Report.Outcome))
		}
		switch {
		case r.BytesPerRun > clusterMaxBytesPerRun:
			bad = append(bad, fmt.Sprintf("memory: %s: %.0f B/rank/run exceeds budget %d (per-rank state is not flat under faults)",
				r.Case, r.BytesPerRun, clusterMaxBytesPerRun))
		case r.AllocsPerRun > clusterMaxAllocsPerRun:
			bad = append(bad, fmt.Sprintf("memory: %s: %.2f allocs/rank/run exceeds budget %d",
				r.Case, r.AllocsPerRun, clusterMaxAllocsPerRun))
		case r.GoroutineDelta > 2:
			bad = append(bad, fmt.Sprintf("memory: %s: goroutine count grew by %d (arming must not spawn goroutines)",
				r.Case, r.GoroutineDelta))
		}
	}
	return bad
}

// ReportCluster renders the sweep — one line per case, the per-class
// outcome table, and the gate verdict — and returns the number of gate
// violations.
func ReportCluster(w io.Writer, results []ClusterResult) int {
	return ReportClusterJudged(w, results, ClusterRecoveryGate(results))
}

// ReportClusterJudged is ReportCluster with the gate violations bad
// judged by the caller, for results the sweep's gate does not fit (a plan
// replayed at a shape the sweep never runs).
func ReportClusterJudged(w io.Writer, results []ClusterResult, bad []string) int {
	return report(w, "cluster recovery", results, func(_ int, r ClusterResult) string {
		line := fmt.Sprintf("%-24s  %s  runs=%d  %4.0f B/rank/run %5.2f allocs/rank/run",
			r.Report.Outcome, r.Case, r.Runs, r.BytesPerRun, r.AllocsPerRun)
		if len(r.Report.ExcludedNodes) > 0 {
			line += fmt.Sprintf(" excluded=%v", r.Report.ExcludedNodes)
		}
		if len(r.Report.RejoinedNodes) > 0 {
			line += fmt.Sprintf(" rejoined=%v epoch=%d", r.Report.RejoinedNodes, r.Report.FinalEpoch)
		}
		if r.Report.FinalAlg != "" && r.Report.FinalAlg != r.Case.Job.Alg {
			line += fmt.Sprintf(" rerouted=%s", r.Report.FinalAlg)
		}
		return line
	}, bad)
}
