package resilient

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"yhccl/internal/cluster"
	"yhccl/internal/fault"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

func testClusterJob() (func() *cluster.Cluster, ClusterJob) {
	mk := func() *cluster.Cluster {
		return cluster.New(topo.NodeA(), 8, 8, cluster.IB100())
	}
	return mk, ClusterJob{Coll: cluster.CollAllreduce, Alg: cluster.YHCCLHierarchical, Elems: 1 << 18}
}

// Healthy pass-through: the supervised makespan equals the direct
// event-engine run exactly.
func TestSuperviseClusterCleanPass(t *testing.T) {
	mk, job := testClusterJob()
	c := mk()
	prog, err := c.Compile(job.Coll, job.Alg, job.Elems, job.Opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunProgramEvent(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep := SuperviseCluster(c, job, nil, DefaultClusterPolicy())
	if rep.Outcome != CleanPass {
		t.Fatalf("outcome %s, want clean-pass: %v", rep.Outcome, rep.Err)
	}
	if rep.Makespan != direct.Makespan {
		t.Fatalf("supervised healthy makespan %d != direct %d", rep.Makespan, direct.Makespan)
	}
	if len(rep.Attempts) != 1 {
		t.Fatalf("healthy run took %d attempts", len(rep.Attempts))
	}
}

func TestSuperviseClusterRecompileAfterCrash(t *testing.T) {
	mk, job := testClusterJob()
	plan := &fault.ClusterPlan{Name: "crash3", Crashes: []fault.NodeCrash{{Node: 3, AtTick: 0}}}
	rep := SuperviseCluster(mk(), job, plan, DefaultClusterPolicy())
	if rep.Outcome != RecoveredRecompile {
		t.Fatalf("outcome %s, want recovered-by-recompile: %v", rep.Outcome, rep.Err)
	}
	if len(rep.ExcludedNodes) != 1 || rep.ExcludedNodes[0] != 3 {
		t.Fatalf("excluded nodes %v, want [3]", rep.ExcludedNodes)
	}
	if rep.FinalNodes != 7 {
		t.Fatalf("final cluster has %d nodes, want 7", rep.FinalNodes)
	}
	if rep.Makespan <= 0 {
		t.Fatalf("no final makespan recorded")
	}
}

func TestSuperviseClusterRerouteOnDegradedLane(t *testing.T) {
	// Reroute pays off in the latency-dominated regime: a ring serializes
	// 2(N-1) hops through the degraded lane where the tree crosses it O(1)
	// times. (At bandwidth-bound sizes the ring is per-lane optimal and the
	// honest outcome is degraded-pass — see TestSuperviseClusterDegradedPass.)
	mk, _ := testClusterJob()
	job := ClusterJob{Coll: cluster.CollAllreduce, Alg: cluster.LeaderRing, Elems: 1 << 10}
	plan := &fault.ClusterPlan{Name: "deg2", LinkDegrades: []fault.LinkDegrade{{Node: 2, Factor: 12}}}
	rep := SuperviseCluster(mk(), job, plan, DefaultClusterPolicy())
	if rep.Outcome != RecoveredReroute {
		t.Fatalf("outcome %s, want recovered-by-reroute: %v", rep.Outcome, rep.Err)
	}
	if rep.FinalAlg != cluster.LeaderTree {
		t.Fatalf("final alg %s, want leader-tree", rep.FinalAlg)
	}
	if rep.Makespan >= rep.DegradedMakespan {
		t.Fatalf("reroute did not improve: %d vs degraded %d", rep.Makespan, rep.DegradedMakespan)
	}
}

// At bandwidth-bound sizes the multi-lane ring already moves the minimum
// bytes over every lane, so no reroute improves on the degraded run: the
// supervisor keeps the slow-but-correct result and reports degraded-pass.
func TestSuperviseClusterDegradedPass(t *testing.T) {
	mk, job := testClusterJob() // yhccl allreduce, 2 MB: bandwidth-bound
	plan := &fault.ClusterPlan{Name: "deg-bw", LinkDegrades: []fault.LinkDegrade{{Node: 2, Factor: 4}}}
	rep := SuperviseCluster(mk(), job, plan, DefaultClusterPolicy())
	if rep.Outcome != DegradedPass {
		t.Fatalf("outcome %s, want degraded-pass: %v", rep.Outcome, rep.Err)
	}
	if rep.Makespan <= 0 {
		t.Fatalf("degraded-pass carries no result makespan")
	}
	if rep.DegradedMakespan == 0 {
		t.Fatalf("no reroute was attempted/measured")
	}
}

func TestSuperviseClusterRetryOnCorruption(t *testing.T) {
	mk, job := testClusterJob()
	plan := &fault.ClusterPlan{Name: "corrupt", Corruptions: []fault.PhaseCorrupt{{Node: 4, Phase: 1}}}
	rep := SuperviseCluster(mk(), job, plan, DefaultClusterPolicy())
	if rep.Outcome != RecoveredClusterRetry {
		t.Fatalf("outcome %s, want recovered-by-retry: %v", rep.Outcome, rep.Err)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("took %d attempts, want 2", len(rep.Attempts))
	}
	// The consumed corruption must not fire on the retry.
	for _, ev := range rep.Attempts[1].Events {
		if ev.Kind == "phase-corrupt" {
			t.Fatalf("corruption fired again on retry: %v", ev)
		}
	}
}

// A crash combined with a surviving-node degrade: the supervisor recompiles
// around the dead node, then reroutes away from the degraded lane.
func TestSuperviseClusterCrashThenDegrade(t *testing.T) {
	mk, job := testClusterJob()
	plan := &fault.ClusterPlan{Name: "combo",
		Crashes:      []fault.NodeCrash{{Node: 1, AtTick: 0}},
		LinkDegrades: []fault.LinkDegrade{{Node: 5, Factor: 12}},
	}
	rep := SuperviseCluster(mk(), job, plan, DefaultClusterPolicy())
	if rep.Outcome != RecoveredReroute && rep.Outcome != RecoveredRecompile {
		t.Fatalf("outcome %s, want a recovered outcome: %v", rep.Outcome, rep.Err)
	}
	if len(rep.ExcludedNodes) != 1 || rep.ExcludedNodes[0] != 1 {
		t.Fatalf("excluded nodes %v, want [1]", rep.ExcludedNodes)
	}
	// The degrade moved with the renumbering: original node 5 is node 4 of
	// the recompiled cluster.
	saw := false
	for _, at := range rep.Attempts {
		if at.Action == "recompile" || at.Action == "reroute" {
			for _, ev := range at.Events {
				if ev.Kind == "link-degrade" && ev.Node == 4 {
					saw = true
				}
			}
		}
	}
	if !saw {
		t.Fatalf("restricted plan lost the degrade after renumbering: %+v", rep.Attempts)
	}
}

func TestSuperviseClusterUnrecoverable(t *testing.T) {
	mk, job := testClusterJob()
	// Recovery disabled: the crash ends diagnosed but unrecoverable.
	plan := &fault.ClusterPlan{Name: "crash0", Crashes: []fault.NodeCrash{{Node: 0, AtTick: 0}}}
	pol := DefaultClusterPolicy()
	pol.AllowRecompile = false
	rep := SuperviseCluster(mk(), job, plan, pol)
	if rep.Outcome != Unrecoverable {
		t.Fatalf("outcome %s, want unrecoverable-but-diagnosed", rep.Outcome)
	}
	if rep.Err == nil {
		t.Fatalf("unrecoverable report carries no diagnosis")
	}

	// Retries exhausted: two corruptions, zero retries allowed.
	plan2 := &fault.ClusterPlan{Name: "corrupt0", Corruptions: []fault.PhaseCorrupt{{Node: 2, Phase: 1}}}
	pol2 := DefaultClusterPolicy()
	pol2.MaxRetries = 0
	rep2 := SuperviseCluster(mk(), job, plan2, pol2)
	if rep2.Outcome != Unrecoverable {
		t.Fatalf("outcome %s, want unrecoverable-but-diagnosed", rep2.Outcome)
	}
}

// A corruption that can never fire (the root node of an N x 1 bcast runs no
// step) is reported like a plan that fails Validate: diagnosed by
// construction, so unrecoverable, with the fault.ErrPlanRange error naming
// the node.
func TestSuperviseClusterRejectsIdleCorruption(t *testing.T) {
	c := cluster.New(topo.NodeA(), 4, 1, cluster.IB100())
	job := ClusterJob{Coll: cluster.CollBcast, Alg: cluster.LeaderTree, Elems: 1 << 12}
	plan := &fault.ClusterPlan{Name: "idle-root", Corruptions: []fault.PhaseCorrupt{{Node: 0, Phase: 1}}}
	rep := SuperviseCluster(c, job, plan, DefaultClusterPolicy())
	if rep.Outcome != Unrecoverable {
		t.Fatalf("outcome %s, want %s", rep.Outcome, Unrecoverable)
	}
	if !errors.Is(rep.Err, fault.ErrPlanRange) || !strings.Contains(rep.Err.Error(), "node 0") {
		t.Fatalf("error %v does not wrap fault.ErrPlanRange naming node 0", rep.Err)
	}
}

// Cluster supervision is deterministic: two cold runs of the same seeded
// plan produce byte-identical attempt logs and outcomes.
func TestSuperviseClusterDeterministic(t *testing.T) {
	mk, job := testClusterJob()
	shape := fault.ClusterShape{Nodes: 8, PerNode: 8}
	for seed := uint64(1); seed <= 8; seed++ {
		plan := fault.GenClusterPlan(seed, shape, 1_000_000)
		render := func() string {
			rep := SuperviseCluster(mk(), job, plan, DefaultClusterPolicy())
			s := fmt.Sprintf("%s makespan=%d\n", rep.String(), rep.Makespan)
			for _, at := range rep.Attempts {
				s += fmt.Sprintf("  %s nodes=%d alg=%s makespan=%d events=%v err=%v\n",
					at.Action, at.Nodes, at.Alg, at.Makespan, at.Events, at.Err)
			}
			return s
		}
		a, b := render(), render()
		if a != b {
			t.Fatalf("seed %d: supervision diverged across cold runs:\n%s\n---\n%s", seed, a, b)
		}
	}
}
