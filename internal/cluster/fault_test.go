package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"yhccl/internal/fault"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

func testCluster(t *testing.T, nodes, perNode int) *Cluster {
	t.Helper()
	return New(topo.NodeA(), nodes, perNode, IB100())
}

func compileT(t *testing.T, c *Cluster, coll string, alg Algorithm, n int64) sim.Program {
	t.Helper()
	prog, err := c.Compile(coll, alg, n, ScheduleOptions{})
	if err != nil {
		t.Fatalf("compile %s/%s: %v", coll, alg, err)
	}
	return prog
}

// An empty or nil plan must leave the armed path bit-identical to the
// healthy event-engine run — same makespan, same event count.
func TestArmedHealthyBitIdentical(t *testing.T) {
	c := testCluster(t, 8, 8)
	for _, alg := range Algorithms() {
		for _, coll := range []string{CollAllreduce, CollBcast, CollAllgather} {
			prog := compileT(t, c, coll, alg, 1<<16)
			want, err := sim.RunProgramEvent(prog)
			if err != nil {
				t.Fatalf("%s/%s healthy: %v", coll, alg, err)
			}
			for _, plan := range []*fault.ClusterPlan{nil, {Name: "empty"}} {
				run, err := RunArmed(prog, plan, 0)
				if err != nil {
					t.Fatalf("%s/%s armed empty: %v", coll, alg, err)
				}
				if run.Res.Makespan != want.Makespan || run.Res.Events != want.Events {
					t.Fatalf("%s/%s: armed empty run diverged: %+v vs %+v", coll, alg, run.Res, want)
				}
				if len(run.Events) != 0 {
					t.Fatalf("%s/%s: empty plan fired events %v", coll, alg, run.Events)
				}
			}
		}
	}
}

func TestNodeCrashPoisonsAndDiagnoses(t *testing.T) {
	c := testCluster(t, 8, 8)
	prog := compileT(t, c, CollAllreduce, YHCCLHierarchical, 1<<16)
	plan := &fault.ClusterPlan{Name: "crash2", Crashes: []fault.NodeCrash{{Node: 2, AtTick: 0}}}
	run, err := RunArmed(prog, plan, 0)
	if err == nil {
		t.Fatalf("crashed run completed: %+v", run.Res)
	}
	var cerr *ClusterRunError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *ClusterRunError, got %T: %v", err, err)
	}
	if len(cerr.DeadNodes) != 1 || cerr.DeadNodes[0] != 2 {
		t.Fatalf("diagnosis names dead nodes %v, want [2]", cerr.DeadNodes)
	}
	if cerr.RanksPoisoned == 0 {
		t.Fatalf("no state machines reported poisoned: %v", cerr)
	}
	found := false
	for _, ev := range run.Events {
		if ev.Kind == "node-crash" && ev.Node == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("event log missing node-crash for node 2: %v", run.Events)
	}
}

func TestLateCrashNeverFires(t *testing.T) {
	c := testCluster(t, 8, 8)
	prog := compileT(t, c, CollAllreduce, YHCCLHierarchical, 1<<16)
	healthy, err := sim.RunProgramEvent(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Crash scheduled far beyond the makespan: the run completes untouched.
	plan := &fault.ClusterPlan{Name: "late",
		Crashes: []fault.NodeCrash{{Node: 2, AtTick: int64(healthy.Makespan) * 10}}}
	run, err := RunArmed(prog, plan, 0)
	if err != nil {
		t.Fatalf("late crash halted the run: %v", err)
	}
	if run.Res.Makespan != healthy.Makespan {
		t.Fatalf("late crash changed makespan: %d vs %d", run.Res.Makespan, healthy.Makespan)
	}
}

func TestLinkDegradeAndStragglerSlowButComplete(t *testing.T) {
	c := testCluster(t, 8, 8)
	for _, alg := range []Algorithm{YHCCLHierarchical, LeaderRing, LeaderTree, FlatRing} {
		prog := compileT(t, c, CollAllreduce, alg, 1<<18)
		healthy, err := sim.RunProgramEvent(prog)
		if err != nil {
			t.Fatal(err)
		}
		for name, plan := range map[string]*fault.ClusterPlan{
			"degrade":   {Name: "deg", LinkDegrades: []fault.LinkDegrade{{Node: 3, Factor: 8}}},
			"straggler": {Name: "str", Stragglers: []fault.NodeStraggler{{Node: 3, Factor: 4}}},
		} {
			run, err := RunArmed(prog, plan, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, name, err)
			}
			if run.Res.Makespan <= healthy.Makespan {
				t.Fatalf("%s/%s: makespan %d not slower than healthy %d",
					alg, name, run.Res.Makespan, healthy.Makespan)
			}
			if len(run.Events) == 0 {
				t.Fatalf("%s/%s: no arming events logged", alg, name)
			}
		}
	}
}

func TestPhaseCorruptFiresAndDiagnoses(t *testing.T) {
	c := testCluster(t, 8, 8)
	prog := compileT(t, c, CollAllreduce, YHCCLHierarchical, 1<<16)
	healthy, err := sim.RunProgramEvent(prog)
	if err != nil {
		t.Fatal(err)
	}
	for phase := 0; phase < fault.ClusterPhases; phase++ {
		plan := &fault.ClusterPlan{Name: fmt.Sprintf("corrupt-p%d", phase),
			Corruptions: []fault.PhaseCorrupt{{Node: 5, Phase: phase}}}
		run, err := RunArmed(prog, plan, 0)
		var cerr *ClusterRunError
		if !errors.As(err, &cerr) {
			t.Fatalf("phase %d: want *ClusterRunError, got %v", phase, err)
		}
		if cerr.CorruptNode != 5 || cerr.CorruptPhase != phase {
			t.Fatalf("phase %d: diagnosis names node %d phase %d",
				phase, cerr.CorruptNode, cerr.CorruptPhase)
		}
		// Corruption changes the payload, not the schedule: timing is intact.
		if run.Res.Makespan != healthy.Makespan {
			t.Fatalf("phase %d: corruption changed makespan %d vs %d",
				phase, run.Res.Makespan, healthy.Makespan)
		}
		if len(run.Events) != 1 || run.Events[0].Kind != "phase-corrupt" || run.Events[0].Tick <= 0 {
			t.Fatalf("phase %d: bad event log %v", phase, run.Events)
		}
	}
}

func TestWatchdogHorizon(t *testing.T) {
	c := testCluster(t, 8, 8)
	prog := compileT(t, c, CollAllreduce, YHCCLHierarchical, 1<<16)
	plan := &fault.ClusterPlan{Name: "slow", Stragglers: []fault.NodeStraggler{{Node: 0, Factor: 8}}}
	_, err := RunArmed(prog, plan, 2) // two ticks: nothing real finishes
	var cerr *ClusterRunError
	if !errors.As(err, &cerr) || !cerr.HorizonHit {
		t.Fatalf("want horizon diagnosis, got %v", err)
	}
}

// Same plan, two cold runs: byte-identical injector logs and identical
// makespans, for every cluster fault class.
func TestArmedDeterminism(t *testing.T) {
	c := testCluster(t, 8, 8)
	prog := compileT(t, c, CollAllreduce, YHCCLHierarchical, 1<<16)
	plans := []*fault.ClusterPlan{
		{Name: "crash", Crashes: []fault.NodeCrash{{Node: 1, AtTick: 1000}}},
		{Name: "degrade", LinkDegrades: []fault.LinkDegrade{{Node: 2, Factor: 6}}},
		{Name: "straggler", Stragglers: []fault.NodeStraggler{{Node: 3, Factor: 3}}},
		{Name: "corrupt", Corruptions: []fault.PhaseCorrupt{{Node: 4, Phase: 1}}},
	}
	for _, plan := range plans {
		run1, err1 := RunArmed(prog, plan, 0)
		run2, err2 := RunArmed(prog, plan, 0)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: errors diverge: %v vs %v", plan.Name, err1, err2)
		}
		if err1 != nil && err1.Error() != err2.Error() {
			t.Fatalf("%s: diagnoses diverge:\n%v\n%v", plan.Name, err1, err2)
		}
		if run1.Res.Makespan != run2.Res.Makespan {
			t.Fatalf("%s: makespans diverge: %d vs %d", plan.Name, run1.Res.Makespan, run2.Res.Makespan)
		}
		log1 := fmt.Sprintf("%v", run1.Events)
		log2 := fmt.Sprintf("%v", run2.Events)
		if log1 != log2 {
			t.Fatalf("%s: event logs diverge:\n%s\n%s", plan.Name, log1, log2)
		}
	}
}

func TestRunArmedValidatesPlan(t *testing.T) {
	c := testCluster(t, 4, 8)
	prog := compileT(t, c, CollAllreduce, YHCCLHierarchical, 1<<12)
	plan := &fault.ClusterPlan{Name: "oob", Crashes: []fault.NodeCrash{{Node: 99, AtTick: 0}}}
	if _, err := RunArmed(prog, plan, 0); err == nil {
		t.Fatal("out-of-range plan accepted")
	}
	wrongShape := &fault.ClusterPlan{Name: "shape",
		Shape:   fault.ClusterShape{Nodes: 16, PerNode: 2},
		Crashes: []fault.NodeCrash{{Node: 1, AtTick: 0}}}
	if _, err := RunArmed(prog, wrongShape, 0); err == nil {
		t.Fatal("wrong-shape plan accepted")
	}
}

// A corruption on a node that runs no step of the program can never fire:
// RunArmed rejects it before running, with an error that wraps
// fault.ErrPlanRange and names the node, instead of completing clean.
func TestCorruptionOnIdleNodeRejected(t *testing.T) {
	type shape struct {
		nodes, perNode int
		coll           string
		alg            Algorithm
	}
	var shapes []shape
	// The root node of a bcast on N x 1 only sends.
	for _, alg := range Algorithms() {
		shapes = append(shapes, shape{4, 1, CollBcast, alg})
	}
	// A lone rank runs nothing at all.
	for _, alg := range Algorithms() {
		for _, coll := range []string{CollAllreduce, CollBcast, CollAllgather} {
			shapes = append(shapes, shape{1, 1, coll, alg})
		}
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("%s/%s/%dx%d", sh.coll, sh.alg, sh.nodes, sh.perNode)
		prog := compileT(t, testCluster(t, sh.nodes, sh.perNode), sh.coll, sh.alg, 1<<12)
		for phase := 0; phase < fault.ClusterPhases; phase++ {
			plan := &fault.ClusterPlan{Name: "idle",
				Corruptions: []fault.PhaseCorrupt{{Node: 0, Phase: phase}}}
			run, err := RunArmed(prog, plan, 0)
			if !errors.Is(err, fault.ErrPlanRange) {
				t.Fatalf("%s phase %d: error %v does not wrap fault.ErrPlanRange", name, phase, err)
			}
			if !strings.Contains(err.Error(), "node 0") {
				t.Fatalf("%s phase %d: error %q does not name the node", name, phase, err)
			}
			if len(run.Events) != 0 || run.CorruptNode != -1 {
				t.Fatalf("%s phase %d: rejected plan still ran: %+v", name, phase, run)
			}
		}
		if sh.nodes > 1 {
			// Every other node receives, so a corruption there fires.
			plan := &fault.ClusterPlan{Name: "recv",
				Corruptions: []fault.PhaseCorrupt{{Node: 1, Phase: 1}}}
			if run, err := RunArmed(prog, plan, 0); err == nil || run.CorruptNode != 1 {
				t.Fatalf("%s: corruption on receiving node 1 did not fire: %+v, %v", name, run, err)
			}
		}
	}
}
