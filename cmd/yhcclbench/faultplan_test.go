package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"yhccl/internal/cluster"
	"yhccl/internal/fault"
	"yhccl/internal/resilient"
	"yhccl/internal/topo"
)

// A replayed cluster plan that does not fit the declared -fault-shape is
// rejected with the fault package's typed error BEFORE anything is armed.
func TestReplayRejectsMismatchedShape(t *testing.T) {
	pl := &fault.ClusterPlan{
		Name:    "wide",
		Shape:   fault.ClusterShape{Nodes: 8, PerNode: 4},
		Crashes: []fault.NodeCrash{{Node: 6, AtTick: 100}},
	}
	path := filepath.Join(t.TempDir(), "wide.json")
	if err := fault.SaveClusterPlan(path, pl); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := runFaultReplay(&buf, path, "4x4", 8, false)
	if err == nil {
		t.Fatal("mismatched shape accepted")
	}
	if !errors.Is(err, fault.ErrPlanShape) {
		t.Fatalf("error %v does not wrap fault.ErrPlanShape", err)
	}
}

// An explicit -fault-ranks pins the rank-plan world: a plan naming ranks
// outside it is rejected with the range error before arming.
func TestReplayRejectsRankPlanOutsideWorld(t *testing.T) {
	pl := &fault.Plan{
		Name:        "r6",
		Corruptions: []fault.Corruption{{Rank: 6}},
	}
	path := filepath.Join(t.TempDir(), "r6.json")
	if err := fault.SavePlan(path, pl, 8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := runFaultReplay(&buf, path, "", 4, true)
	if err == nil {
		t.Fatal("rank plan outside -fault-ranks world accepted")
	}
	if !errors.Is(err, fault.ErrPlanRange) {
		t.Fatalf("error %v does not wrap fault.ErrPlanRange", err)
	}
	// Without the explicit flag the file's own recorded world stands.
	buf.Reset()
	if err := runFaultReplay(&buf, path, "", 4, false); err != nil {
		t.Fatalf("replay under the recorded world failed: %v", err)
	}
}

// A phase corruption of node 0 at shape 1x1 passes Validate, but node 0
// runs no step of the program, so RunArmed rejects the plan before arming
// it. Such a plan is diagnosed by construction: supervising the loaded
// file reports it unrecoverable with the range error, and its replay
// prints no UNDIAGNOSED line.
func TestReplayDiagnosesPlanRejectedBeforeArming(t *testing.T) {
	pl := &fault.ClusterPlan{
		Name:        "idle-node",
		Shape:       fault.ClusterShape{Nodes: 1, PerNode: 1},
		Corruptions: []fault.PhaseCorrupt{{Node: 0, Phase: 1}},
	}
	path := filepath.Join(t.TempDir(), "idle.json")
	if err := fault.SaveClusterPlan(path, pl); err != nil {
		t.Fatal(err)
	}
	pf, err := fault.LoadPlanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(topo.NodeA(), 1, 1, cluster.IB100())
	job := resilient.ClusterJob{Coll: cluster.CollAllreduce, Alg: cluster.YHCCLHierarchical, Elems: 1 << 16}
	rep := resilient.SuperviseCluster(c, job, pf.Cluster, resilient.DefaultClusterPolicy())
	if rep.Outcome != resilient.Unrecoverable || !errors.Is(rep.Err, fault.ErrPlanRange) {
		t.Fatalf("outcome %s (%v), want %s wrapping fault.ErrPlanRange", rep.Outcome, rep.Err, resilient.Unrecoverable)
	}
	var buf bytes.Buffer
	if err := runFaultReplay(&buf, path, "", 0, false); err != nil {
		t.Fatalf("replay: %v\n%s", err, buf.String())
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, string(resilient.Undiagnosed)) || strings.Contains(line, "VIOLATION: UNDIAGNOSED") {
			t.Fatalf("replay reports the plan undiagnosed:\n%s", buf.String())
		}
	}
	if !strings.HasPrefix(buf.String(), "replaying") || !strings.Contains(buf.String(), string(resilient.Unrecoverable)) {
		t.Fatalf("replay output names no unrecoverable outcome:\n%s", buf.String())
	}
}

// Plans replayed at shapes the cluster chaos sweep never runs are judged
// without the sweep's per-rank memory budgets, and a node crash the policy
// cannot recompile around (fewer than MinNodes survivors) is an accepted
// Unrecoverable outcome: the seeded 2x2 plans that -fault-save writes and
// hand-built 1x1 and 1x8 plans replay with no violation line.
func TestReplayAtSmallShapesPrintsNoViolation(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for seed := uint64(1); seed <= 6; seed++ {
		path := filepath.Join(dir, fmt.Sprintf("2x2-seed%d.json", seed))
		if err := runFaultSave(io.Discard, path, "2x2", 0, seed); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, pl := range []*fault.ClusterPlan{
		{Name: "crash-1x1", Shape: fault.ClusterShape{Nodes: 1, PerNode: 1},
			Crashes: []fault.NodeCrash{{Node: 0, AtTick: 100}}},
		{Name: "straggler-1x1", Shape: fault.ClusterShape{Nodes: 1, PerNode: 1},
			Stragglers: []fault.NodeStraggler{{Node: 0, Factor: 3}}},
		{Name: "crash-1x8", Shape: fault.ClusterShape{Nodes: 1, PerNode: 8},
			Crashes: []fault.NodeCrash{{Node: 0, AtTick: 100}}},
		{Name: "degrade-1x8", Shape: fault.ClusterShape{Nodes: 1, PerNode: 8},
			LinkDegrades: []fault.LinkDegrade{{Node: 0, Factor: 4}}},
		{Name: "straggler-1x8", Shape: fault.ClusterShape{Nodes: 1, PerNode: 8},
			Stragglers: []fault.NodeStraggler{{Node: 0, Factor: 4}}},
	} {
		path := filepath.Join(dir, pl.Name+".json")
		if err := fault.SaveClusterPlan(path, pl); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		var buf bytes.Buffer
		err := runFaultReplay(&buf, path, "", 0, false)
		if err != nil || strings.Contains(buf.String(), "VIOLATION") {
			t.Errorf("replay of %s: %v\n%s", filepath.Base(path), err, buf.String())
		}
	}
}
