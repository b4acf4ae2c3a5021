package cluster_test

import (
	"os"
	"path/filepath"
	"testing"

	"yhccl/internal/cluster"
	"yhccl/internal/fault"
	"yhccl/internal/resilient"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// FuzzClusterPlan requires every cluster fault plan that loads and
// validates on a 4x8 world to run armed and supervised without a panic:
// RunArmed on a compiled all-reduce returns a result or an error, a
// completed run is never shorter than the healthy one, and
// SuperviseCluster returns a report. With raw set, the fuzzed bytes are
// the plan file. Otherwise a plan built from the fuzzed fields goes
// through fault.SaveClusterPlan, so the file passes the checksum and the
// fields reach Validate; kinds selects its faults (bit 0 a crash of
// crashNode, 1 a link degrade and 2 a straggler on slowNode, 3 a
// corruption, 4 a heal of crashNode, 5 a link heal of slowNode). `go
// test` runs the seed corpus, which includes the checksummed plans under
// testdata/fuzz/FuzzClusterPlan; `go test -fuzz=FuzzClusterPlan` explores
// further.
func FuzzClusterPlan(f *testing.F) {
	shape := fault.ClusterShape{Nodes: 4, PerNode: 8}
	c := cluster.New(topo.NodeA(), shape.Nodes, shape.PerNode, cluster.IB100())
	job := resilient.ClusterJob{Coll: cluster.CollAllreduce, Alg: cluster.YHCCLHierarchical, Elems: 1 << 16}
	prog, err := c.Compile(job.Coll, job.Alg, job.Elems, job.Opts)
	if err != nil {
		f.Fatal(err)
	}
	healthy, err := sim.RunProgramEvent(prog)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, []byte(`{"format_version": 1}`), uint8(0), 0, int64(0), int64(0), 0, 0.0, 0, 0)
	f.Add(false, []byte(nil), uint8(1), 2, int64(1000), int64(0), 0, 0.0, 0, 0)
	f.Add(false, []byte(nil), uint8(2|4), 0, int64(0), int64(0), 1, 4.0, 0, 0)
	f.Add(false, []byte(nil), uint8(8), 0, int64(0), int64(0), 0, 0.0, 3, 1)
	f.Add(false, []byte(nil), uint8(1|2|16|32), 1, int64(500), int64(2000), 2, 16.0, 0, 0)
	f.Fuzz(func(t *testing.T, raw bool, data []byte, kinds uint8, crashNode int, crashTick, healTick int64,
		slowNode int, factor float64, corruptNode, phase int) {
		path := filepath.Join(t.TempDir(), "plan.json")
		if raw {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			pl := &fault.ClusterPlan{Name: "fuzz", Shape: shape}
			if kinds&1 != 0 {
				pl.Crashes = []fault.NodeCrash{{Node: crashNode, AtTick: crashTick}}
			}
			if kinds&2 != 0 {
				pl.LinkDegrades = []fault.LinkDegrade{{Node: slowNode, Factor: factor}}
			}
			if kinds&4 != 0 {
				pl.Stragglers = []fault.NodeStraggler{{Node: slowNode, Factor: factor}}
			}
			if kinds&8 != 0 {
				pl.Corruptions = []fault.PhaseCorrupt{{Node: corruptNode, Phase: phase}}
			}
			if kinds&16 != 0 {
				pl.Heals = []fault.NodeHeal{{Node: crashNode, AtTick: healTick}}
			}
			if kinds&32 != 0 {
				pl.LinkHeals = []fault.LinkHeal{{Node: slowNode, AtTick: healTick}}
			}
			if err := fault.SaveClusterPlan(path, pl); err != nil {
				return
			}
		}
		pf, err := fault.LoadPlanFile(path)
		if err != nil || pf.Cluster == nil || pf.Cluster.Validate(shape) != nil {
			return
		}
		run, err := cluster.RunArmed(prog, pf.Cluster, 0)
		if err == nil && run.Res.Makespan < healthy.Makespan {
			t.Fatalf("%s: armed makespan %d ticks, below the healthy %d", pf.Cluster, run.Res.Makespan, healthy.Makespan)
		}
		if rep := resilient.SuperviseCluster(c, job, pf.Cluster, resilient.DefaultClusterPolicy()); rep.Outcome == "" {
			t.Fatalf("%s: supervisor returned no outcome", pf.Cluster)
		}
	})
}
