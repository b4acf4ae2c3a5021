package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"yhccl/internal/cluster"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// Cluster-scale sweeps on the event-calendar engine: fig16b's experiment
// extended along the rank axis instead of the message axis, with per-rank
// memory footprints measured (not asserted) so the flat-memory claim is
// checkable in CI.

// Footprint is one measured scale run.
type Footprint struct {
	Ranks           int
	Events          uint64
	MakespanSeconds float64
	WallSeconds     float64
	BytesPerRank    float64
	AllocsPerRank   float64
	GoroutineDelta  int
}

// measureScale compiles one collective, executes it on the event engine and
// measures the run's allocation and goroutine footprint via
// runtime.ReadMemStats deltas.
func measureScale(c *cluster.Cluster, alg cluster.Algorithm, n int64, o cluster.ScheduleOptions) (Footprint, error) {
	prog, err := c.CompileAllreduce(alg, n, o)
	if err != nil {
		return Footprint{}, err
	}
	ranks := prog.Ranks()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()
	start := time.Now()
	res, err := sim.RunProgramEvent(prog)
	if err != nil {
		return Footprint{}, err
	}
	wall := time.Since(start)
	g1 := runtime.NumGoroutine()
	runtime.ReadMemStats(&m1)
	return Footprint{
		Ranks:           ranks,
		Events:          res.Events,
		MakespanSeconds: res.Makespan.Seconds(),
		WallSeconds:     wall.Seconds(),
		BytesPerRank:    float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ranks),
		AllocsPerRank:   float64(m1.Mallocs-m0.Mallocs) / float64(ranks),
		GoroutineDelta:  g1 - g0,
	}, nil
}

// note reports the model-determined part of a run (its event count);
// hostNote the part measured on the host, which varies run to run.
func (fp Footprint) note(label string) string {
	return fmt.Sprintf("%s @ %d ranks: %d events", label, fp.Ranks, fp.Events)
}

func (fp Footprint) hostNote(label string) string {
	return fmt.Sprintf("%s @ %d ranks: %.0f B/rank, %.2f allocs/rank, goroutine delta %+d, wall %.1fs",
		label, fp.Ranks, fp.BytesPerRank, fp.AllocsPerRank, fp.GoroutineDelta, fp.WallSeconds)
}

func init() {
	register("fig16scale", "Cluster all-reduce vs world size, 64 ranks/node (NodeA), event engine", fig16scale)
}

// fig16scale sweeps the fig16b experiment along the rank axis: 64 MB
// all-reduce at 16k - 262k ranks, one series per composition. Inter-node
// ring phases are coarsened to 128 macro-steps per rank, which preserves
// makespans exactly (uniform hop durations) while bounding event counts.
func fig16scale(quick bool) (*Figure, error) {
	nodeCounts := []int{256, 1024, 4096} // x64 ranks: 16384, 65536, 262144
	if quick {
		nodeCounts = []int{256, 1024}
	}
	const msgElems = (64 << 20) / 8 // 64 MB of float64
	opts := cluster.ScheduleOptions{RingSteps: 128}
	algs := []struct {
		name string
		alg  cluster.Algorithm
	}{
		{"YHCCL", cluster.YHCCLHierarchical},
		{"Intel MPI", cluster.LeaderRing},
		{"MVAPICH2", cluster.LeaderTree},
	}
	f := &Figure{
		ID: "fig16scale", Title: "Multi-node all-reduce at scale (64 MB, 64 ranks/node)",
		XLabel: "ranks", YLabel: "time (us)", Baseline: "YHCCL",
		Notes: []string{
			fmt.Sprintf("engine=event; inter-node rings coarsened to %d macro-steps (makespan-exact)", opts.RingSteps),
		},
	}
	for range algs {
		f.Series = append(f.Series, Series{})
	}
	for _, nodes := range nodeCounts {
		ranks := nodes * 64
		f.XValues = append(f.XValues, int64(ranks))
		c := cluster.New(topo.NodeA(), nodes, 64, cluster.IB100())
		for i, a := range algs {
			fp, err := measureScale(c, a.alg, msgElems, opts)
			if err != nil {
				return nil, fmt.Errorf("fig16scale %s @ %d ranks: %w", a.name, ranks, err)
			}
			f.Series[i].Name = a.name
			f.Series[i].Y = append(f.Series[i].Y, fp.MakespanSeconds)
			if a.alg == cluster.YHCCLHierarchical {
				f.Notes = append(f.Notes, fp.note(a.name))
				f.HostNotes = append(f.HostNotes, fp.hostNote(a.name))
			}
		}
	}
	return f, nil
}

// ScaleGate is the CI smoke: a 65536-rank hierarchical sweep and a
// 262144-rank leader-tree run must complete on the event engine within
// wall-clock and per-rank memory budgets, with zero goroutine growth. It
// writes its measurements to w and returns the first budget violation.
func ScaleGate(w io.Writer) error {
	const msgElems = (64 << 20) / 8
	checks := []struct {
		label       string
		nodes       int
		alg         cluster.Algorithm
		maxWall     float64 // seconds
		maxPerRank  float64 // allocated bytes per rank
		maxAllocsPR float64
	}{
		// Budgets are ~4x current measurements — loose enough for slow CI
		// hosts, tight enough that a goroutine (8 KB stack) or an O(steps)
		// allocation per rank blows them immediately.
		{"yhccl/65536", 1024, cluster.YHCCLHierarchical, 60, 512, 8},
		{"leader-tree/262144", 4096, cluster.LeaderTree, 60, 512, 8},
	}
	for _, ck := range checks {
		c := cluster.New(topo.NodeA(), ck.nodes, 64, cluster.IB100())
		fp, err := measureScale(c, ck.alg, msgElems, cluster.ScheduleOptions{RingSteps: 128})
		if err != nil {
			return fmt.Errorf("scale gate %s: %w", ck.label, err)
		}
		fmt.Fprintf(w, "scale %-20s %8d ranks  %10d events  wall %6.1fs  %7.0f B/rank  %5.2f allocs/rank  goroutines %+d\n",
			ck.label, fp.Ranks, fp.Events, fp.WallSeconds, fp.BytesPerRank, fp.AllocsPerRank, fp.GoroutineDelta)
		switch {
		case fp.WallSeconds > ck.maxWall:
			return fmt.Errorf("scale gate %s: wall %.1fs exceeds budget %.0fs", ck.label, fp.WallSeconds, ck.maxWall)
		case fp.BytesPerRank > ck.maxPerRank:
			return fmt.Errorf("scale gate %s: %.0f allocated bytes/rank exceeds budget %.0f (per-rank state is not flat)", ck.label, fp.BytesPerRank, ck.maxPerRank)
		case fp.AllocsPerRank > ck.maxAllocsPR:
			return fmt.Errorf("scale gate %s: %.2f allocs/rank exceeds budget %.2f", ck.label, fp.AllocsPerRank, ck.maxAllocsPR)
		case fp.GoroutineDelta > 2:
			return fmt.Errorf("scale gate %s: goroutine count grew by %d (ranks must not spawn goroutines)", ck.label, fp.GoroutineDelta)
		}
	}
	fmt.Fprintln(w, "scale gate: all budgets met")
	return nil
}
