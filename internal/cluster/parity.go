package cluster

import (
	"fmt"

	"yhccl/internal/plan"
	"yhccl/internal/schedule"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// The engine parity gate: every config both engines can run must produce
// tick-identical makespans. Compiled programs are deterministic and both
// interpreters realize the same max-recurrence with exact integer
// arithmetic, so the comparison is equality on ticks, not a tolerance.

// ParityCase is one config of the shared engine-comparison matrix.
type ParityCase struct {
	Name  string
	Clust *Cluster
	Coll  string
	Alg   Algorithm
	Elems int64
	Opts  ScheduleOptions
	// Graph, when non-nil, compiles through CompileGraph instead of the
	// algorithm compiler — the parity gate over synthesized plan DAGs.
	Graph *plan.Graph
}

// parityNode is a small two-socket machine (2 x 2 cores) so the matrix can
// exercise the socket-aware schedule without simulating 64 locals per node.
func parityNode() *topo.Node {
	n := topo.NodeA()
	n.Name = "ParityNode"
	n.CoresPerSocket = 2
	return n
}

// ParityCases returns the shared config matrix: every collective x
// algorithm x intra-kind combination the compiler accepts, across node
// counts that exercise the degenerate (N=1), even and odd ring/tree shapes,
// plus a ring-coarsening case. Rank counts stay small enough for the
// coroutine engine to be comfortable — this is the correctness gate, not
// the scale sweep.
func ParityCases() []ParityCase {
	type shape struct {
		node    *topo.Node
		nodes   int
		perNode int
		intra   IntraKind
	}
	shapes := []shape{
		{topo.NodeA(), 1, 1, IntraAuto},
		{topo.NodeA(), 1, 8, IntraMA},
		{topo.NodeA(), 2, 1, IntraAuto},
		{topo.NodeA(), 3, 8, IntraMA},
		{topo.NodeA(), 4, 8, IntraMA},
		{parityNode(), 4, 4, IntraAuto}, // socket-aware for yhccl, RG for leaders
		{topo.NodeA(), 2, 64, IntraAuto},
	}
	sizes := []int64{2048, 262144} // 16 KB and 2 MB
	var cases []ParityCase
	for _, sh := range shapes {
		cl := New(sh.node, sh.nodes, sh.perNode, IB100())
		for _, alg := range Algorithms() {
			intra := sh.intra
			if alg == LeaderRing || alg == LeaderTree || alg == FlatRing {
				intra = IntraAuto
			}
			for _, coll := range []string{CollAllreduce, CollBcast, CollAllgather} {
				for _, n := range sizes {
					cases = append(cases, ParityCase{
						Name: fmt.Sprintf("%s/%s/%dx%d/%s/n%d",
							coll, alg, sh.nodes, sh.perNode, sh.node.Name, n),
						Clust: cl,
						Coll:  coll,
						Alg:   alg,
						Elems: n,
						Opts:  ScheduleOptions{Intra: intra},
					})
				}
			}
		}
	}
	// Ring coarsening must preserve parity too (both engines execute the
	// same coarsened program).
	coarse := New(topo.NodeA(), 16, 8, IB100())
	for _, alg := range []Algorithm{YHCCLHierarchical, LeaderRing, FlatRing} {
		intra := IntraMA
		if alg == LeaderRing {
			intra = IntraAuto // leader compositions reduce through RG
		}
		cases = append(cases, ParityCase{
			Name:  fmt.Sprintf("allreduce/%s/16x8/coarse8/n65536", alg),
			Clust: coarse,
			Coll:  CollAllreduce,
			Alg:   alg,
			Elems: 65536,
			Opts:  ScheduleOptions{Intra: intra, RingSteps: 8},
		})
	}
	// Synthesized plan graphs: the tuner's DAG shapes (chain lowering,
	// asymmetric fanout, pure copy DAGs) compiled through CompileGraph must
	// hold the same tick-identical parity as hand-written programs.
	mustGraph := func(g *plan.Graph, err error) *plan.Graph {
		if err != nil {
			panic(err)
		}
		return g
	}
	graphs := []struct {
		name  string
		p     int
		graph *plan.Graph
	}{
		{"plan-ma-rs", 8, mustGraph(plan.FromSchedule(schedule.MA(8)))},
		{"plan-fanout-rs", 8, mustGraph(plan.FromSchedule(schedule.Fanout(8, 2)))},
		{"plan-fanout-ar", 8, mustGraph(plan.AllreduceFromSchedule(schedule.Fanout(8, 4)))},
		{"plan-bcast", 8, plan.BcastGraph(8, 0)},
		{"plan-allgather", 4, plan.AllgatherGraph(4)},
		{"plan-socket-rs", 4, mustGraph(plan.FromSchedule(schedule.MA(4)))},
	}
	for _, gc := range graphs {
		node := topo.NodeA()
		if gc.name == "plan-socket-rs" {
			node = parityNode() // 2x2: exercises the cross-socket pricing
		}
		for _, n := range sizes {
			cases = append(cases, ParityCase{
				Name:  fmt.Sprintf("graph/%s/1x%d/n%d", gc.name, gc.p, n),
				Clust: New(node, 1, gc.p, IB100()),
				Coll:  CollAllreduce, // unused: Graph selects the compiler
				Elems: n,
				Graph: gc.graph,
			})
		}
	}
	return cases
}

// compile builds the case's program: through CompileGraph when Graph is
// set, else through the algorithm compiler.
func (pc ParityCase) compile() (sim.Program, error) {
	if pc.Graph != nil {
		return pc.Clust.CompileGraph(pc.Graph, pc.Elems)
	}
	return pc.Clust.Compile(pc.Coll, pc.Alg, pc.Elems, pc.Opts)
}

// ParityResult records one verified config.
type ParityResult struct {
	Name     string
	Makespan sim.Tick
	Events   uint64
}

// VerifyParity compiles every case once and executes it on both engines,
// demanding tick-identical makespans, plus a second event-engine run
// demanding a bit-identical repeat (determinism). It returns the per-case
// results on success and the first divergence as an error.
func VerifyParity(cases []ParityCase) ([]ParityResult, error) {
	results := make([]ParityResult, 0, len(cases))
	for _, pc := range cases {
		prog, err := pc.compile()
		if err != nil {
			return nil, fmt.Errorf("parity %s: compile: %w", pc.Name, err)
		}
		ev, err := sim.RunProgramEvent(prog)
		if err != nil {
			return nil, fmt.Errorf("parity %s: event engine: %w", pc.Name, err)
		}
		co, err := sim.RunProgramCoroutine(prog)
		if err != nil {
			return nil, fmt.Errorf("parity %s: coroutine engine: %w", pc.Name, err)
		}
		if ev.Makespan != co.Makespan {
			return nil, fmt.Errorf("parity %s: makespan divergence: event %d ticks vs coroutine %d ticks (Δ %d)",
				pc.Name, ev.Makespan, co.Makespan, ev.Makespan-co.Makespan)
		}
		if ev.StepsRun != co.StepsRun {
			return nil, fmt.Errorf("parity %s: step-count divergence: event %d vs coroutine %d",
				pc.Name, ev.StepsRun, co.StepsRun)
		}
		ev2, err := sim.RunProgramEvent(prog)
		if err != nil {
			return nil, fmt.Errorf("parity %s: event engine rerun: %w", pc.Name, err)
		}
		if ev2.Makespan != ev.Makespan || ev2.Events != ev.Events {
			return nil, fmt.Errorf("parity %s: event engine nondeterminism: %d/%d vs %d/%d",
				pc.Name, ev.Makespan, ev.Events, ev2.Makespan, ev2.Events)
		}
		results = append(results, ParityResult{Name: pc.Name, Makespan: ev.Makespan, Events: ev.Events})
	}
	return results, nil
}
