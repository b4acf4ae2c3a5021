// Fault arming for compiled cluster schedules. A fault.ClusterPlan is
// lowered onto a compiled program as pure arithmetic: node straggler
// dilation and link-degrade repricing become a Step wrapper that reprices
// durations (the dependency structure is untouched, so the armed run stays
// a valid execution of the same schedule), node crashes become per-rank
// poison ticks consumed by the armed event interpreter, and phase
// corruptions become completion hooks that fire at the exact tick the
// victim node's phase step completes. With an empty plan the wrapper is
// bypassed entirely and the run is bit-identical to the healthy path — the
// 183-case parity matrix never sees any of this machinery.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"yhccl/internal/fault"
	"yhccl/internal/sim"
)

// nodePhased is implemented by compiled cluster programs that expose their
// node and phase structure to the fault armer.
type nodePhased interface {
	sim.Program
	// Shape returns the node decomposition of the program's rank space.
	Shape() fault.ClusterShape
	// StepPhase places one existing step in the composition: its canonical
	// phase (0 = intra phase A, 1 = inter-node, 2 = intra phase C), the
	// ticks of its duration carried on an inter-node lane (0 for pure intra
	// steps; the part a degraded link reprices), and the node at the far
	// end of that lane (-1 for intra steps).
	StepPhase(rank, step int) (phase int, laneTicks sim.Tick, farNode int)
}

// --- nodePhased implementations for the compiled program kinds ---

func (cp *clusterProgram) Shape() fault.ClusterShape {
	return fault.ClusterShape{Nodes: cp.nodes, PerNode: cp.perNode}
}

func (cp *clusterProgram) StepPhase(rank, step int) (int, sim.Tick, int) {
	node, local := rank/cp.perNode, rank%cp.perNode
	g := step - cp.aLen(node, local)
	switch {
	case g < 0:
		return 0, 0, -1
	case g < cp.bLen(node, local):
		_, lane, far := cp.interStep(node, local, g, nil)
		return 1, lane, far
	}
	return 2, 0, -1
}

func (fp *flatRingProgram) Shape() fault.ClusterShape {
	return fault.ClusterShape{Nodes: fp.ranks / fp.perNode, PerNode: fp.perNode}
}

func (fp *flatRingProgram) StepPhase(rank, step int) (int, sim.Tick, int) {
	if !fp.interStep(rank) {
		return 0, 0, -1
	}
	lo, hi := fp.hopRange(step)
	return 1, sim.Tick(hi-lo) * fp.interExtra, ((rank - 1 + fp.ranks) % fp.ranks) / fp.perNode
}

func (ft *flatTreeProgram) Shape() fault.ClusterShape {
	return fault.ClusterShape{Nodes: ft.ranks / ft.perNode, PerNode: ft.perNode}
}

func (ft *flatTreeProgram) StepPhase(rank, _ int) (int, sim.Tick, int) {
	if !ft.crossNode(rank) {
		return 0, 0, -1
	}
	return 1, ft.interDur, ft.src(rank) / ft.perNode
}

// armedProgram reprices a compiled program under a cluster plan: link
// degradation inflates the inter-lane portion of affected hops, node
// straggler dilation stretches every step charged to the node. Dependencies,
// step counts and rank space are untouched.
type armedProgram struct {
	nodePhased
	perNode int
	// linkFactor[node] > 1 degrades the node's lane; 0/1 = healthy.
	linkFactor []float64
	// dilate[node] > 1 stretches the node's virtual time; 0/1 = healthy.
	dilate []float64
}

func (ap *armedProgram) Step(rank, step int, visit func(depRank, depStep int) bool) (sim.Tick, bool) {
	d, ok := ap.nodePhased.Step(rank, step, visit)
	if !ok {
		return 0, false
	}
	node := rank / ap.perNode
	if _, lane, far := ap.nodePhased.StepPhase(rank, step); lane > 0 {
		f := ap.linkFactor[node]
		if far >= 0 && ap.linkFactor[far] > f {
			f = ap.linkFactor[far]
		}
		if f > 1 {
			// Ceil so a degraded lane is never free, even on tiny hops.
			d += sim.Tick(math.Ceil(float64(lane) * (f - 1)))
		}
	}
	if dil := ap.dilate[node]; dil > 1 {
		d = sim.Tick(math.Ceil(float64(d) * dil))
	}
	return d, true
}

// ClusterRunError is the deterministic diagnosis of a faulty cluster run:
// it names the dead nodes (crash), the degraded lanes and straggler nodes
// that were armed, and the node/phase where the result diverged (transient
// corruption). A run that completes slow-but-correct under degradation does
// not error; a poisoned or diverging run does.
type ClusterRunError struct {
	Plan *fault.ClusterPlan

	// DeadNodes are nodes whose state machines were poisoned mid-run.
	DeadNodes []int
	// RanksPoisoned counts individual state machines that died.
	RanksPoisoned int

	// DegradedLanes / StragglerNodes report what was armed on the run.
	DegradedLanes  []int
	StragglerNodes []int

	// CorruptNode/CorruptPhase name the diverging phase (-1 when none).
	CorruptNode  int
	CorruptPhase int

	// HorizonHit reports the no-progress watchdog fired at tick HaltTick.
	HorizonHit bool
	HaltTick   sim.Tick

	Finished int
	Total    int
	// Waiting samples stuck dependency edges ("rank@step->rank@step").
	Waiting []string
}

func (e *ClusterRunError) Error() string {
	s := "cluster: "
	switch {
	case len(e.DeadNodes) > 0:
		s += fmt.Sprintf("run halted: dead node(s) %v, %d state machines poisoned, %d of %d ranks finished",
			e.DeadNodes, e.RanksPoisoned, e.Finished, e.Total)
	case e.HorizonHit:
		s += fmt.Sprintf("no progress: watchdog horizon exceeded at tick %d, %d of %d ranks finished",
			e.HaltTick, e.Finished, e.Total)
	case e.CorruptNode >= 0:
		s += fmt.Sprintf("result diverges at node %d in the %s phase (transient corruption)",
			e.CorruptNode, fault.ClusterPhaseName(e.CorruptPhase))
	default:
		s += fmt.Sprintf("run halted, %d of %d ranks finished", e.Finished, e.Total)
	}
	if len(e.DegradedLanes) > 0 {
		s += fmt.Sprintf("; degraded lane(s) %v", e.DegradedLanes)
	}
	if len(e.StragglerNodes) > 0 {
		s += fmt.Sprintf("; straggler node(s) %v", e.StragglerNodes)
	}
	if len(e.Waiting) > 0 {
		s += fmt.Sprintf("; waiting: %v", e.Waiting)
	}
	return s
}

// ArmedRun reports one fault-armed execution of a compiled program.
type ArmedRun struct {
	Res    sim.ProgramResult
	Events []fault.ClusterEvent
	// Corrupt events fired: the run completed but its result diverges at
	// CorruptNode/CorruptPhase (-1 when clean).
	CorruptNode  int
	CorruptPhase int
}

// corruptTargets picks, per corruption, the (rank, step) whose completion
// marks the victim node's contribution to the target phase: the last step in
// that phase of the node's lowest-numbered rank that has one. If the node
// runs no step in the requested phase the other phases are tried in a fixed
// order, so a corruption armed on a node that runs any step always fires
// somewhere. A corruption on a node that runs no step of the program could
// never fire; it is rejected with an error wrapping fault.ErrPlanRange.
func corruptTargets(np nodePhased, plan *fault.ClusterPlan) (map[[2]int32]fault.PhaseCorrupt, error) {
	if plan == nil || len(plan.Corruptions) == 0 {
		return nil, nil
	}
	shape := np.Shape()
	out := make(map[[2]int32]fault.PhaseCorrupt, len(plan.Corruptions))
	for _, c := range plan.Corruptions {
		found := false
		for _, ph := range [...]int{c.Phase, 1, 0, 2} {
			for local := 0; local < shape.PerNode && !found; local++ {
				rank := c.Node*shape.PerNode + local
				for step := stepCount(np, rank) - 1; step >= 0; step-- {
					if phase, _, _ := np.StepPhase(rank, step); phase == ph {
						out[[2]int32{int32(rank), int32(step)}] = c
						found = true
						break
					}
				}
			}
			if found {
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: phase-corrupt node %d runs no step of the program, so it can never fire",
				fault.ErrPlanRange, c.Node)
		}
	}
	return out, nil
}

// RunArmed executes a compiled program on the event engine under a cluster
// fault plan. prog must come from one of the Compile* entry points (it has
// to expose its node structure); plan may be nil or empty, in which case the
// program runs unwrapped and the makespan is bit-identical to the healthy
// path. horizon, when > 0, arms the no-progress watchdog.
//
// The returned ArmedRun always carries the injector event log. The error is
// a *ClusterRunError when the run was poisoned (node crash), tripped the
// watchdog, or completed with a diverging phase (corruption); degraded-lane
// and straggler runs complete slow-but-correct with a nil error.
func RunArmed(prog sim.Program, plan *fault.ClusterPlan, horizon sim.Tick) (ArmedRun, error) {
	run := ArmedRun{CorruptNode: -1, CorruptPhase: -1}
	np, ok := prog.(nodePhased)
	if !ok {
		return run, fmt.Errorf("cluster: program %T does not expose node structure for fault arming", prog)
	}
	shape := np.Shape()
	if err := plan.Validate(shape); err != nil {
		return run, err
	}
	targets, err := corruptTargets(np, plan)
	if err != nil {
		return run, err
	}
	inj := fault.NewClusterInjector(plan)
	inj.BeginRun()

	exec := sim.Program(np)
	var faults *sim.ProgramFaults
	if !plan.Empty() {
		linkFactor := make([]float64, shape.Nodes)
		dilate := make([]float64, shape.Nodes)
		armedDils := false
		for _, d := range plan.LinkDegrades {
			linkFactor[d.Node] = d.Factor
			inj.LogArmed("link-degrade", d.Node, d.Factor)
			armedDils = true
		}
		for _, st := range plan.Stragglers {
			dilate[st.Node] = st.Factor
			inj.LogArmed("node-straggler", st.Node, st.Factor)
			armedDils = true
		}
		if armedDils {
			exec = &armedProgram{nodePhased: np, perNode: shape.PerNode,
				linkFactor: linkFactor, dilate: dilate}
		}
		faults = &sim.ProgramFaults{Horizon: horizon}
		if len(plan.Crashes) > 0 {
			crash := make([]sim.Tick, shape.Ranks())
			for i := range crash {
				crash[i] = -1
			}
			for _, c := range plan.Crashes {
				for local := 0; local < shape.PerNode; local++ {
					crash[c.Node*shape.PerNode+local] = sim.Tick(c.AtTick)
				}
			}
			faults.CrashTick = crash
			crashLogged := make([]bool, shape.Nodes)
			faults.OnDead = func(rank int32, at sim.Tick) {
				node := int(rank) / shape.PerNode
				if !crashLogged[node] {
					crashLogged[node] = true
					inj.LogCrash(node, int64(at), shape.PerNode)
				}
			}
		}
		if targets != nil {
			faults.OnComplete = func(rank, step int32, now sim.Tick) {
				if c, ok := targets[[2]int32{rank, step}]; ok {
					inj.LogCorrupt(c.Node, c.Phase, int64(now))
					if run.CorruptNode < 0 {
						run.CorruptNode, run.CorruptPhase = c.Node, c.Phase
					}
				}
			}
		}
	} else if horizon > 0 {
		faults = &sim.ProgramFaults{Horizon: horizon}
	}

	var res sim.ProgramResult
	if faults == nil {
		res, err = sim.RunProgramEvent(exec)
	} else {
		res, err = sim.RunProgramEventArmed(exec, faults)
	}
	run.Res = res
	run.Events = inj.Events()

	if err != nil {
		var halt *sim.ProgramHaltError
		if errors.As(err, &halt) {
			return run, diagnoseHalt(plan, shape, halt, run)
		}
		return run, err
	}
	if run.CorruptNode >= 0 {
		return run, &ClusterRunError{
			Plan:           plan,
			CorruptNode:    run.CorruptNode,
			CorruptPhase:   run.CorruptPhase,
			DegradedLanes:  degradedLanes(plan),
			StragglerNodes: stragglerNodes(plan),
			Finished:       shape.Ranks(),
			Total:          shape.Ranks(),
		}
	}
	return run, nil
}

func degradedLanes(plan *fault.ClusterPlan) []int {
	if plan == nil {
		return nil
	}
	out := make([]int, 0, len(plan.LinkDegrades))
	for _, d := range plan.LinkDegrades {
		out = append(out, d.Node)
	}
	return out
}

func stragglerNodes(plan *fault.ClusterPlan) []int {
	if plan == nil {
		return nil
	}
	out := make([]int, 0, len(plan.Stragglers))
	for _, st := range plan.Stragglers {
		out = append(out, st.Node)
	}
	return out
}

// diagnoseHalt folds a structured sim halt into the cluster-level diagnosis.
func diagnoseHalt(plan *fault.ClusterPlan, shape fault.ClusterShape, halt *sim.ProgramHaltError, run ArmedRun) *ClusterRunError {
	e := &ClusterRunError{
		Plan:           plan,
		RanksPoisoned:  halt.DeadCount,
		DegradedLanes:  degradedLanes(plan),
		StragglerNodes: stragglerNodes(plan),
		CorruptNode:    run.CorruptNode,
		CorruptPhase:   run.CorruptPhase,
		HorizonHit:     halt.HorizonHit,
		HaltTick:       halt.Now,
		Finished:       halt.Finished,
		Total:          halt.Total,
		Waiting:        halt.Waiting,
	}
	if halt.Dead != nil {
		seen := map[int]bool{}
		for rank, dead := range halt.Dead {
			if dead {
				seen[rank/shape.PerNode] = true
			}
		}
		for n := range seen {
			e.DeadNodes = append(e.DeadNodes, n)
		}
		sort.Ints(e.DeadNodes)
	}
	if len(e.DeadNodes) == 0 && !halt.HorizonHit {
		// Survivors stalled without any machine dying here: the plan's
		// crashed nodes never even started (poisoned at tick 0 while parked).
		for _, c := range plan.Crashes {
			e.DeadNodes = append(e.DeadNodes, c.Node)
		}
		sort.Ints(e.DeadNodes)
	}
	return e
}
