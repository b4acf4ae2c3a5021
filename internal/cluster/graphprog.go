package cluster

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/plan"
	"yhccl/internal/sim"
)

// Lowering of synthesized plan graphs onto the event-schedule substrate.
//
// A plan.Graph is the tuner's chunk-level copy/reduce DAG for one node.
// CompileGraph turns it into a sim.Program: one program step per DAG step,
// executed by its assigned rank in the graph's global topological order.
// In-rank sequencing is the Program contract's implicit C[r][s-1] term;
// only cross-rank producer->consumer edges become explicit dependencies.
// Durations come from the same progCosts copy/reduce pricing the
// hand-written intra-node templates use, so a synthesized plan and a
// hand-written schedule of identical structure compile to tick-identical
// programs — and both engines must agree on the makespan (the parity gate
// extends over these programs too).

// graphStep is one lowered DAG step: its duration plus the cross-rank
// dependencies, resolved to (rank, local step) coordinates.
type graphStep struct {
	dur  sim.Tick
	deps []gdep
}

type gdep struct{ rank, step int }

// graphProgram implements sim.Program for a lowered plan.Graph.
type graphProgram struct {
	ranks int
	// steps[r] is rank r's ordered step list.
	steps [][]graphStep
}

func (gp *graphProgram) Ranks() int { return gp.ranks }

// Step keeps a dependency list per step: a reduce reads two operands, so a
// graph step can wait on two producers.
func (gp *graphProgram) Step(rank, step int, visit func(depRank, depStep int) bool) (sim.Tick, bool) {
	if step >= len(gp.steps[rank]) {
		return 0, false
	}
	st := &gp.steps[rank][step]
	for _, d := range st.deps {
		if !visit(d.rank, d.step) {
			break
		}
	}
	return st.dur, true
}

// CompileGraph lowers a synthesized plan graph over n elements per block
// into an event-schedule program. The graph is an intra-node schedule, so
// the cluster must be single-node with PerNode == g.P.
func (c *Cluster) CompileGraph(g *plan.Graph, n int64) (sim.Program, error) {
	if err := checkElems(n); err != nil {
		return nil, err
	}
	if c.Nodes != 1 {
		return nil, fmt.Errorf("cluster: plan graphs are intra-node schedules (cluster has %d nodes)", c.Nodes)
	}
	if g == nil {
		return nil, fmt.Errorf("cluster: nil plan graph")
	}
	if g.P != c.PerNode {
		return nil, fmt.Errorf("cluster: graph compiled for %d ranks, cluster binds %d per node", g.P, c.PerNode)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	blockBytes := float64(n * memmodel.ElemSize)
	costs := newProgCosts(c.Node, c.Net, g.P, blockBytes*float64(g.Blocks))

	gp := &graphProgram{ranks: g.P, steps: make([][]graphStep, g.P)}
	// producer[slot] = (rank, local step) of the step that wrote the slot.
	type prodAt struct{ rank, step int }
	producer := make([]prodAt, g.Slots)
	for i := range producer {
		producer[i] = prodAt{-1, -1}
	}
	for _, st := range g.Steps {
		r := int(st.R)
		gs := graphStep{}
		// A consumed slot on another rank is a cross-rank dependency and —
		// when the producing rank sits on the other socket — a cross-socket
		// transfer, priced with the progCosts cross factor.
		cross := false
		consume := func(slot int32) {
			p := producer[slot]
			if p.rank < 0 {
				return
			}
			if p.rank != r {
				gs.deps = append(gs.deps, gdep{p.rank, p.step})
			}
			if crossSocket(c.Node, r, p.rank) {
				cross = true
			}
		}
		switch st.Kind {
		case plan.OpCopyIn:
			gs.dur = costs.copyT(blockBytes, false)
		case plan.OpReduce:
			for _, op := range [2]plan.Operand{st.A, st.B} {
				if !op.Own {
					consume(op.Slot)
				}
			}
			gs.dur = costs.reduceT(blockBytes, cross)
		case plan.OpCopyOut:
			consume(st.Src)
			gs.dur = costs.copyT(blockBytes, cross)
		}
		local := len(gp.steps[r])
		gp.steps[r] = append(gp.steps[r], gs)
		if (st.Kind == plan.OpCopyIn || st.Kind == plan.OpReduce) && st.Dst != plan.ToRecv {
			producer[st.Dst] = prodAt{r, local}
		}
	}
	return gp, nil
}
