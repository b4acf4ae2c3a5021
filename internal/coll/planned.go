package coll

import (
	"fmt"
	"sync"

	"yhccl/internal/memcopy"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
)

// Planner is a machine's tuned-plan dispatch state: the loaded plan table
// plus lazily compiled graphs for the searched "fanout" family. One Planner
// is built per machine (facade: yhccl.AttachPlans) and attached via
// mpi.Machine.SetTuning — the per-call cost is a single table lookup.
type Planner struct {
	table *plan.Table

	// graphs caches compiled fanout DAGs keyed by (collective, p, fanout).
	// Guarded: ranks are concurrent goroutines inside a simulation run.
	mu     sync.Mutex
	graphs map[graphKey]*plan.Graph
}

type graphKey struct {
	coll string
	p    int
	f    int
}

// NewPlanner wraps a loaded plan table for dispatch.
func NewPlanner(t *plan.Table) *Planner {
	return &Planner{table: t, graphs: make(map[graphKey]*plan.Graph)}
}

// Table exposes the underlying plan table (examples, diagnostics).
func (pl *Planner) Table() *plan.Table { return pl.table }

// PlannerOf returns the machine's attached Planner, or nil when it runs on
// hand-tuned dispatch.
func PlannerOf(m *mpi.Machine) *Planner {
	pl, _ := m.Tuning().(*Planner)
	return pl
}

// fanoutGraph returns the compiled fanout DAG of a collective, lowering
// and caching it on first use.
func (pl *Planner) fanoutGraph(collective string, p, f int) (*plan.Graph, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	k := graphKey{collective, p, f}
	if g, ok := pl.graphs[k]; ok {
		return g, nil
	}
	g, err := lowerFanout(collective, p, f)
	if err == nil {
		pl.graphs[k] = g
	}
	return g, err
}

// lowerFanout lowers schedule.Fanout(p, f) to the collective's DAG (only
// all-reduce and reduce-scatter have a fanout lowering).
func lowerFanout(collective string, p, f int) (*plan.Graph, error) {
	if p < 2 {
		return nil, fmt.Errorf("coll: fanout schedule needs at least 2 ranks, got %d", p)
	}
	switch collective {
	case "allreduce":
		return plan.AllreduceFromSchedule(schedule.Fanout(p, f))
	case "reduce-scatter":
		return plan.FromSchedule(schedule.Fanout(p, f))
	}
	return nil, fmt.Errorf("coll: fanout family has no %s lowering", collective)
}

// applyParams overlays a plan's searched parameters onto base options:
// pipeline slice bound, copy policy, RG degree. Unset params keep the
// caller's values, so node-specific defaults still apply.
func applyParams(o Options, pr plan.Params) (Options, error) {
	if pr.SliceKB > 0 {
		o.SliceMaxBytes = pr.SliceKB << 10
	}
	if pr.Policy != "" {
		pol, err := memcopy.ParsePolicy(pr.Policy)
		if err != nil {
			return o, err
		}
		o = o.WithPolicy(pol)
	}
	if pr.RGDegree > 0 {
		o.RGDegree = pr.RGDegree
	}
	return o, nil
}
