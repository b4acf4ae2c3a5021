package coll

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
)

// Call is one collective invocation: which collective, how its
// implementation is chosen, and the scalar arguments the implementations
// share. Every driver — yhccl.Exec, the figure harness, the tuner, the
// serving and recovery bodies and the OSU CLI — describes a collective with
// a Call; Bind resolves it to a Func, one signature for all nine
// collectives.
type Call struct {
	// Coll is the canonical collective name: "allreduce",
	// "reduce-scatter", "reduce", "bcast", "allgather", "gather",
	// "scatter", "alltoall" or "scan".
	Coll string
	// Params selects the implementation: Family is a registry name ("" is
	// "yhccl") or "fanout" (all-reduce and reduce-scatter, with Fanout
	// set), and the searched overrides are applied to Options.
	Params plan.Params
	// Planner, when non-nil, lets the tuned-plan table choose: its entry
	// for the call's size replaces Params (reduce-scatter is keyed by the
	// total p·N message, the others by N). A collective or size the table
	// does not cover keeps Params.
	Planner *Planner
	// Resilient resolves the entry of Params.Family's fallback chain at
	// Options.FallbackDepth and tags the rank with "collective/algorithm"
	// (mpi.Rank.SetOp) before each run, so a hang or crash inside it is
	// attributed.
	Resilient bool
	// N is the per-rank element count; buffer lengths follow Shape.
	N int64
	// Root is the root rank of reduce, bcast, gather and scatter.
	Root int
	// Op is the reduction of all-reduce, reduce-scatter, reduce and scan;
	// the zero Op is Sum.
	Op      mpi.Op
	Options Options
}

// Func is a bound collective: the implementation Bind resolved, closed over
// the call's N, Root, Op and Options. sb and rb follow Shape; bcast runs in
// place on sb and ignores rb.
type Func func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer)

// args are the arguments a bound Func closes over.
type args struct {
	n    int64
	root int
	op   mpi.Op
	o    Options
}

// registry is one collective's algorithm table, adapted to Func.
type registry interface {
	names() []string
	bind(name string, a args) (Func, error)
}

type algos[F any] struct {
	m     map[string]F
	adapt func(f F, a args) Func
}

func (t algos[F]) names() []string { return Names(t.m) }

func (t algos[F]) bind(name string, a args) (Func, error) {
	f, err := Lookup(t.m, name)
	if err != nil {
		return nil, err
	}
	return t.adapt(f, a), nil
}

// registries maps every collective to its registry.
var registries = map[string]registry{
	"allreduce": algos[ARFunc]{AllreduceAlgos, func(f ARFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.op, a.o) }
	}},
	"reduce-scatter": algos[RSFunc]{ReduceScatterAlgos, func(f RSFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.op, a.o) }
	}},
	"reduce": algos[ReduceFunc]{ReduceAlgos, func(f ReduceFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.op, a.root, a.o) }
	}},
	"bcast": algos[BcastFunc]{BcastAlgos, func(f BcastFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, _ *memmodel.Buffer) { f(r, cm, sb, a.n, a.root, a.o) }
	}},
	"allgather": algos[AGFunc]{AllgatherAlgos, func(f AGFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.o) }
	}},
	"gather": algos[GatherFunc]{GatherAlgos, func(f GatherFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.root, a.o) }
	}},
	"scatter": algos[ScatterFunc]{ScatterAlgos, func(f ScatterFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.root, a.o) }
	}},
	"alltoall": algos[AlltoallFunc]{AlltoallAlgos, func(f AlltoallFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.o) }
	}},
	"scan": algos[ScanFunc]{ScanAlgos, func(f ScanFunc, a args) Func {
		return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) { f(r, cm, sb, rb, a.n, a.op, a.o) }
	}},
}

// Algorithms returns the sorted registry names of a collective (canonical
// name), or nil for an unknown collective.
func Algorithms(collective string) []string {
	if reg, ok := registries[collective]; ok {
		return reg.names()
	}
	return nil
}

// Shape returns one rank's send and receive buffer lengths, in elements,
// on a p-rank communicator. Bcast's receive length is 0: it runs in place
// on the send buffer.
func (c Call) Shape(p int) (send, recv int64) {
	n, all := c.N, int64(p)*c.N
	switch c.Coll {
	case "reduce-scatter", "scatter":
		return all, n
	case "allgather", "gather":
		return n, all
	case "alltoall":
		return all, all
	case "bcast":
		return n, 0
	}
	return n, n
}

// Buffers allocates one rank's buffers for the call on a p-rank
// communicator through alloc (mpi.Rank.NewBuffer or PersistentBuffer),
// labelled prefix+"sb" and prefix+"rb"; bcast gets the single in-place
// buffer prefix+"buf" and a nil rb.
func (c Call) Buffers(p int, prefix string, alloc func(label string, n int64) *memmodel.Buffer) (sb, rb *memmodel.Buffer) {
	send, recv := c.Shape(p)
	if recv == 0 {
		return alloc(prefix+"buf", send), nil
	}
	return alloc(prefix+"sb", send), alloc(prefix+"rb", recv)
}

// Bind resolves the call's implementation for a p-rank communicator, once:
// the plan-table entry when a Planner covers the size, else the
// fallback-chain entry at Options.FallbackDepth when Resilient, else the
// registry name Params.Family. It returns the resolved algorithm name and
// the implementation bound to the call's arguments.
func (c Call) Bind(p int) (string, Func, error) {
	pr := c.Params
	if pl := c.Planner; pl != nil {
		if pc, err := plan.ParseColl(c.Coll); err == nil {
			bytes := c.N * memmodel.ElemSize
			if pc == plan.ReduceScatter {
				bytes *= int64(p)
			}
			if e := pl.table.Lookup(pc, bytes); e != nil {
				pr = e.Params
			}
		}
	}
	if pr.Family == "" {
		pr.Family = "yhccl"
	}
	name := pr.Family
	if c.Resilient {
		name = resolveChain(c.Coll, name, c.Options)
	}
	a := args{n: c.N, root: c.Root, op: c.Op, o: c.Options}
	if a.op.Name == "" {
		a.op = mpi.Sum
	}
	var err error
	if a.o, err = applyParams(a.o, pr); err != nil {
		return name, nil, err
	}
	var f Func
	if name == "fanout" {
		f, err = c.bindFanout(p, pr.Fanout, a)
	} else if reg, ok := registries[c.Coll]; ok {
		f, err = reg.bind(name, a)
	} else {
		err = fmt.Errorf("coll: unknown collective %q", c.Coll)
	}
	if err != nil {
		if c.Resilient {
			err = fmt.Errorf("resilient %s: %w", c.Coll, err)
		}
		return name, nil, err
	}
	if c.Resilient {
		tag, run := c.Coll+"/"+name, f
		f = func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) {
			r.SetOp(tag)
			run(r, cm, sb, rb)
		}
	}
	return name, f, nil
}

// bindFanout binds the searched fanout schedule with fan-out f, compiled
// through the Planner's cache when there is one.
func (c Call) bindFanout(p, f int, a args) (Func, error) {
	if f < 1 {
		return nil, fmt.Errorf("coll: %s: fanout family needs Fanout >= 1, got %d", c.Coll, f)
	}
	var g *plan.Graph
	var err error
	if c.Planner != nil {
		g, err = c.Planner.fanoutGraph(c.Coll, p, f)
	} else {
		g, err = lowerFanout(c.Coll, p, f)
	}
	if err != nil {
		return nil, err
	}
	exec := AllreduceGraph
	if c.Coll == "reduce-scatter" {
		exec = ReduceScatterGraph
	}
	return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer) {
		exec(r, cm, g, sb, rb, a.n, a.op, a.o)
	}, nil
}
