package coll

import (
	"fmt"

	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
)

// This file executes internal/plan chunk-level DAGs on the machine — the
// lowering path for synthesized schedules. Where scheduled.go interprets
// the §3.1 reduce-scatter tree formalism with phase barriers, the graph
// executor is dataflow: each rank walks the topologically ordered step
// list, executing its own steps and waiting on per-slot flags. Because
// every slot's producer precedes all of its consumers in the global order,
// and each rank blocks only on earlier steps, execution is deadlock-free by
// induction on step index — for any graph that passes plan.Validate, which
// executable graphs must (the synthesizer validates at construction).
//
// Messages are pipelined in slices of I elements exactly like the
// hand-written collectives: the whole DAG runs once per chunk, with a
// barrier between chunks protecting slot reuse.

// graphLayout maps a graph's abstract blocks onto concrete buffers:
// per-block offsets into the private send/receive buffers and per-block
// lengths (ragged tails shorten the last block; zero-length blocks are
// executed as pure synchronization).
type graphLayout struct {
	sbOff    func(b int32) int64
	rbOff    func(b int32) int64
	blockLen func(b int32) int64
	// maxBlock is the largest block length (the pipeline chunk domain).
	maxBlock int64
	// workSet is the adaptive-copy working-set estimate in bytes.
	workSet int64
}

// execGraph runs one plan.Graph over the communicator. sb/rb interpretation
// is given by the layout; op applies to OpReduce steps.
func execGraph(r *mpi.Rank, c *mpi.Comm, g *plan.Graph,
	sb, rb *memmodel.Buffer, lay graphLayout, op mpi.Op, o Options) {
	o = o.withDefaults()
	me := int32(c.CommRank(r.ID()))
	p := c.Size()
	I := sliceElems(lay.maxBlock, o)

	slots := c.Shared(mpi.Key{Label: "plan", Name: "slots/%d/I=%d", A: int64(g.Slots), B: I}, 0, int64(g.Slots)*I)
	slotOff := func(s int32) int64 { return int64(s) * I }
	// One flag per slot, in sets of p (Comm.Flags hands out p at a time).
	flags := c.FlagSets(mpi.Key{Label: "plan", Name: "gf/%d"}, (g.Slots+p-1)/p)
	ctr := c.Counter(r, mpi.Key{Label: "plan", Name: "graph/base"})
	base := *ctr
	hIn := hints(c.Machine(), false, lay.workSet)

	operand := func(opnd plan.Operand, b int32, start int64, epoch uint64) (*memmodel.Buffer, int64) {
		if opnd.Own {
			return sb, lay.sbOff(b) + start
		}
		flags[opnd.Slot].Wait(r.Proc(), r.Core(), epoch)
		return slots, slotOff(opnd.Slot)
	}

	numChunks := ceilDiv(lay.maxBlock, I)
	for chunk := int64(0); chunk < numChunks; chunk++ {
		start := chunk * I
		epoch := uint64(base + chunk + 1)
		for _, st := range g.Steps {
			if st.R != me {
				continue
			}
			ln := min64(I, lay.blockLen(st.Block)-start)
			switch st.Kind {
			case plan.OpCopyIn:
				if ln > 0 {
					memcopy.Copy(r, o.Policy, slots, slotOff(st.Dst), sb, lay.sbOff(st.Block)+start, ln, hIn)
				}
				flags[st.Dst].Set(r.Proc(), epoch)
			case plan.OpReduce:
				aBuf, aOff := operand(st.A, st.Block, start, epoch)
				bBuf, bOff := operand(st.B, st.Block, start, epoch)
				dst, dOff := slots, int64(0)
				if st.Dst == plan.ToRecv {
					dst, dOff = rb, lay.rbOff(st.Block)+start
				} else {
					dOff = slotOff(st.Dst)
				}
				if ln > 0 {
					r.CombineElems(dst, dOff, aBuf, aOff, bBuf, bOff, ln, op, memmodel.Temporal)
				}
				if st.Dst != plan.ToRecv {
					flags[st.Dst].Set(r.Proc(), epoch)
				}
			case plan.OpCopyOut:
				flags[st.Src].Wait(r.Proc(), r.Core(), epoch)
				if ln > 0 {
					memcopy.Copy(r, o.Policy, rb, lay.rbOff(st.Block)+start, slots, slotOff(st.Src), ln, hIn)
				}
			}
		}
		// Slot-reuse protection between pipeline chunks.
		c.Barrier().Arrive(r.Proc())
	}
	*ctr = base + numChunks
}

// ReduceScatterGraph executes a synthesized reduce-scatter DAG: sb has p*n
// elements, rank i's rb receives block i (n elements). The graph must be
// compiled for exactly p ranks with p blocks (plan.FromSchedule output).
func ReduceScatterGraph(r *mpi.Rank, c *mpi.Comm, g *plan.Graph,
	sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := c.Size()
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	if g.P != p || g.Blocks != p {
		panic(fmt.Sprintf("coll: graph compiled for p=%d/blocks=%d, comm has p=%d", g.P, g.Blocks, p))
	}
	execGraph(r, c, g, sb, rb, graphLayout{
		sbOff:    func(b int32) int64 { return int64(b) * n },
		rbOff:    func(int32) int64 { return 0 },
		blockLen: func(int32) int64 { return n },
		maxBlock: n,
		workSet:  (int64(p)*n + n + int64(p)*n) * memmodel.ElemSize,
	}, op, o)
}

// AllreduceGraph executes a synthesized all-reduce DAG over n-element
// buffers, splitting them into p blocks of ceil(n/p) (ragged tail
// shortened). The graph must be plan.AllreduceFromSchedule output.
func AllreduceGraph(r *mpi.Rank, c *mpi.Comm, g *plan.Graph,
	sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := c.Size()
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	if g.P != p || g.Blocks != p {
		panic(fmt.Sprintf("coll: graph compiled for p=%d/blocks=%d, comm has p=%d", g.P, g.Blocks, p))
	}
	nb := ceilDiv(n, int64(p))
	blockLen := func(b int32) int64 {
		ln := n - int64(b)*nb
		if ln > nb {
			ln = nb
		}
		if ln < 0 {
			ln = 0
		}
		return ln
	}
	off := func(b int32) int64 { return int64(b) * nb }
	execGraph(r, c, g, sb, rb, graphLayout{
		sbOff: off, rbOff: off, blockLen: blockLen, maxBlock: nb,
		workSet: (2*n + int64(p)*nb) * memmodel.ElemSize,
	}, op, o)
}

// BcastGraphExec executes a synthesized broadcast DAG over a single
// n-element buffer (plan.BcastGraph output for the right root).
func BcastGraphExec(r *mpi.Rank, c *mpi.Comm, g *plan.Graph,
	buf *memmodel.Buffer, n int64, o Options) {
	if c.Size() == 1 {
		return
	}
	if g.P != c.Size() {
		panic(fmt.Sprintf("coll: graph compiled for p=%d, comm has p=%d", g.P, c.Size()))
	}
	zero := func(int32) int64 { return 0 }
	execGraph(r, c, g, buf, buf, graphLayout{
		sbOff: zero, rbOff: zero,
		blockLen: func(int32) int64 { return n }, maxBlock: n,
		workSet: (n + int64(c.Size())*n) * memmodel.ElemSize,
	}, mpi.Sum, o)
}

// AllgatherGraphExec executes a synthesized all-gather DAG: sb has n
// elements, rb receives p*n (plan.AllgatherGraph output).
func AllgatherGraphExec(r *mpi.Rank, c *mpi.Comm, g *plan.Graph,
	sb, rb *memmodel.Buffer, n int64, o Options) {
	p := c.Size()
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	if g.P != p || g.Blocks != p {
		panic(fmt.Sprintf("coll: graph compiled for p=%d/blocks=%d, comm has p=%d", g.P, g.Blocks, p))
	}
	execGraph(r, c, g, sb, rb, graphLayout{
		sbOff:    func(int32) int64 { return 0 },
		rbOff:    func(b int32) int64 { return int64(b) * n },
		blockLen: func(int32) int64 { return n },
		maxBlock: n,
		workSet:  (n + 2*int64(p)*n) * memmodel.ElemSize,
	}, mpi.Sum, o)
}
