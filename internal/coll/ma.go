package coll

import (
	"fmt"

	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/shm"
)

// maCtx is the per-communicator state of the movement-avoiding reduction
// (paper §3.2, Fig. 5/6): a shared segment of p slots of I elements, one
// progress flag per rank, and a persistent operation counter that keeps the
// flag epochs monotone across invocations.
//
// One "pass" reduces p slices — slice l is a piece of the l-th block of
// the send buffer — in p steps. At step j, rank r works on slice
// l = (r+j+1) mod p: step 0 copies the slice into shared memory, steps
// 1..p-2 accumulate the rank's own send-buffer slice into the shared slot,
// and step p-1 (where l == r) produces the final value. Each slot is thus
// touched by the rank chain l-1, l-2, ..., l (mod p), so a step only needs
// a flag wait on the rank one position ahead — the neighbour
// synchronization of §3.3.
//
// A maCtx is a value the collective keeps on its stack; the communicator
// holds its segment, flags and counter.
type maCtx struct {
	shm   *memmodel.Buffer
	flags []*shm.Flag
	base  *int64
	I     int64
	p, me int
}

// newMACtx builds (or re-attaches to) the MA context of the communicator
// for slice size I. The segment's DRAM home barely matters for MA — its
// whole point is that the p*I working set stays cache-resident (§3.3,
// "avoid accessing remote NUMA's physical memory") — so it is homed on the
// first participant's socket.
func newMACtx(r *mpi.Rank, c *mpi.Comm, I int64, label string) maCtx {
	p := c.Size()
	me := c.CommRank(r.ID())
	if me < 0 {
		panic(fmt.Sprintf("coll: rank %d not in comm %s", r.ID(), c.Name()))
	}
	return maCtx{
		shm:   c.Shared(mpi.Key{Label: label, Name: "shm/I=%d", A: I}, c.SocketOf(0), I*int64(p)),
		flags: c.Flags(mpi.Key{Label: label, Name: "flags"}),
		base:  c.Counter(r, mpi.Key{Label: label, Name: "base"}),
		I:     I,
		p:     p,
		me:    me,
	}
}

// pass runs one MA reduction pass as one sequence of p steps, each a wait
// on the neighbour's flag, the step's op (a copy-in, then accumulates) and
// a set of the rank's own flag.
// Slice l of the send buffer is at sbOff + l*sbStride, length elements
// long, cut to end by sbEnd (0 cuts nothing; a slice cut to nothing is
// skipped, its waits and sets kept). final, when its Dst is not nil,
// is the last step's op, storing with finalKind, instead of the default
// accumulate into the rank's own slot.
func (mc *maCtx) pass(r *mpi.Rank, sb *memmodel.Buffer, sbOff, sbStride, sbEnd, length int64,
	final memmodel.Op, finalKind memmodel.StoreKind,
	op mpi.Op, pol memcopy.Policy, hIn memcopy.Hints) {

	basePass := uint64(*mc.base)
	p := mc.p
	// Step j works on slot me+1+j and waits on the rank one ahead: at step
	// 0 for the slot it finalized in the previous pass (its flag holds
	// basePass once that completed), at step j for its step j-1 on this
	// slot.
	steps := memmodel.Part{
		Count: p, Rot: mc.me + 1, Mod: p,
		Wait: mc.flags[(mc.me+1)%p].Sync(), WaitVal: basePass,
		Op:      memmodel.Op{Kind: memmodel.AccumulateOp, Dst: mc.shm, A: sb, AOff: sbOff, N: length},
		DStride: mc.I, AStride: sbStride, AEnd: sbEnd,
		Set: mc.flags[mc.me].Sync(), SetVal: basePass + 1,
	}
	s := r.Seq(op)
	withFinal := final.Dst != nil && p > 1
	if withFinal {
		steps.Count--
	}
	memcopy.CopyFirst(s, pol, steps, hIn)
	if withFinal {
		s.Add(memmodel.Part{
			Count: 1,
			Wait:  steps.Wait, WaitVal: basePass + uint64(p) - 1,
			Op: final, Kind: finalKind, TailKind: finalKind,
			Set: steps.Set, SetVal: basePass + uint64(p),
		})
	}
	s.Charge()
	*mc.base += int64(p)
}

// copyOut adds to s the copies of slots to rb: slot k (mc.shm at k*I) to
// rb at dOff + k*dStride, length elements cut to end by n, for count
// slots starting at slot rot, mod mod (mod 0: no rotation).
func (mc *maCtx) copyOut(s *memmodel.Seq, rb *memmodel.Buffer, count, rot, mod int, dOff, dStride, length, n int64,
	pol memcopy.Policy, hOut memcopy.Hints) {
	memcopy.CopyPart(s, pol, memmodel.Part{
		Count: count, Rot: rot, Mod: mod,
		Op:      memmodel.Op{Kind: memmodel.CopyOp, Dst: rb, DOff: dOff, A: mc.shm, N: length},
		DStride: dStride, AStride: mc.I, DEnd: n,
	}, hOut)
}

// ReduceScatterMA is the flat movement-avoiding reduce-scatter (§3.3,
// Fig. 6): DAV s*(3p-1), the proven copy-volume optimum. sb holds p*n
// elements; rank i's rb receives block i (n elements).
func ReduceScatterMA(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	o = o.withDefaults()
	p := int64(c.Size())
	I := sliceElems(n, o)
	mc := newMACtx(r, c, I, "ma-rs")
	w := (p*n*p + p*n + p*I) * memmodel.ElemSize // all sb + all rb + shm
	hIn := hints(c.Machine(), false, w)
	hOut := hints(c.Machine(), true, w)
	outKind := memcopy.Decide(o.Policy, I*memmodel.ElemSize, hOut)
	for start := int64(0); start < n; start += I {
		length := min64(I, n-start)
		final := memmodel.Op{Kind: memmodel.CombineOp, Dst: rb, DOff: start, A: mc.shm, AOff: int64(mc.me) * mc.I,
			B: sb, BOff: int64(mc.me)*n + start, N: length}
		mc.pass(r, sb, start, n, 0, length, final, outKind, op, o.Policy, hIn)
	}
}

// maReduceToShm runs the MA reduction leaving every finalized block in the
// shared segment (final step accumulates in place) and invokes afterChunk
// once per chunk between two communicator barriers, with the chunk's
// geometry. It is the shared core of the MA all-reduce (§3.4, Algorithm 2)
// and MA reduce (§3.5): afterChunk performs the copy-out.
func maReduceToShm(r *mpi.Rank, c *mpi.Comm, sb *memmodel.Buffer, n int64, op mpi.Op, o Options,
	label string, afterChunk func(mc maCtx, start, length int64)) {
	o = o.withDefaults()
	bn := ceilDiv(n, int64(c.Size())) // conceptual block length
	I := sliceElems(bn, o)
	mc := newMACtx(r, c, I, label)
	p := int64(c.Size())
	w := (n*p + n*p + p*I) * memmodel.ElemSize // Algorithm 2's W
	hIn := hints(c.Machine(), false, w)
	for start := int64(0); start < bn; start += I {
		length := min64(I, bn-start)
		// The final step accumulates into shm; slice l is piece start of
		// block l, cut where the message ends.
		mc.pass(r, sb, start, bn, n, length, memmodel.Op{}, 0, op, o.Policy, hIn)
		c.Barrier().Arrive(r.Proc())
		afterChunk(mc, start, length)
		c.Barrier().Arrive(r.Proc())
	}
}

// AllreduceMA is the flat MA all-reduce (§3.4, Algorithm 2): MA
// reduce-scatter into shared memory followed by a per-chunk copy-out of all
// blocks by every rank. DAV s*(5p-1).
func AllreduceMA(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	o = o.withDefaults()
	p := int64(c.Size())
	bn := ceilDiv(n, p)
	I := sliceElems(bn, o)
	w := (n*p + n*p + p*I) * memmodel.ElemSize
	hOut := hints(c.Machine(), true, w)
	me := c.CommRank(r.ID())
	maReduceToShm(r, c, sb, n, op, o, "ma-ar", func(mc maCtx, start, length int64) {
		// Every block's piece, staggering slot access across ranks.
		s := r.Seq(op)
		mc.copyOut(s, rb, c.Size(), me, c.Size(), start, bn, length, n, o.Policy, hOut)
		s.Charge()
	})
}

// ReduceMA is the flat MA reduce (§3.5): MA reduce-scatter into shared
// memory; the root copies the result out per chunk. DAV s*(3p+1).
func ReduceMA(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options) {
	o = o.withDefaults()
	p := int64(c.Size())
	bn := ceilDiv(n, p)
	I := sliceElems(bn, o)
	w := (n*p + n + p*I) * memmodel.ElemSize
	hOut := hints(c.Machine(), true, w)
	me := c.CommRank(r.ID())
	maReduceToShm(r, c, sb, n, op, o, "ma-red", func(mc maCtx, start, length int64) {
		if me != root {
			return
		}
		s := r.Seq(op)
		mc.copyOut(s, rb, c.Size(), 0, 0, start, bn, length, n, o.Policy, hOut)
		s.Charge()
	})
}
