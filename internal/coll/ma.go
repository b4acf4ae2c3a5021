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
type maCtx struct {
	comm  *mpi.Comm
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
func newMACtx(r *mpi.Rank, c *mpi.Comm, I int64, label string) *maCtx {
	p := c.Size()
	me := c.CommRank(r.ID())
	if me < 0 {
		panic(fmt.Sprintf("coll: rank %d not in comm %s", r.ID(), c.Name()))
	}
	shmBuf := c.Shared(mpi.Key{Label: label, Name: "shm/I=%d", A: I}, c.SocketOf(0), I*int64(p))
	return &maCtx{
		comm:  c,
		shm:   shmBuf,
		flags: c.Flags(mpi.Key{Label: label, Name: "flags"}),
		base:  c.Counter(r, mpi.Key{Label: label, Name: "base"}),
		I:     I,
		p:     p,
		me:    me,
	}
}

// pass runs one MA reduction pass. sbOff(l) and lenOf(l) give the send
// buffer offset and length of slice l (lenOf may be 0 for ragged tails).
// final, if non-nil, consumes the completed slice me (called with the shm
// slot offset) instead of the default accumulate-into-shm.
func (mc *maCtx) pass(r *mpi.Rank, sb *memmodel.Buffer,
	sbOff func(l int) int64, lenOf func(l int) int64,
	final func(slotOff, length int64),
	op mpi.Op, pol memcopy.Policy, hIn memcopy.Hints) {

	basePass := *mc.base
	for j := 0; j < mc.p; j++ {
		l := (mc.me + j + 1) % mc.p
		off := sbOff(l)
		length := lenOf(l)
		slot := int64(l) * mc.I
		if j == 0 {
			// The slot we are about to overwrite was finalized in the
			// previous pass by rank l itself (its step p-1); its flag holds
			// basePass once that completed.
			mc.flags[l].Wait(r.Proc(), r.Core(), uint64(basePass))
			memcopy.Copy(r, pol, mc.shm, slot, sb, off, length, hIn)
		} else {
			// Wait for the rank one ahead to finish its step j-1 on this
			// slot (neighbour synchronization).
			mc.flags[(mc.me+1)%mc.p].Wait(r.Proc(), r.Core(), uint64(basePass+int64(j)))
			if j == mc.p-1 && final != nil {
				final(slot, length)
			} else {
				r.AccumulateElems(mc.shm, slot, sb, off, length, op, memmodel.Temporal)
			}
		}
		mc.flags[mc.me].Set(r.Proc(), uint64(basePass+int64(j)+1))
	}
	*mc.base = basePass + int64(mc.p)
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
		mc.pass(r, sb,
			func(l int) int64 { return int64(l)*n + start },
			func(l int) int64 { return length },
			func(slotOff, ln int64) {
				r.CombineElems(rb, start, mc.shm, slotOff, sb, int64(mc.me)*n+start, ln, op, outKind)
			},
			op, o.Policy, hIn)
	}
}

// maReduceToShm runs the MA reduction leaving every finalized block in the
// shared segment (final step accumulates in place) and invokes afterChunk
// once per chunk between two communicator barriers, with the chunk's
// geometry. It is the shared core of the MA all-reduce (§3.4, Algorithm 2)
// and MA reduce (§3.5): afterChunk performs the copy-out.
func maReduceToShm(r *mpi.Rank, c *mpi.Comm, sb *memmodel.Buffer, n int64, op mpi.Op, o Options,
	label string, afterChunk func(mc *maCtx, start, length int64)) {
	o = o.withDefaults()
	bn := ceilDiv(n, int64(c.Size())) // conceptual block length
	I := sliceElems(bn, o)
	mc := newMACtx(r, c, I, label)
	p := int64(c.Size())
	w := (n*p + n*p + p*I) * memmodel.ElemSize // Algorithm 2's W
	hIn := hints(c.Machine(), false, w)
	blockLen := func(l int) int64 {
		lo := int64(l) * bn
		if lo >= n {
			return 0
		}
		return min64(bn, n-lo)
	}
	for start := int64(0); start < bn; start += I {
		length := min64(I, bn-start)
		lenOf := func(l int) int64 {
			bl := blockLen(l)
			if start >= bl {
				return 0
			}
			return min64(length, bl-start)
		}
		mc.pass(r, sb,
			func(l int) int64 { return int64(l)*bn + start },
			lenOf,
			nil, // final step accumulates into shm
			op, o.Policy, hIn)
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
	maReduceToShm(r, c, sb, n, op, o, "ma-ar", func(mc *maCtx, start, length int64) {
		for j := 0; j < c.Size(); j++ {
			l := (me + j) % c.Size() // stagger slot access across ranks
			lo := int64(l)*bn + start
			if lo >= n {
				continue
			}
			ln := min64(length, n-lo)
			memcopy.Copy(r, o.Policy, rb, lo, mc.shm, int64(l)*mc.I, ln, hOut)
		}
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
	maReduceToShm(r, c, sb, n, op, o, "ma-red", func(mc *maCtx, start, length int64) {
		if me != root {
			return
		}
		for l := 0; l < c.Size(); l++ {
			lo := int64(l)*bn + start
			if lo >= n {
				continue
			}
			ln := min64(length, n-lo)
			memcopy.Copy(r, o.Policy, rb, lo, mc.shm, int64(l)*mc.I, ln, hOut)
		}
	})
}
