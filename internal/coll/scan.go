package coll

import (
	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// MPI_Scan (inclusive prefix reduction: rank i's rb = op over ranks
// 0..i) rounds out the reduction family. Two shared-memory designs:
//
//   - ScanShm: the DPML-style parallel form — every rank publishes its
//     send buffer, rank i privately folds segments 0..i. One barrier, but
//     O(p^2) total accesses.
//   - ScanChain: the movement-avoiding form — the prefix is inherently a
//     chain, so rank i waits for rank i-1's partial in shared memory,
//     folds its own slice (from private memory, no copy-in!) into its
//     result AND publishes the new partial, pipelined over slices exactly
//     like the MA reduction. Copy volume is the 2s optimum shape: only
//     partials live in shared memory.

// ScanFunc is an inclusive prefix reduction.
type ScanFunc func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options)

// ScanShm is the parallel-fold scan.
func ScanShm(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := c.Size()
	me := c.CommRank(r.ID())
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	segs := c.Segments(mpi.Key{Label: "scan", Name: "seg%d/n=%d", B: n}, n)
	for off := int64(0); off < n; off += dpmlSliceElems {
		ln := min64(dpmlSliceElems, n-off)
		memcopy.Copy(r, memcopy.Memmove, segs[me], off, sb, off, ln, memcopy.Hints{})
	}
	c.Barrier().Arrive(r.Proc())
	// Fold segments 0..me-1 with the private sb into rb.
	if me == 0 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
	} else {
		r.CombineElems(rb, 0, segs[0], 0, sb, 0, n, op, memmodel.Temporal)
		for k := 1; k < me; k++ {
			r.AccumulateElems(rb, 0, segs[k], 0, n, op, memmodel.Temporal)
		}
	}
	c.Barrier().Arrive(r.Proc())
}

// ScanChain is the movement-avoiding pipelined scan.
func ScanChain(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	o = o.withDefaults()
	p := c.Size()
	me := c.CommRank(r.ID())
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	I := sliceElems(ceilDiv(n, int64(p)), o)
	// Double-buffered partial per rank: rank i publishes its inclusive
	// prefix slice for rank i+1 to extend.
	slots := c.Shared(mpi.Key{Label: "scan-chain", Name: "slots/I=%d", A: I}, 0, int64(p)*2*I)
	flags := c.Flags(mpi.Key{Label: "scan-chain", Name: "flags"})
	ctr := c.Counter(r, mpi.Key{Label: "scan-chain", Name: "base"})
	base := *ctr
	w := (2*n*int64(p) + int64(p)*2*I) * memmodel.ElemSize
	hOut := hints(c.Machine(), true, w)
	outKind := memcopy.Decide(o.Policy, I*memmodel.ElemSize, hOut)

	slot := func(who int, t int64) int64 { return int64(who)*2*I + (t%2)*I }
	numSlices := ceilDiv(n, I)
	for t := int64(0); t < numSlices; t++ {
		off := t * I
		ln := min64(I, n-off)
		// Wait for my successor to have consumed slice t-2 of my slot.
		if me+1 < p && t >= 2 {
			flags[me+1].Wait(r.Proc(), r.Core(), uint64(base+t-1))
		}
		if me == 0 {
			// My prefix is just my slice: to rb, and publish for rank 1.
			r.CopyElems(rb, off, sb, off, ln, outKind)
			r.CopyElems(slots, slot(0, t), sb, off, ln, memmodel.Temporal)
		} else {
			flags[me-1].Wait(r.Proc(), r.Core(), uint64(base+t+1))
			if me+1 < p {
				// Extend the prefix in shared memory once, then copy the
				// (cache-resident) partial out to rb.
				r.CombineElems(slots, slot(me, t), slots, slot(me-1, t), sb, off, ln, op, memmodel.Temporal)
				r.CopyElems(rb, off, slots, slot(me, t), ln, outKind)
			} else {
				// Last rank: fold straight into rb.
				r.CombineElems(rb, off, slots, slot(me-1, t), sb, off, ln, op, outKind)
			}
		}
		flags[me].Set(r.Proc(), uint64(base+t+1))
	}
	*ctr = base + numSlices
	c.Barrier().Arrive(r.Proc())
}

// ScanAlgos registers the scan implementations.
var ScanAlgos = map[string]ScanFunc{
	"yhccl": ScanChain,
	"chain": ScanChain,
	"shm":   ScanShm,
}
