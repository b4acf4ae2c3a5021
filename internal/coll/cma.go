package coll

import (
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// This file models CMA (Cross Memory Attach, process_vm_readv) transfers —
// the kernel-assisted single-copy mechanism mainstream Open MPI / Intel
// MPI configurations use intra-node. Per the paper (§5.6, Table 5 and the
// Linux source it cites): the copy is performed page by page in kernel
// space, uses no non-temporal instructions, and suffers page-table lock
// contention when several processes attach the same source pages
// concurrently.

// cmaPageBytes is the kernel copy granularity.
const cmaPageBytes = 4096

// cmaPageOverhead is the per-page kernel bookkeeping cost (get_user_pages,
// iov iteration) in seconds, calibrated so a 32 MB one-to-one transfer
// lands in Table 5's regime.
const cmaPageOverhead = 120e-9

// cmaContention multiplies the per-page overhead per additional concurrent
// reader of the same source process's pages (lock contention, §5.6).
const cmaContention = 0.35

// CMACopy models one process_vm_readv of n elements from a peer's buffer:
// a single temporal copy plus per-page kernel overhead. readers is how
// many processes are attaching the same source pages in this phase (1 for
// ring patterns, p-1 for one-to-all).
func CMACopy(r *mpi.Rank, dst *memmodel.Buffer, dOff int64, src *memmodel.Buffer, sOff, n int64, readers int) {
	if n == 0 {
		return
	}
	pages := ceilDiv(n*memmodel.ElemSize, cmaPageBytes)
	over := cmaPageOverhead * (1 + cmaContention*float64(readers-1))
	r.Compute(float64(pages) * over)
	r.CopyElems(dst, dOff, src, sOff, n, memmodel.Temporal)
}

// BcastCMA is the one-to-all CMA broadcast used by CMA-configured MPIs:
// every non-root attaches the root's pages and copies directly — single
// copy, but full contention on the root's pages and no NT stores.
func BcastCMA(r *mpi.Rank, c *mpi.Comm, buf *memmodel.Buffer, n int64, root int, o Options) {
	if c.Size() == 1 {
		return
	}
	me := c.CommRank(r.ID())
	publishAndBarrier(r, c, mpi.Key{Label: "cma-bcast", Name: "buf"}, buf)
	if me != root {
		src := c.Peer(mpi.Key{Label: "cma-bcast", Name: "buf"}, root)
		CMACopy(r, buf, 0, src, 0, n, c.Size()-1)
	}
	c.Barrier().Arrive(r.Proc())
}

// AllreduceCMA is the ring all-reduce over CMA transfers (the Open MPI
// tuned/CMA family): reduce-scatter with direct single-copy reads around
// the ring, then a ring all-gather of the reduced blocks.
func AllreduceCMA(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	bn := ceilDiv(n, p)
	// Double-buffered running partial: round k writes slot k%2 while the
	// successor reads slot (k-1)%2, so concurrent rounds never collide.
	scratch := r.PersistentBuffer("cma-ar/scratch", 2*bn)
	publishAndBarrier(r, c, mpi.Key{Label: "cma-ar", Name: "sb"}, sb)
	publishAndBarrier(r, c, mpi.Key{Label: "cma-ar", Name: "scratch"}, scratch)
	publishAndBarrier(r, c, mpi.Key{Label: "cma-ar", Name: "rb"}, rb)
	blockLen := func(b int64) int64 {
		lo := b * bn
		if lo >= n {
			return 0
		}
		return min64(bn, n-lo)
	}
	// Reduce-scatter: p-1 rounds; in round k rank me attaches the running
	// partial of block (me-k) held by its predecessor and folds it with its
	// own sb block; page attach overhead per round, barrier-separated
	// rounds (CMA implementations synchronize via the MPI progress engine;
	// a barrier models the round boundary).
	prev := int((me + p - 1) % p)
	for k := int64(1); k < p; k++ {
		recvB := (me + p - 1 - k) % p
		ln := blockLen(recvB)
		if ln > 0 {
			var src *memmodel.Buffer
			var sOff int64
			if k == 1 {
				src, sOff = c.Peer(mpi.Key{Label: "cma-ar", Name: "sb"}, prev), recvB*bn
			} else {
				src, sOff = c.Peer(mpi.Key{Label: "cma-ar", Name: "scratch"}, prev), ((k-1)%2)*bn
			}
			pages := ceilDiv(ln*memmodel.ElemSize, cmaPageBytes)
			r.Compute(float64(pages) * cmaPageOverhead)
			dst, dOff := scratch, (k%2)*bn
			if k == p-1 {
				dst, dOff = rb, recvB*bn
			}
			r.CombineElems(dst, dOff, sb, recvB*bn, src, sOff, ln, op, memmodel.Temporal)
		}
		c.Barrier().Arrive(r.Proc())
	}
	// All-gather: direct copy of every peer's final block.
	for j := int64(1); j < p; j++ {
		b := (me + j) % p
		ln := blockLen(b)
		if ln > 0 {
			peer := c.Peer(mpi.Key{Label: "cma-ar", Name: "rb"}, int(b))
			CMACopy(r, rb, b*bn, peer, b*bn, ln, 1)
		}
	}
	c.Barrier().Arrive(r.Proc())
}
