package coll

import (
	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// This file implements the XPMEM-style direct-access collectives of Hashmi
// et al. [30, 31]: every rank exposes its buffers to the others (address
// space mapping), and collectives load peer memory directly — a single
// copy, no shared-memory staging. Copies use the plain memmove policy
// (kernel-assisted paths have no adaptive NT logic), which is exactly why
// the paper observes them winning only once s/p crosses memmove's 2 MB NT
// threshold (§5.5), and why direct remote loads pay inter-NUMA bandwidth
// on large messages.

// publishAndBarrier registers the rank's buffer and synchronizes so every
// peer can resolve it.
func publishAndBarrier(r *mpi.Rank, c *mpi.Comm, k mpi.Key, b *memmodel.Buffer) {
	c.Publish(r, k, b)
	c.Barrier().Arrive(r.Proc())
}

// AllreduceXPMEM is the direct-access ring-style all-reduce: rank b
// reduces block b straight from every peer's send buffer (3s(p-1)), then
// gathers every peer's reduced block by direct load (2s(p-1)).
// DAV 5s(p-1) (dav.XPMEMAllreduce).
func AllreduceXPMEM(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	bn := ceilDiv(n, p)
	publishAndBarrier(r, c, mpi.Key{Label: "xpmem-ar", Name: "sb"}, sb)
	publishAndBarrier(r, c, mpi.Key{Label: "xpmem-ar", Name: "rb"}, rb)

	// Phase 1: direct-access reduce of block me into rb[me*bn].
	lo := me * bn
	if lo < n {
		ln := min64(bn, n-lo)
		first := c.Peer(mpi.Key{Label: "xpmem-ar", Name: "sb"}, int((me+1)%p))
		r.CombineElems(rb, lo, sb, lo, first, lo, ln, op, memmodel.Temporal)
		for j := int64(2); j < p; j++ {
			peer := c.Peer(mpi.Key{Label: "xpmem-ar", Name: "sb"}, int((me+j)%p))
			r.AccumulateElems(rb, lo, peer, lo, ln, op, memmodel.Temporal)
		}
	}
	c.Barrier().Arrive(r.Proc())

	// Phase 2: direct-access all-gather of the other blocks.
	for j := int64(1); j < p; j++ {
		b := (me + j) % p
		blo := b * bn
		if blo >= n {
			continue
		}
		ln := min64(bn, n-blo)
		peer := c.Peer(mpi.Key{Label: "xpmem-ar", Name: "rb"}, int(b))
		memcopy.Copy(r, memcopy.Memmove, rb, blo, peer, blo, ln, memcopy.Hints{})
	}
	c.Barrier().Arrive(r.Proc())
}

// ReduceScatterXPMEM is the direct-access reduce-scatter: rank b reduces
// block b straight from every peer's send buffer. DAV 3s(p-1).
func ReduceScatterXPMEM(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	publishAndBarrier(r, c, mpi.Key{Label: "xpmem-rs", Name: "sb"}, sb)
	lo := me * n
	first := c.Peer(mpi.Key{Label: "xpmem-rs", Name: "sb"}, int((me+1)%p))
	r.CombineElems(rb, 0, sb, lo, first, lo, n, op, memmodel.Temporal)
	for j := int64(2); j < p; j++ {
		peer := c.Peer(mpi.Key{Label: "xpmem-rs", Name: "sb"}, int((me+j)%p))
		r.AccumulateElems(rb, 0, peer, lo, n, op, memmodel.Temporal)
	}
	c.Barrier().Arrive(r.Proc())
}

// ReduceXPMEM is the direct-access reduce: the partitioned reduce of
// ReduceScatterXPMEM followed by the root gathering the blocks by direct
// load from the owners' receive buffers.
func ReduceXPMEM(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	bn := ceilDiv(n, p)
	part := r.PersistentBuffer("xpmem-red/part", bn)
	publishAndBarrier(r, c, mpi.Key{Label: "xpmem-red", Name: "sb"}, sb)
	publishAndBarrier(r, c, mpi.Key{Label: "xpmem-red", Name: "part"}, part)
	lo := me * bn
	if lo < n {
		ln := min64(bn, n-lo)
		dst, dOff := part, int64(0)
		if int(me) == root {
			dst, dOff = rb, lo
		}
		first := c.Peer(mpi.Key{Label: "xpmem-red", Name: "sb"}, int((me+1)%p))
		r.CombineElems(dst, dOff, sb, lo, first, lo, ln, op, memmodel.Temporal)
		for j := int64(2); j < p; j++ {
			peer := c.Peer(mpi.Key{Label: "xpmem-red", Name: "sb"}, int((me+j)%p))
			r.AccumulateElems(dst, dOff, peer, lo, ln, op, memmodel.Temporal)
		}
	}
	c.Barrier().Arrive(r.Proc())
	if int(me) == root {
		for j := int64(1); j < p; j++ {
			b := (me + j) % p
			blo := b * bn
			if blo >= n {
				continue
			}
			ln := min64(bn, n-blo)
			peer := c.Peer(mpi.Key{Label: "xpmem-red", Name: "part"}, int(b))
			memcopy.Copy(r, memcopy.Memmove, rb, blo, peer, 0, ln, memcopy.Hints{})
		}
	}
	c.Barrier().Arrive(r.Proc())
}

// BcastXPMEM is the direct-access broadcast: every non-root copies the
// message straight out of the root's buffer with memmove.
func BcastXPMEM(r *mpi.Rank, c *mpi.Comm, buf *memmodel.Buffer, n int64, root int, o Options) {
	if c.Size() == 1 {
		return
	}
	me := c.CommRank(r.ID())
	publishAndBarrier(r, c, mpi.Key{Label: "xpmem-bcast", Name: "buf"}, buf)
	if me != root {
		src := c.Peer(mpi.Key{Label: "xpmem-bcast", Name: "buf"}, root)
		memcopy.Copy(r, memcopy.Memmove, buf, 0, src, 0, n, memcopy.Hints{})
	}
	c.Barrier().Arrive(r.Proc())
}

// AllgatherXPMEM is the direct-access all-gather: every rank copies each
// peer's contribution straight from the peer's send buffer.
func AllgatherXPMEM(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	r.CopyElems(rb, me*n, sb, 0, n, memmodel.Temporal)
	if p == 1 {
		return
	}
	publishAndBarrier(r, c, mpi.Key{Label: "xpmem-ag", Name: "sb"}, sb)
	for j := int64(1); j < p; j++ {
		b := (me + j) % p
		peer := c.Peer(mpi.Key{Label: "xpmem-ag", Name: "sb"}, int(b))
		memcopy.Copy(r, memcopy.Memmove, rb, b*n, peer, 0, n, memcopy.Hints{})
	}
	c.Barrier().Arrive(r.Proc())
}
