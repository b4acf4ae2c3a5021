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
		foldPeers(r, int(me), sb, c.Peers(mpi.Key{Label: "xpmem-ar", Name: "sb"}), rb, lo, lo, min64(bn, n-lo), op)
	}
	c.Barrier().Arrive(r.Proc())

	// Phase 2: direct-access all-gather of the other blocks, each from
	// its owner's receive buffer.
	copyPeers(r, int(me), c.Peers(mpi.Key{Label: "xpmem-ar", Name: "rb"}), rb, bn, bn, bn, n)
	c.Barrier().Arrive(r.Proc())
}

// foldPeers reduces sb and the peers' buffers (indexed by comm rank) at
// sOff into dst at dOff over n elements, as one sequence: a combine of sb
// and peer me+1, then an accumulate of each peer me+2, me+3, ... (mod p).
func foldPeers(r *mpi.Rank, me int, sb *memmodel.Buffer, peers []*memmodel.Buffer, dst *memmodel.Buffer, dOff, sOff, n int64, op mpi.Op) {
	p := len(peers)
	s := r.Seq(op)
	s.Add(memmodel.Part{Count: 1, Op: memmodel.Op{Kind: memmodel.CombineOp, Dst: dst, DOff: dOff,
		A: sb, AOff: sOff, B: peers[(me+1)%p], BOff: sOff, N: n}})
	if p > 2 {
		s.Add(memmodel.Part{Count: p - 2, Rot: me + 2, Mod: p, As: peers,
			Op: memmodel.Op{Kind: memmodel.AccumulateOp, Dst: dst, DOff: dOff, AOff: sOff, N: n}})
	}
	s.Charge()
}

// copyPeers copies, for each other comm rank b in the order me+1, me+2,
// ... (mod p), b's peer buffer at b*sStride to rb at b*dStride, n
// elements cut where rb's first end elements end (0 cuts nothing), with
// memmove, as one sequence.
func copyPeers(r *mpi.Rank, me int, peers []*memmodel.Buffer, rb *memmodel.Buffer, dStride, sStride, n, end int64) {
	p := len(peers)
	s := r.Seq(mpi.Op{})
	memcopy.CopyPart(s, memcopy.Memmove, memmodel.Part{
		Count: p - 1, Rot: me + 1, Mod: p, As: peers,
		Op:      memmodel.Op{Kind: memmodel.CopyOp, Dst: rb, N: n},
		DStride: dStride, AStride: sStride, DEnd: end,
	}, memcopy.Hints{})
	s.Charge()
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
	foldPeers(r, int(me), sb, c.Peers(mpi.Key{Label: "xpmem-rs", Name: "sb"}), rb, 0, me*n, n, op)
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
		foldPeers(r, int(me), sb, c.Peers(mpi.Key{Label: "xpmem-red", Name: "sb"}), dst, dOff, lo, ln, op)
	}
	c.Barrier().Arrive(r.Proc())
	if int(me) == root {
		copyPeers(r, int(me), c.Peers(mpi.Key{Label: "xpmem-red", Name: "part"}), rb, bn, 0, bn, n)
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
	copyPeers(r, int(me), c.Peers(mpi.Key{Label: "xpmem-ag", Name: "sb"}), rb, n, 0, n, 0)
	c.Barrier().Arrive(r.Proc())
}
