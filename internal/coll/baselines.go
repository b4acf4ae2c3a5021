package coll

import (
	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// This file implements the shared-memory and send/recv baseline reduction
// algorithms the paper compares against in Figs. 9-11: DPML [13] (data
// partitioning multi-leader parallel reduction), the Ring algorithm [45]
// and Rabenseifner's recursive halving/doubling [50]. All baselines use
// the threshold-based memmove copy (the paper's "current implementations"),
// not the adaptive copy — that contrast is the point of Figs. 12-14.

// dpmlSliceElems is the paper's best DPML reduction granularity (8 KB,
// §5.3).
const dpmlSliceElems = 8 << 10 / memmodel.ElemSize

// dpmlCopyIn copies each rank's whole send buffer into its shared segment.
func dpmlCopyIn(r *mpi.Rank, c *mpi.Comm, sb *memmodel.Buffer, total int64, label string) (segs []*memmodel.Buffer, res *memmodel.Buffer) {
	me := c.CommRank(r.ID())
	segs = c.Segments(mpi.Key{Label: label, Name: "seg%d/n=%d", B: total}, total)
	res = c.Shared(mpi.Key{Label: label, Name: "res/n=%d", A: total}, 0, total)
	memcopy.CopyRun(r, memcopy.Memmove, segs[me], 0, sb, 0, total, dpmlSliceElems, memcopy.Hints{})
	return segs, res
}

// ReduceScatterDPML is the DPML parallel reduction [13] shaped as a
// reduce-scatter: every rank copies its whole send buffer (p*n elements)
// into shared memory, rank b reduces block b, then copies it out.
// DAV s*(5p-1) (Table 1).
func ReduceScatterDPML(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, _ Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	total := p * n
	segs, res := dpmlCopyIn(r, c, sb, total, "dpml-rs")
	c.Barrier().Arrive(r.Proc())
	r.ReduceRun(res, me*n, segs, me*n, n, dpmlSliceElems, op, memmodel.Temporal)
	c.Barrier().Arrive(r.Proc())
	memcopy.Copy(r, memcopy.Memmove, rb, 0, res, me*n, n, memcopy.Hints{})
}

// AllreduceDPML is DPML shaped as an all-reduce: parallel block reduction
// plus full copy-out by every rank. DAV s*(7p-3) (Table 2 modulo the ±2s
// accounting note in internal/dav).
func AllreduceDPML(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, _ Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	bn := ceilDiv(n, p)
	segs, res := dpmlCopyIn(r, c, sb, n, "dpml-ar")
	c.Barrier().Arrive(r.Proc())
	lo := me * bn
	if lo < n {
		r.ReduceRun(res, lo, segs, lo, min64(bn, n-lo), dpmlSliceElems, op, memmodel.Temporal)
	}
	c.Barrier().Arrive(r.Proc())
	memcopy.CopyRun(r, memcopy.Memmove, rb, 0, res, 0, n, dpmlSliceElems, memcopy.Hints{})
}

// ReduceDPML is DPML shaped as a rooted reduce. DAV s*(5p-1).
func ReduceDPML(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, _ Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	bn := ceilDiv(n, p)
	segs, res := dpmlCopyIn(r, c, sb, n, "dpml-red")
	c.Barrier().Arrive(r.Proc())
	lo := me * bn
	if lo < n {
		r.ReduceRun(res, lo, segs, lo, min64(bn, n-lo), dpmlSliceElems, op, memmodel.Temporal)
	}
	c.Barrier().Arrive(r.Proc())
	if int(me) == root {
		memcopy.CopyRun(r, memcopy.Memmove, rb, 0, res, 0, n, dpmlSliceElems, memcopy.Hints{})
	}
}

// ReduceScatterRing is the bandwidth-optimal ring reduce-scatter [45] over
// the two-copy shared-memory transport: p-1 steps of
// send-partial/receive-combine. DAV 5*s*(p-1) (Table 1).
//
// At step k, rank me sends the partial it accumulated for block
// (me-k+1) mod p and fuses the incoming partial of block (me-k) mod p...
// indices are arranged so the final combine (step p-1) produces block `me`
// directly into rb.
func ReduceScatterRing(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, _ Options) {
	p := c.Size()
	me := c.CommRank(r.ID())
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	next := (me + 1) % p
	prev := (me + p - 1) % p
	scratch := r.PersistentBuffer("ring-rs/scratch", n)
	for k := 1; k < p; k++ {
		sendB := int64((me + p - k) % p)
		recvB := int64((me + p - 1 - k) % p)
		if k == 1 {
			r.Send(c, next, sb, sendB*n, n)
		} else {
			r.Send(c, next, scratch, 0, n)
		}
		if k == p-1 {
			r.RecvCombine(c, prev, rb, 0, sb, recvB*n, n, op)
		} else {
			r.RecvCombine(c, prev, scratch, 0, sb, recvB*n, n, op)
		}
	}
}

// gatherBlocksViaShm completes an all-reduce whose reduce-scatter phase
// left block `me` (bn elements, ragged tail) in place in rb[me*bn..]:
// every rank publishes its block in a node shared segment and copies the
// other p-1 blocks out. This is how shared-memory MPIs implement the
// terminal all-gather; it gives the ring/Rabenseifner all-reduce their
// 7s(p-1)+2s DAV.
func gatherBlocksViaShm(r *mpi.Rank, c *mpi.Comm, rb *memmodel.Buffer, n, bn int64, label string) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	seg := c.Shared(mpi.Key{Label: label, Name: "gather/n=%d", A: n}, 0, bn*p)
	lo := me * bn
	if lo < n {
		memcopy.Copy(r, memcopy.Memmove, seg, lo, rb, lo, min64(bn, n-lo), memcopy.Hints{})
	}
	c.Barrier().Arrive(r.Proc())
	// Blocks me+1, ..., p-1, then 0, ..., me-1: each range is contiguous
	// in seg and rb, so each is one run of block copies.
	if hi := (me + 1) * bn; hi < n {
		memcopy.CopyRun(r, memcopy.Memmove, rb, hi, seg, hi, n-hi, bn, memcopy.Hints{})
	}
	memcopy.CopyRun(r, memcopy.Memmove, rb, 0, seg, 0, min64(me*bn, n), bn, memcopy.Hints{})
	c.Barrier().Arrive(r.Proc())
}

// AllreduceRing is ring reduce-scatter plus the shared-memory block
// gather. DAV 7s(p-1)+2s (dav.RingAllreduceImpl).
func AllreduceRing(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := c.Size()
	me := c.CommRank(r.ID())
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	bn := ceilDiv(n, int64(p))
	next := (me + 1) % p
	prev := (me + p - 1) % p
	scratch := r.PersistentBuffer("ring-ar/scratch", bn)
	blockLen := func(b int64) int64 {
		lo := b * bn
		if lo >= n {
			return 0
		}
		return min64(bn, n-lo)
	}
	for k := 1; k < p; k++ {
		sendB := int64((me + p - k) % p)
		recvB := int64((me + p - 1 - k) % p)
		sn, rn := blockLen(sendB), blockLen(recvB)
		if sn > 0 {
			if k == 1 {
				r.Send(c, next, sb, sendB*bn, sn)
			} else {
				r.Send(c, next, scratch, 0, sn)
			}
		}
		if rn > 0 {
			if k == p-1 {
				// The final combine produces block `me` in place in rb.
				r.RecvCombine(c, prev, rb, recvB*bn, sb, recvB*bn, rn, op)
			} else {
				r.RecvCombine(c, prev, scratch, 0, sb, recvB*bn, rn, op)
			}
		}
	}
	gatherBlocksViaShm(r, c, rb, n, bn, "ring-ar")
}

// ReduceScatterRabenseifner is recursive halving [50] over the two-copy
// transport. Requires power-of-two p (falls back to ring otherwise).
// DAV 5s(p-1) (Table 1).
func ReduceScatterRabenseifner(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := c.Size()
	if p&(p-1) != 0 || p == 1 {
		ReduceScatterRing(r, c, sb, rb, n, op, o)
		return
	}
	me := c.CommRank(r.ID())
	scratch := r.PersistentBuffer("rab-rs/scratch", int64(p)*n)
	rabHalving(r, c, sb, scratch, rb, 0, n, n, me, op)
}

// rabHalving runs the recursive-halving reduce-scatter: block b has bn
// elements (blockLen gives ragged lengths against total n*p... the caller
// passes blockElems and the true per-block length function is uniform for
// reduce-scatter and ragged for all-reduce). The final combine for block
// `me` is written to out[outOff].
func rabHalving(r *mpi.Rank, c *mpi.Comm, sb, scratch, out *memmodel.Buffer, outOff int64,
	blockElems, lastLen int64, me int, op mpi.Op) {
	p := c.Size()
	lo, hi := 0, p
	first := true
	bn := blockElems
	blockLen := func(b int) int64 {
		if b == p-1 {
			return lastLen
		}
		return bn
	}
	rangeLen := func(a, b int) int64 {
		var t int64
		for x := a; x < b; x++ {
			t += blockLen(x)
		}
		return t
	}
	for half := p / 2; half >= 1; half /= 2 {
		mid := lo + half
		var myLo, myHi, otLo, otHi, partner int
		if me < mid {
			myLo, myHi, otLo, otHi, partner = lo, mid, mid, hi, me+half
		} else {
			myLo, myHi, otLo, otHi, partner = mid, hi, lo, mid, me-half
		}
		src := scratch
		if first {
			src = sb
		}
		if sn := rangeLen(otLo, otHi); sn > 0 {
			r.Send(c, partner, src, int64(otLo)*bn, sn)
		}
		rn := rangeLen(myLo, myHi)
		if rn > 0 {
			other := scratch
			if first {
				other = sb
			}
			if half == 1 {
				r.RecvCombine(c, partner, out, outOff, other, int64(myLo)*bn, rn, op)
			} else if first {
				r.RecvCombine(c, partner, scratch, int64(myLo)*bn, sb, int64(myLo)*bn, rn, op)
			} else {
				r.RecvReduce(c, partner, scratch, int64(myLo)*bn, rn, op)
			}
		}
		lo, hi = myLo, myHi
		first = false
	}
}

// AllreduceRabenseifner is recursive halving plus the shared-memory block
// gather. DAV 7s(p-1)+2s for power-of-two p (falls back to ring).
func AllreduceRabenseifner(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	p := c.Size()
	if p&(p-1) != 0 || p == 1 {
		AllreduceRing(r, c, sb, rb, n, op, o)
		return
	}
	me := c.CommRank(r.ID())
	bn := ceilDiv(n, int64(p))
	lastLen := n - bn*int64(p-1) // may be <= 0 for tiny n
	if lastLen < 0 {
		// Tiny messages where blocks vanish entirely: fall back to ring,
		// which handles empty blocks.
		AllreduceRing(r, c, sb, rb, n, op, o)
		return
	}
	scratch := r.PersistentBuffer("rab-ar/scratch", bn*int64(p))
	rabHalving(r, c, sb, scratch, rb, int64(me)*bn, bn, lastLen, me, op)
	gatherBlocksViaShm(r, c, rb, n, bn, "rab-ar")
}

// AllgatherRing is the classic ring all-gather over the two-copy
// transport: rank me contributes sb (n elements) and assembles p*n in rb.
func AllgatherRing(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, _ Options) {
	p := c.Size()
	me := c.CommRank(r.ID())
	r.CopyElems(rb, int64(me)*n, sb, 0, n, memmodel.Temporal)
	if p == 1 {
		return
	}
	next := (me + 1) % p
	prev := (me + p - 1) % p
	for k := 0; k < p-1; k++ {
		sendB := int64((me + p - k) % p)
		recvB := int64((me + p - 1 - k) % p)
		r.Send(c, next, rb, sendB*n, n)
		r.Recv(c, prev, rb, recvB*n, n, memmodel.Temporal)
	}
}
