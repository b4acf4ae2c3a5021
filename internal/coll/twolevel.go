package coll

import (
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// The two-level parallel reduction (§5.1): for messages too small to
// benefit from MA reduction (sync-bound regime, s <= 256 KB), YHCCL
// optimizes the DPML parallel reduction with the socket hierarchy — one
// copy-in, one intra-socket parallel reduce, one cross-socket combine —
// so the whole collective costs a constant number of barriers instead of
// the MA neighbour chain.

// AllreduceTwoLevel is the small-message all-reduce: copy-in to per-socket
// segments, intra-socket parallel block reduction, cross-socket combine
// into a node segment, copy-out.
func AllreduceTwoLevel(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	twoLevelReduce(r, c, sb, n, op, o, "2lvl-ar", "2lvl-ar/flat", func(res *memmodel.Buffer) {
		r.CopyRun(rb, 0, res, 0, n, dpmlSliceElems, memmodel.Temporal)
	})
}

// ReduceTwoLevel is the small-message rooted reduce.
func ReduceTwoLevel(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options) {
	me := c.CommRank(r.ID())
	twoLevelReduce(r, c, sb, n, op, o, "2lvl-red", "2lvl-red/flat", func(res *memmodel.Buffer) {
		if me != root {
			return
		}
		r.CopyElems(rb, 0, res, 0, n, memmodel.Temporal)
	})
}

// ReduceScatterTwoLevel is the small-message reduce-scatter: sb has p*n,
// rank b keeps block b.
func ReduceScatterTwoLevel(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	me := int64(c.CommRank(r.ID()))
	total := int64(c.Size()) * n
	twoLevelReduce(r, c, sb, total, op, o, "2lvl-rs", "2lvl-rs/flat", func(res *memmodel.Buffer) {
		r.CopyElems(rb, 0, res, me*n, n, memmodel.Temporal)
	})
}

// twoLevelReduce reduces the full n-element message into a node shared
// segment and hands it to finish after a barrier. label keys the
// collective's resources, flat those of its plain-DPML fallback.
func twoLevelReduce(r *mpi.Rank, c *mpi.Comm, sb *memmodel.Buffer, n int64, op mpi.Op, o Options,
	label, flat string, finish func(res *memmodel.Buffer)) {
	o = o.withDefaults()
	p := c.Size()
	me := c.CommRank(r.ID())

	if !socketsBalanced(c) {
		// Single socket or irregular binding: plain DPML shape.
		segs, res := dpmlCopyIn(r, c, sb, n, flat)
		c.Barrier().Arrive(r.Proc())
		bn := ceilDiv(n, int64(p))
		lo := int64(me) * bn
		if lo < n {
			r.ReduceRun(res, lo, segs, lo, min64(bn, n-lo), dpmlSliceElems, op, memmodel.Temporal)
		}
		c.Barrier().Arrive(r.Proc())
		finish(res)
		c.Barrier().Arrive(r.Proc())
		return
	}

	sc := r.SocketComm()
	q := sc.Size()
	u := sc.CommRank(r.ID())

	// Level 1: copy-in to the socket segment set, intra-socket parallel
	// reduction of per-rank sub-blocks into the socket partial.
	segs := sc.Segments(mpi.Key{Label: label, Name: "seg%d/n=%d", B: n}, n)
	partialKey := mpi.Key{Label: label, Name: "partial/n=%d", A: n}
	partial := sc.Shared(partialKey, r.Socket(), n)
	r.CopyElems(segs[u], 0, sb, 0, n, memmodel.Temporal)
	sc.Barrier().Arrive(r.Proc())
	bq := ceilDiv(n, int64(q))
	lo := int64(u) * bq
	if lo < n {
		r.ReduceRun(partial, lo, segs, lo, min64(bq, n-lo), dpmlSliceElems, op, memmodel.Temporal)
	}
	c.Barrier().Arrive(r.Proc())

	// Level 2: cross-socket combine into the node result. Rank i handles
	// sub-block i of p.
	res := c.Shared(mpi.Key{Label: label, Name: "res/n=%d", A: n}, 0, n)
	bp := ceilDiv(n, int64(p))
	lo = int64(me) * bp
	if lo < n {
		ln := min64(bp, n-lo)
		r.ReduceRun(res, lo, c.SocketShared(partialKey, n), lo, ln, ln, op, memmodel.Temporal)
	}
	c.Barrier().Arrive(r.Proc())
	finish(res)
	c.Barrier().Arrive(r.Proc())
}
