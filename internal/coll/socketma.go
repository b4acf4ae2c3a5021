package coll

import (
	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// The socket-aware MA reduction (§3.3, Fig. 7) trades a little extra DAV
// (+2(m-1)s) for far fewer serialized neighbour synchronizations: each
// socket runs an independent intra-socket MA reduction over its q = p/m
// ranks (chain length q-1 instead of p-1), then the owners of the global
// blocks combine the m per-socket partial results.
//
// Geometry: the message is viewed as p global blocks of bn elements (block
// b belongs to global rank b). Socket k's intra-MA treats intra-block j as
// the concatenation of global blocks j*m .. j*m+m-1, and processes one
// (g, c) piece per pass: piece c (I elements) of global block j*m+g inside
// every intra block j. After a pass, socket k's slot j holds the partial
// sum (over socket k's ranks) of that piece of block j*m+g; the owner rank
// j*m+g combines the m slots across sockets.

// socketsBalanced reports whether every socket hosts the same number of
// ranks and global rank b sits on socket b/q (block binding) — the
// geometry the two-level algorithm requires. Unbalanced bindings fall back
// to the flat MA reduction.
func socketsBalanced(c *mpi.Comm) bool {
	mach := c.Machine()
	m := mach.Sockets()
	if m <= 1 || c.Size()%m != 0 {
		return false
	}
	q := c.Size() / m
	for i := 0; i < c.Size(); i++ {
		if c.SocketOf(i) != i/q {
			return false
		}
	}
	return true
}

// socketGeometry captures the common parameters.
type socketGeometry struct {
	p, m, q int   // ranks, sockets, ranks per socket
	bn      int64 // global block length
	I       int64 // slice length
	n       int64 // total message elements (bn*p conceptually, ragged ok)
}

// socketMAReduce runs the two-level reduction; intra labels the
// intra-socket MA contexts. combine(dst geometry) is called on the owner
// rank of each finished piece with the global block index b, the piece
// offset within the block, the piece length and the slot offset; it must
// fold the m socket partials into the final destination. Barriers bracket
// each pass.
func socketMAReduce(r *mpi.Rank, c *mpi.Comm, sb *memmodel.Buffer, n int64, op mpi.Op, o Options,
	intra string, combine func(g socketGeometry, b int, pieceOff, length, slotOff int64),
	afterPass func(g socketGeometry, b0 int, pieceOff, length int64)) {

	o = o.withDefaults()
	mach := c.Machine()
	p := c.Size()
	m := mach.Sockets()
	sc := r.SocketComm()
	q := sc.Size()
	bn := ceilDiv(n, int64(p))
	I := sliceElems(bn, o)
	geo := socketGeometry{p: p, m: m, q: q, bn: bn, I: I, n: n}

	mc := newMACtx(r, sc, I, intra)
	w := (n*int64(p)*2 + int64(m)*int64(q)*I) * memmodel.ElemSize
	hIn := hints(mach, false, w)

	for g := 0; g < m; g++ {
		for start := int64(0); start < bn; start += I {
			length := min64(I, bn-start)
			// Intra-socket pass: slot j covers global block j*m+g, piece
			// [start, start+length), cut where the message ends.
			mc.pass(r, sb, int64(g)*bn+start, int64(m)*bn, n, length, memmodel.Op{}, 0, op, o.Policy, hIn)
			c.Barrier().Arrive(r.Proc())
			// Cross-socket combine: the owner of block b = j*m+g folds the
			// m socket partials of slot j. Owners of this pass are the q
			// ranks whose id is congruent to g modulo m.
			meGlobal := c.CommRank(r.ID())
			if meGlobal%m == g {
				j := meGlobal / m
				if j < q {
					if ln := min64(length, n-(int64(meGlobal)*bn+start)); ln > 0 {
						combine(geo, meGlobal, start, ln, int64(j)*I)
					}
				}
			}
			c.Barrier().Arrive(r.Proc())
			if afterPass != nil {
				afterPass(geo, g, start, length)
				c.Barrier().Arrive(r.Proc())
			}
		}
	}
}

// combineSockets folds the m per-socket partials of slot `slotOff` into
// dst[dOff..] as one run, charging the cross-socket loads the remote slots
// imply. The partials are the intra-socket MA segments (q slots of I)
// labelled intra, each homed on its socket.
func combineSockets(r *mpi.Rank, c *mpi.Comm, geo socketGeometry, intra string,
	dst *memmodel.Buffer, dOff, slotOff, length int64, op mpi.Op, kind memmodel.StoreKind) {
	srcs := c.SocketShared(mpi.Key{Label: intra, Name: "shm/I=%d", A: geo.I}, geo.I*int64(geo.q))
	r.ReduceRun(dst, dOff, srcs, slotOff, length, length, op, kind)
}

// ReduceScatterSocketMA is the socket-aware MA reduce-scatter (§3.3,
// Fig. 7): DAV s*(3p+2m-3). sb holds p*n elements; rank b receives block b.
func ReduceScatterSocketMA(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	o = o.withDefaults()
	if !socketsBalanced(c) || c.Size() < 2*c.Machine().Sockets() {
		ReduceScatterMA(r, c, sb, rb, n, op, o)
		return
	}
	// For reduce-scatter, sb has p blocks of exactly n: total message p*n.
	total := int64(c.Size()) * n
	w := (total*int64(c.Size()) + total) * memmodel.ElemSize
	hOut := hints(c.Machine(), true, w)
	const intra = "sma-rs/intra"
	socketMAReduce(r, c, sb, total, op, o, intra,
		func(geo socketGeometry, b int, pieceOff, length, slotOff int64) {
			kind := memcopy.Decide(o.Policy, length*memmodel.ElemSize, hOut)
			combineSockets(r, c, geo, intra, rb, pieceOff, slotOff, length, op, kind)
		}, nil)
}

// AllreduceSocketMA is the socket-aware MA all-reduce (§3.4): DAV
// s*(5p+2m-3). The combined pieces land in a node-level shared segment and
// every rank copies each finished piece out.
func AllreduceSocketMA(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	o = o.withDefaults()
	mach := c.Machine()
	if !socketsBalanced(c) || c.Size() < 2*mach.Sockets() {
		AllreduceMA(r, c, sb, rb, n, op, o)
		return
	}
	p := int64(c.Size())
	bn := ceilDiv(n, p)
	I := sliceElems(bn, o)
	q := int64(r.SocketComm().Size())
	nodeShm := c.Shared(mpi.Key{Label: "sma-ar", Name: "node/I=%d", A: I}, 0, I*q)
	w := (n*p + n*p + int64(mach.Sockets())*q*I) * memmodel.ElemSize
	hOut := hints(mach, true, w)
	const intra = "sma-ar/intra"
	socketMAReduce(r, c, sb, n, op, o, intra,
		func(geo socketGeometry, b int, pieceOff, length, slotOff int64) {
			// Owners write combined pieces into the node segment (temporal:
			// it is immediately re-read by every rank's copy-out).
			combineSockets(r, c, geo, intra, nodeShm, slotOff, slotOff, length, op, memmodel.Temporal)
		},
		func(geo socketGeometry, g int, pieceOff, length int64) {
			// Every rank copies all q finished pieces of this pass to rb,
			// staggered: piece j is of block j*m+g.
			s := r.Seq(op)
			copyPieces(s, rb, nodeShm, geo, c.CommRank(r.ID()), geo.q, g, pieceOff, length, o.Policy, hOut)
			s.Charge()
		})
}

// ReduceSocketMA is the socket-aware MA reduce (§3.5): DAV s*(3p+2m-1).
func ReduceSocketMA(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options) {
	o = o.withDefaults()
	mach := c.Machine()
	if !socketsBalanced(c) || c.Size() < 2*mach.Sockets() {
		ReduceMA(r, c, sb, rb, n, op, root, o)
		return
	}
	p := int64(c.Size())
	bn := ceilDiv(n, p)
	I := sliceElems(bn, o)
	q := int64(r.SocketComm().Size())
	nodeShm := c.Shared(mpi.Key{Label: "sma-red", Name: "node/I=%d", A: I}, 0, I*q)
	w := (n*p + n + int64(mach.Sockets())*q*I) * memmodel.ElemSize
	hOut := hints(mach, true, w)
	const intra = "sma-red/intra"
	socketMAReduce(r, c, sb, n, op, o, intra,
		func(geo socketGeometry, b int, pieceOff, length, slotOff int64) {
			combineSockets(r, c, geo, intra, nodeShm, slotOff, slotOff, length, op, memmodel.Temporal)
		},
		func(geo socketGeometry, g int, pieceOff, length int64) {
			if c.CommRank(r.ID()) != root {
				return
			}
			s := r.Seq(op)
			copyPieces(s, rb, nodeShm, geo, 0, 0, g, pieceOff, length, o.Policy, hOut)
			s.Charge()
		})
}

// copyPieces adds to s the copies of a pass's q finished pieces from the
// node segment to rb: piece j (at j*I) holds piece pieceOff of global
// block j*m+g, length elements cut where the message ends. The copies
// start at piece rot, mod mod (mod 0: no rotation).
func copyPieces(s *memmodel.Seq, rb, nodeShm *memmodel.Buffer, geo socketGeometry, rot, mod, g int,
	pieceOff, length int64, pol memcopy.Policy, hOut memcopy.Hints) {
	memcopy.CopyPart(s, pol, memmodel.Part{
		Count: geo.q, Rot: rot, Mod: mod,
		Op:      memmodel.Op{Kind: memmodel.CopyOp, Dst: rb, DOff: int64(g)*geo.bn + pieceOff, A: nodeShm, N: length},
		DStride: int64(geo.m) * geo.bn, AStride: geo.I, DEnd: geo.n,
	}, hOut)
}
