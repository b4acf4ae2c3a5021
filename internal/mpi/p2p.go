package mpi

import (
	"strconv"

	"yhccl/internal/memmodel"
	"yhccl/internal/shm"
)

// DefaultP2PChunkElems is the pipeline chunk of shared-memory send/recv
// (8192 float64 = 64 KB), matching the eager-path chunking of mainstream
// MPI shared-memory BTLs.
const DefaultP2PChunkElems = 8192

// chanState is the persistent shared-memory pipe between an ordered pair of
// ranks: a message-sized staging segment plus produced/consumed flags.
//
// Send is buffered (eager): the sender copies the whole message into
// staging chunk by chunk without waiting for the receiver, publishing each
// chunk through the produced flag; the receiver pipelines copy-out at chunk
// granularity. Backpressure is one message deep: a sender must wait for the
// receiver to finish draining the previous message before overwriting
// staging. This mirrors how a single-threaded MPI process actually executes
// a sendrecv (copy-in then copy-out, overlap across ranks, not within one)
// and keeps rings parallel rather than serializing them.
//
// All counters are absolute across the communicator's lifetime, so channels
// are reused by consecutive operations without resetting flags — the
// standard epoch trick of shared-memory transports.
type chanState struct {
	name     string // "p2p/src->dst"
	home     int    // the sender's socket, where staging is homed
	staging  *memmodel.Buffer
	produced *shm.Flag // chunks ever published by the sender
	consumed *shm.Flag // messages ever fully drained by the receiver
	chunk    int64     // elements per chunk
	sent     int64     // chunks ever published
	rcvd     int64     // chunks ever consumed
	msgsSent int64
	msgsRcvd int64
	gen      int // staging regrow generation
}

// channel returns the pipe for messages from comm rank src to comm rank
// dst, creating the communicator's (src, dst) table on the first send and
// the pipe on first use.
func (c *Comm) channel(src, dst int) *chanState {
	c.check()
	if c.chans == nil {
		c.chans = make([]*chanState, c.Size()*c.Size())
	}
	ch := c.chans[src*c.Size()+dst]
	if ch == nil {
		name := "p2p/" + strconv.Itoa(src) + "->" + strconv.Itoa(dst)
		ch = &chanState{
			name:     name,
			home:     c.SocketOf(src),
			produced: shm.NewFlag(c.machine.Model, name+"/produced", c.CoreOf(src)),
			consumed: shm.NewFlag(c.machine.Model, name+"/consumed", c.CoreOf(dst)),
			chunk:    DefaultP2PChunkElems,
		}
		c.chans[src*c.Size()+dst] = ch
		c.machine.created += 2
	}
	return ch
}

// fit makes ch's staging hold a message of elems. The channel owns its
// staging outright: homed on the sender's socket (the sender first-touches
// it with copy-in), it is the smallest power of two holding the largest
// message seen, and a regrow drops the previous generation. Staging is
// pinned, so its modelled cost depends on the bytes moved and its home,
// not its length. A regrow must find the staging drained: the sender fits
// after the previous message was consumed, the receiver before the
// message is staged.
func (c *Comm) fit(ch *chanState, elems int64) {
	if ch.staging != nil && ch.staging.Elems >= elems {
		return
	}
	size := int64(1)
	for size < elems {
		size *= 2
	}
	ch.gen++
	ch.staging = c.arena.AllocPinned(ch.name+"/staging@"+strconv.Itoa(ch.gen), ch.home, size)
	c.machine.created++
}

// Send transmits n elements of buf starting at off to comm rank dst using
// the classic two-copy shared-memory path: the sender copies the message
// into staging (copy-in), the receiver copies it out. The send is buffered:
// it completes once the message is staged, waiting only for the previous
// message on this channel to have been drained. Matching Recv/RecvReduce
// calls must agree on n. The chunk copies, each followed by its produced
// set, are one sequence.
func (r *Rank) Send(c *Comm, dst int, buf *memmodel.Buffer, off, n int64) {
	me := c.mustRank(r)
	if dst == me {
		panic("mpi: send to self")
	}
	if n <= 0 {
		panic("mpi: send of non-positive length")
	}
	ch := c.channel(me, dst)
	// One-message-deep backpressure: the previous message must be drained.
	if ch.msgsSent > 0 {
		ch.consumed.Wait(r.proc, r.Core(), uint64(ch.msgsSent))
	}
	c.fit(ch, n)
	chunks := (n + ch.chunk - 1) / ch.chunk
	s := r.Seq(Op{})
	s.Add(memmodel.Part{
		Count:   int(chunks),
		Op:      memmodel.Op{Kind: memmodel.CopyOp, Dst: ch.staging, A: buf, AOff: off, N: ch.chunk},
		DStride: ch.chunk, AStride: ch.chunk, DEnd: n,
		Set: ch.produced.Sync(), SetVal: uint64(ch.sent + 1),
	})
	s.Charge()
	ch.sent += chunks
	ch.msgsSent++
}

// Recv receives n elements into buf at off from comm rank src, copying each
// chunk out of staging with the given store kind as it is published.
func (r *Rank) Recv(c *Comm, src int, buf *memmodel.Buffer, off, n int64, kind memmodel.StoreKind) {
	r.recvCommon(c, src, memmodel.Op{Kind: memmodel.CopyOp, Dst: buf, DOff: off, N: n}, kind, Op{})
}

// RecvReduce receives n elements from comm rank src and folds them into buf
// at off (buf = op(buf, incoming)) without an intermediate copy-out — the
// fused receive+reduce used by ring/Rabenseifner reduction phases.
func (r *Rank) RecvReduce(c *Comm, src int, buf *memmodel.Buffer, off, n int64, op Op) {
	r.recvCommon(c, src, memmodel.Op{Kind: memmodel.AccumulateOp, Dst: buf, DOff: off, N: n}, memmodel.Temporal, op)
}

// recvCommon receives o.N elements from comm rank src and consumes them
// chunk by chunk with o, whose A is staging (at the chunk's offset in the
// message) and whose other operands are at their offsets for the chunk at
// the start of the message. Each chunk's produced wait and op, then the
// consumed set, are one sequence.
func (r *Rank) recvCommon(c *Comm, src int, o memmodel.Op, kind memmodel.StoreKind, op Op) {
	me := c.mustRank(r)
	if src == me {
		panic("mpi: recv from self")
	}
	n := o.N
	if n <= 0 {
		panic("mpi: recv of non-positive length")
	}
	ch := c.channel(src, me)
	c.fit(ch, n)
	chunks := (n + ch.chunk - 1) / ch.chunk
	o.A, o.AOff, o.N = ch.staging, 0, ch.chunk
	s := r.Seq(op)
	s.Add(memmodel.Part{
		Count: int(chunks),
		Wait:  ch.produced.Sync(), WaitVal: uint64(ch.rcvd + 1),
		Op: o, DStride: ch.chunk, AStride: ch.chunk, BStride: ch.chunk, AEnd: n,
		Kind: kind, TailKind: kind,
		Set: ch.consumed.Sync(), SetVal: uint64(ch.msgsRcvd + 1), SetLast: true,
	})
	s.Charge()
	ch.rcvd += chunks
	ch.msgsRcvd++
}

// RecvCombine receives n elements from comm rank src and writes
// dst = op(other, incoming) without intermediate copies — the fused
// first-accumulation of ring reduce-scatter (incoming partial + own send
// buffer slice straight into the output).
func (r *Rank) RecvCombine(c *Comm, src int, dst *memmodel.Buffer, dOff int64,
	other *memmodel.Buffer, oOff, n int64, op Op) {
	r.recvCommon(c, src, memmodel.Op{Kind: memmodel.CombineOp, Dst: dst, DOff: dOff, B: other, BOff: oOff, N: n}, memmodel.Temporal, op)
}

// SendRecv performs the ring/exchange step: send one block to dst and
// receive another from src. Sends are buffered, so the copy-in happens at
// the sender's pace and the copy-out pipelines behind the matching send.
func (r *Rank) SendRecv(c *Comm, dst int, sendBuf *memmodel.Buffer, sendOff, sendN int64,
	src int, recvBuf *memmodel.Buffer, recvOff, recvN int64, kind memmodel.StoreKind) {
	r.Send(c, dst, sendBuf, sendOff, sendN)
	r.Recv(c, src, recvBuf, recvOff, recvN, kind)
}

// SendRecvReduce is SendRecv with the receive side fused into a reduction
// (buf = op(buf, incoming)), the step primitive of ring/Rabenseifner
// reduce-scatter phases.
func (r *Rank) SendRecvReduce(c *Comm, dst int, sendBuf *memmodel.Buffer, sendOff, sendN int64,
	src int, redBuf *memmodel.Buffer, redOff, redN int64, op Op) {
	r.Send(c, dst, sendBuf, sendOff, sendN)
	r.RecvReduce(c, src, redBuf, redOff, redN, op)
}
