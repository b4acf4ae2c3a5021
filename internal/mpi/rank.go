package mpi

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
)

// Rank is one simulated MPI process: a sim.Proc pinned to a core, with the
// modelled data-movement primitives every collective is written in terms
// of. All primitives both perform the real element-wise work (when the
// machine runs in Real mode) and charge the memory cost model.
type Rank struct {
	proc    *sim.Proc
	machine *Machine
	id      int
	op      Op // the reduction of the rank's current op or run
}

// ID returns the global rank id.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.machine.Size() }

// Core returns the core this rank is pinned to.
func (r *Rank) Core() int { return r.machine.RankCores[r.id] }

// Socket returns the socket of this rank's core.
func (r *Rank) Socket() int { return r.machine.Node.SocketOf(r.Core()) }

// Machine returns the owning machine.
func (r *Rank) Machine() *Machine { return r.machine }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.machine.World() }

// SocketComm returns the communicator of this rank's socket.
func (r *Rank) SocketComm() *Comm { return r.machine.SocketComm(r.Socket()) }

// Proc exposes the underlying simulated process.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns this rank's virtual time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// SetOp declares the collective operation this rank is currently executing
// (e.g. "allreduce/ring"), purely for failure diagnostics: a RunError's
// per-rank status names the op each rank died or hung inside.
func (r *Rank) SetOp(name string) {
	if r.id >= 0 && r.id < len(r.machine.rankOps) {
		r.machine.rankOps[r.id] = name
	}
}

// Op returns the operation last declared via SetOp.
func (r *Rank) Op() string {
	if r.id >= 0 && r.id < len(r.machine.rankOps) {
		return r.machine.rankOps[r.id]
	}
	return ""
}

// corrupt gives an armed fault injector its shot at this rank's write into
// a shared buffer (bit-flip corruption lands after the rank computes its
// store values and before any peer can read them). Healthy runs pay one nil
// compare.
func (r *Rank) corrupt(dst *memmodel.Buffer, dOff, n int64) {
	if inj := r.machine.inject; inj != nil && dst.Space == memmodel.Shared && dst.Real() {
		inj.CorruptShared(r.id, r.proc.Now(), dst.Name, dst.Slice(dOff, n))
	}
}

// Compute advances this rank's clock by dt seconds of local computation.
func (r *Rank) Compute(dt float64) { r.proc.Advance(dt) }

// NewBuffer allocates a private buffer of n elements homed on this rank's
// socket (first touch).
func (r *Rank) NewBuffer(label string, n int64) *memmodel.Buffer {
	return r.machine.Model.NewBuffer(
		fmt.Sprintf("rank%d/%s", r.id, label),
		memmodel.Private, r.Socket(), n, r.machine.Real)
}

// PersistentBuffer returns a private buffer that survives across
// invocations (an algorithm's scratch space), growing it if a larger size
// is requested later.
func (r *Rank) PersistentBuffer(label string, n int64) *memmodel.Buffer {
	perRank, ok := r.machine.privBufs[r.id]
	if !ok {
		perRank = make(map[string]*memmodel.Buffer)
		r.machine.privBufs[r.id] = perRank
	}
	if b, ok := perRank[label]; ok && b.Elems >= n {
		return b
	}
	b := r.NewBuffer(label, n)
	perRank[label] = b
	return b
}

// Warm marks a buffer range resident in this rank's socket cache, modelling
// the application having just produced/updated the data.
func (r *Rank) Warm(b *memmodel.Buffer, off, n int64) {
	r.machine.Model.Warm(r.Core(), b, off, n)
}

// Load charges a temporal load of n elements of b at off.
func (r *Rank) Load(b *memmodel.Buffer, off, n int64) {
	r.machine.Model.Load(r.proc, r.Core(), b, off, n)
}

// Store charges a store of n elements into b at off.
func (r *Rank) Store(b *memmodel.Buffer, off, n int64, kind memmodel.StoreKind) {
	r.machine.Model.Store(r.proc, r.Core(), b, off, n, kind)
}

// CopyElems copies n elements from src[sOff] to dst[dOff] with the given
// store kind: one modelled load plus one store, plus the real data movement
// in Real mode. Copies that cross the private/shared boundary count toward
// the paper's copy volume V.
func (r *Rank) CopyElems(dst *memmodel.Buffer, dOff int64, src *memmodel.Buffer, sOff, n int64, kind memmodel.StoreKind) {
	r.fuse(memmodel.Op{Kind: memmodel.CopyOp, Dst: dst, DOff: dOff, A: src, AOff: sOff, N: n}, kind)
}

// AccumulateElems performs dst[dOff..] = op(dst[dOff..], src[sOff..]) over
// n elements (the paper's A += B): two loads plus one store plus the
// arithmetic floor.
func (r *Rank) AccumulateElems(dst *memmodel.Buffer, dOff int64, src *memmodel.Buffer, sOff, n int64, op Op, kind memmodel.StoreKind) {
	r.op = op
	r.fuse(memmodel.Op{Kind: memmodel.AccumulateOp, Dst: dst, DOff: dOff, A: src, AOff: sOff, N: n}, kind)
}

// CombineElems performs out[oOff..] = op(a[aOff..], b[bOff..]) over n
// elements (the paper's C = A + B): two loads plus one store plus the
// arithmetic floor.
func (r *Rank) CombineElems(out *memmodel.Buffer, oOff int64, a *memmodel.Buffer, aOff int64, b *memmodel.Buffer, bOff, n int64, op Op, kind memmodel.StoreKind) {
	r.op = op
	r.fuse(memmodel.Op{Kind: memmodel.CombineOp, Dst: out, DOff: oOff, A: a, AOff: aOff, B: b, BOff: bOff, N: n}, kind)
}

// CopyRun copies n elements from src[sOff] to dst[dOff] as a run of
// CopyElems ops of at most slice elements each, in order. The run is
// charged as one sim.Charge, so the rank's coroutine resumes once for the
// whole run instead of once per op; the schedule, clocks, counters and
// data are those of the per-op loop. All ranges are checked before the
// first op.
func (r *Rank) CopyRun(dst *memmodel.Buffer, dOff int64, src *memmodel.Buffer, sOff, n, slice int64, kind memmodel.StoreKind) {
	r.ReduceRun(dst, dOff, []*memmodel.Buffer{src}, sOff, n, slice, Op{}, kind)
}

// ReduceRun folds srcs[sOff..] into dst[dOff..] over n elements, slice by
// slice (at most slice elements each): per slice, CombineElems of srcs[0]
// and srcs[1], then AccumulateElems of each further source; with one
// source, CopyElems. It is charged as one run, like CopyRun.
func (r *Rank) ReduceRun(dst *memmodel.Buffer, dOff int64, srcs []*memmodel.Buffer, sOff, n, slice int64, op Op, kind memmodel.StoreKind) {
	if n == 0 {
		return
	}
	r.op = op
	r.machine.Model.Run(r.proc, r.Core(), dst, dOff, srcs, sOff, n, slice, kind, (*opBody)(r))
}

// Seq starts a sequence of ops on r: each part added to it (see
// memmodel.Part) lays out items of a flag wait, a run of fused ops and a
// flag set, and Charge charges them all as one sim.Charge, so the rank's
// coroutine resumes once for the whole sequence instead of once per op or
// wait. The schedule, clocks, counters (sync count included) and data are
// those of the same waits, ops and sets issued one by one, each op doing
// its data work as CopyElems, AccumulateElems or CombineElems would, with
// op as the reduction. Flags enter a part through shm.Flag.Sync, buffers
// through the communicator's accessors. Every range is checked as a part
// is added, before the first step.
func (r *Rank) Seq(op Op) *memmodel.Seq {
	r.op = op
	return r.machine.Model.Seq(r.proc, r.Core(), (*opBody)(r))
}

// fuse charges the single op o.
func (r *Rank) fuse(o memmodel.Op, kind memmodel.StoreKind) {
	if o.N == 0 {
		return
	}
	r.machine.Model.Fuse(r.proc, r.Core(), o, kind, (*opBody)(r))
}

// opBody is a rank as the memmodel.Work of its ops: the real-data work, the
// fault write hook and the copy-volume count of one op, run when the op's
// first sub-charge runs. Reductions use the rank's current op.
type opBody Rank

// Do implements memmodel.Work.
func (b *opBody) Do(o *memmodel.Op) {
	r := (*Rank)(b)
	real := o.Dst.Real() && o.A.Real()
	switch o.Kind {
	case memmodel.CopyOp:
		if real {
			copy(o.Dst.Slice(o.DOff, o.N), o.A.Slice(o.AOff, o.N))
		}
		if o.Dst.Space != o.A.Space {
			r.machine.Model.CountCopyVolume(o.N)
		}
	case memmodel.AccumulateOp:
		if real {
			r.op.Apply(o.Dst.Slice(o.DOff, o.N), o.A.Slice(o.AOff, o.N))
		}
	case memmodel.CombineOp:
		if real = real && o.B.Real(); real {
			r.op.Combine(o.Dst.Slice(o.DOff, o.N), o.A.Slice(o.AOff, o.N), o.B.Slice(o.BOff, o.N))
		}
	}
	if real {
		r.corrupt(o.Dst, o.DOff, o.N)
	}
}

// FillPattern writes a deterministic test pattern into a real buffer
// without charging the model (test/bench setup helper). Element i of rank
// r's buffer gets base + i.
func (r *Rank) FillPattern(b *memmodel.Buffer, base float64) {
	if !b.Real() {
		return
	}
	data := b.Slice(0, b.Elems)
	for i := range data {
		data[i] = base + float64(i)
	}
}
