package memmodel

import (
	"fmt"

	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// Version identifies the cost model's behaviour for consumers that persist
// model-derived results (the tuned-plan cache keys on it). Bump whenever a
// change can alter predicted times or counters — stale caches are then
// rejected and re-tuned rather than silently trusted.
const Version = 1

// Counters accumulates the traffic statistics of a run. Logical counters
// correspond to the paper's data-access-volume analysis (Tables 1-3); the
// DRAM counters correspond to its memory-bandwidth analysis (Table 4,
// Figs. 12-14).
type Counters struct {
	// LoadBytes is the logical bytes loaded (every Load and the load halves
	// of Copy/Reduce).
	LoadBytes int64
	// StoreBytes is the logical bytes stored.
	StoreBytes int64
	// CopyVolume is the paper's V: bytes moved by copy operations between
	// private and shared memory (2 x size per copy: one load + one store).
	CopyVolume int64
	// DRAMTraffic is bytes that actually crossed a memory controller:
	// demand fills, RFO fills, write-backs and non-temporal stores.
	DRAMTraffic int64
	// RFOBytes is the subset of DRAMTraffic due to read-for-ownership
	// line fills triggered by temporal store misses.
	RFOBytes int64
	// WritebackBytes is the subset of DRAMTraffic due to dirty evictions.
	WritebackBytes int64
	// NTStoreBytes is the subset of DRAMTraffic written by non-temporal
	// stores.
	NTStoreBytes int64
	// CrossSocketBytes is DRAM traffic served by a remote socket's memory.
	CrossSocketBytes int64
	// SyncCount is the number of synchronization events charged.
	SyncCount int64
}

// DAV returns the logical data access volume (loads + stores), the metric
// of the paper's Tables 1-3.
func (c Counters) DAV() int64 { return c.LoadBytes + c.StoreBytes }

// Sub returns c - o, for measuring a region between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		LoadBytes:        c.LoadBytes - o.LoadBytes,
		StoreBytes:       c.StoreBytes - o.StoreBytes,
		CopyVolume:       c.CopyVolume - o.CopyVolume,
		DRAMTraffic:      c.DRAMTraffic - o.DRAMTraffic,
		RFOBytes:         c.RFOBytes - o.RFOBytes,
		WritebackBytes:   c.WritebackBytes - o.WritebackBytes,
		NTStoreBytes:     c.NTStoreBytes - o.NTStoreBytes,
		CrossSocketBytes: c.CrossSocketBytes - o.CrossSocketBytes,
		SyncCount:        c.SyncCount - o.SyncCount,
	}
}

// Model is the memory-system cost model for one node. It is not safe for
// concurrent use on its own; the sim engine's one-runnable-proc-at-a-time
// discipline provides the required serialization.
type Model struct {
	Node *topo.Node

	ranksPerSocket []int // how many ranks are bound to each socket
	caches         []*cacheState

	counters Counters
	bufSeq   uint64
	tracer   *sim.Tracer

	// coreSocket[core] caches Node.SocketOf(core): the per-op integer
	// division showed up in charge-pipeline profiles. coreSlot[core] is the
	// core's index within its socket — the cursor bank it uses in its
	// socket's residency tracker (see cacheState.curs).
	coreSocket []int
	coreSlot   []int

	// dramBWPerRank[s] is the steady-state DRAM bandwidth share of one rank
	// on socket s; cacheBWPerRank likewise for the shared cache.
	dramBWPerRank  []float64
	cacheBWPerRank []float64

	// dramBW[s][home] is dramBWPerRank[s] with the cross-socket penalty
	// already folded in when home != s. The fold is the same single
	// multiplication the per-op path used to perform, done once at model
	// construction, so charged times are bit-identical.
	dramBW [][]float64

	// external[s] is the number of co-tenant ranks (other jobs on the same
	// physical socket) sharing socket s's DRAM/L3 bandwidth and LLC
	// capacity. All-zero for a solo job.
	external []int

	// charges[i] is the charge slot of the proc with ID i (see Seq and
	// growCharges).
	charges []Seq
}

// New builds a model for the node with the given rank-to-core binding
// (rankCores[i] is the core rank i is pinned to). Bandwidth shares are the
// steady-state division of per-socket resources among the ranks bound there.
func New(node *topo.Node, rankCores []int) *Model {
	return NewShared(node, rankCores, nil)
}

// NewShared builds a co-tenant model: externalPerSocket[s] ranks of OTHER
// jobs run on socket s. Cores are exclusively leased per job, but the
// socket-shared resources are not — each external rank joins the divisor of
// the per-rank DRAM and L3 bandwidth shares, and the job's LLC capacity
// share shrinks to own/(own+external) of the socket's L3 (private L2s stay
// private on non-inclusive parts). With no external ranks the arithmetic is
// exactly New's, so solo-job behaviour — and therefore Version and every
// golden-determinism baseline — is unchanged.
func NewShared(node *topo.Node, rankCores []int, externalPerSocket []int) *Model {
	if err := node.Validate(); err != nil {
		panic(fmt.Sprintf("memmodel: invalid node: %v", err))
	}
	if len(externalPerSocket) > node.Sockets {
		panic(fmt.Sprintf("memmodel: %d external-rank entries for %d sockets",
			len(externalPerSocket), node.Sockets))
	}
	m := &Model{
		Node:           node,
		ranksPerSocket: make([]int, node.Sockets),
		caches:         make([]*cacheState, node.Sockets),
		coreSocket:     make([]int, node.Cores()),
		coreSlot:       make([]int, node.Cores()),
		dramBWPerRank:  make([]float64, node.Sockets),
		cacheBWPerRank: make([]float64, node.Sockets),
		dramBW:         make([][]float64, node.Sockets),
		external:       make([]int, node.Sockets),
	}
	for s, e := range externalPerSocket {
		if e < 0 {
			panic(fmt.Sprintf("memmodel: negative external rank count %d on socket %d", e, s))
		}
		m.external[s] = e
	}
	for core := range m.coreSocket {
		m.coreSocket[core] = node.SocketOf(core)
		m.coreSlot[core] = core - m.coreSocket[core]*node.CoresPerSocket
	}
	for _, core := range rankCores {
		m.ranksPerSocket[node.SocketOf(core)]++
	}
	for s := 0; s < node.Sockets; s++ {
		own := m.ranksPerSocket[s]
		ext := m.external[s]
		// The socket-level residency capacity follows the paper's
		// available-cache rule, applied per socket: shared LLC plus (on
		// non-inclusive parts) the private L2s of the ranks bound here.
		// Co-tenants claim their proportional LLC share; the ext == 0
		// branch keeps the solo value bit-identical (no division).
		capacity := node.L3PerSocket
		if ext > 0 && own > 0 {
			capacity = node.L3PerSocket * int64(own) / int64(own+ext)
		}
		if !node.L3Inclusive {
			capacity += int64(own) * node.L2PerCore
		}
		m.caches[s] = newCacheState(s, capacity)
		sharers := own + ext
		if sharers == 0 {
			sharers = 1
		}
		m.dramBWPerRank[s] = minf(node.DRAMBandwidthPerCore,
			node.DRAMBandwidthPerSocket/float64(sharers))
		m.cacheBWPerRank[s] = minf(node.CacheBandwidthPerCore,
			node.L3BandwidthPerSocket/float64(sharers))
		m.dramBW[s] = make([]float64, node.Sockets)
		for home := 0; home < node.Sockets; home++ {
			bw := m.dramBWPerRank[s]
			if home != s {
				bw *= node.CrossSocketFactor
			}
			m.dramBW[s][home] = bw
		}
	}
	return m
}

// NewBuffer allocates a modelled buffer of n float64 elements homed on the
// given socket. When real is true the buffer carries actual data.
func (m *Model) NewBuffer(name string, space Space, home int, n int64, real bool) *Buffer {
	if home < 0 || home >= m.Node.Sockets {
		panic(fmt.Sprintf("memmodel: buffer %q homed on invalid socket %d", name, home))
	}
	if n < 0 {
		panic(fmt.Sprintf("memmodel: buffer %q with negative size", name))
	}
	m.bufSeq++
	b := &Buffer{ID: m.bufSeq, Name: name, Space: space, Home: home, Elems: n}
	if real {
		b.Data = make([]float64, n)
	}
	return b
}

// SetTracer attaches an event tracer: every modelled memory operation is
// recorded as a span on the acting process's timeline (nil disables).
func (m *Model) SetTracer(t *sim.Tracer) { m.tracer = t }

// Tracer returns the attached tracer (nil when disabled).
func (m *Model) Tracer() *sim.Tracer { return m.tracer }

// Counters returns a snapshot of the accumulated counters.
func (m *Model) Counters() Counters { return m.counters }

// ResetCounters zeroes the counters (residency state is preserved).
func (m *Model) ResetCounters() { m.counters = Counters{} }

// DropCaches empties every socket's residency tracker (cold start). The
// trackers' work counters carry over.
func (m *Model) DropCaches() {
	for s, old := range m.caches {
		m.caches[s] = newCacheState(s, old.capacity)
		m.caches[s].counts = old.counts
	}
}

// TrackerCounts returns the residency trackers' work counters, summed over
// sockets, since the model was built.
func (m *Model) TrackerCounts() TrackerCounts {
	var t TrackerCounts
	for _, c := range m.caches {
		t.Evictions += c.counts.Evictions
		t.SearchedEvictions += c.counts.SearchedEvictions
		t.Seeks += c.counts.Seeks
		t.SeekFallbacks += c.counts.SeekFallbacks
	}
	return t
}

// CacheOccupancy returns the resident bytes on a socket (diagnostics).
func (m *Model) CacheOccupancy(socket int) int64 { return m.caches[socket].occupancy() }

// AvailableCache returns the paper's C for the p ranks of this model's
// binding: the node-wide capacity usable by the collective (§4.2).
func (m *Model) AvailableCache() int64 {
	total := int64(0)
	for _, c := range m.caches {
		total += c.capacity
	}
	return total
}

// SyncLatency returns the one-way flag latency between two cores.
func (m *Model) SyncLatency(coreA, coreB int) float64 {
	if m.coreSocket[coreA] == m.coreSocket[coreB] {
		return m.Node.SyncLatencyIntra
	}
	return m.Node.SyncLatencyInter
}

// CountSync records a synchronization event (the latency itself is charged
// through sim flags/barriers by the caller).
func (m *Model) CountSync() { m.counters.SyncCount++ }

// CountWait records a flag wait by the rank on waiterCore for a flag owned
// by ownerCore and returns the wait's latency. It is the one accounting of
// a flag wait: shm flag waits and sequence waits both make it at the
// wait's turn.
func (m *Model) CountWait(waiterCore, ownerCore int) float64 {
	m.CountSync()
	return m.SyncLatency(waiterCore, ownerCore)
}

// dramTime charges DRAM traffic originating on `socket` against buffer b's
// home memory and returns the time it takes.
func (m *Model) dramTime(socket int, b *Buffer, bytes int64) float64 {
	if bytes == 0 {
		return 0
	}
	if b.Home != socket {
		m.counters.CrossSocketBytes += bytes
	}
	m.counters.DRAMTraffic += bytes
	return float64(bytes) / m.dramBW[socket][b.Home]
}

// pinnedTime is the access time for a pinned (always-resident) buffer:
// cache speed locally, cross-socket cache-to-cache penalty remotely.
func (m *Model) pinnedTime(socket int, b *Buffer, bytes int64) float64 {
	t := m.cacheTime(socket, bytes)
	if b.Home != socket {
		t /= m.Node.CrossSocketFactor
		m.counters.CrossSocketBytes += bytes
	}
	return t
}

// cacheTime returns the time for `bytes` served at cache speed.
func (m *Model) cacheTime(socket int, bytes int64) float64 {
	if bytes == 0 {
		return 0
	}
	return float64(bytes) / m.cacheBWPerRank[socket]
}

// Load charges a temporal load of n elements of b at offset off, performed
// by the rank running on `core`, advancing p's clock. Loaded data becomes
// cache-resident on the core's socket.
func (m *Model) Load(p *sim.Proc, core int, b *Buffer, off, n int64) {
	b.CheckRange(off, n)
	s := subCharge{op: opLoad, b: b, off: off}
	m.advance(p, &s, m.load(m.coreSocket[core], m.coreSlot[core], b, off, n))
}

// Store charges a store of n elements into b at offset off. Temporal stores
// write-allocate: misses trigger an RFO line fill (DRAM read) and leave the
// region dirty; hits run at cache speed. Non-temporal stores bypass the
// cache entirely and invalidate any resident copy.
func (m *Model) Store(p *sim.Proc, core int, b *Buffer, off, n int64, kind StoreKind) {
	b.CheckRange(off, n)
	s := subCharge{op: storeOp(kind), b: b, off: off}
	m.advance(p, &s, m.store(m.coreSocket[core], m.coreSlot[core], b, off, n, s.op))
}

// OpKind says which fused op an Op is.
type OpKind uint8

const (
	// CopyOp is Dst = A: a load of A and a store of Dst.
	CopyOp OpKind = iota
	// AccumulateOp is Dst op= A: loads of Dst and A, the store of Dst and
	// the arithmetic floor, in that order.
	AccumulateOp
	// CombineOp is Dst = A op B: loads of A and B, the store of Dst and the
	// arithmetic floor, in that order.
	CombineOp
)

// Op is one fused memory op over N elements: its kind and its operands at
// their element offsets (B is used by CombineOp only).
type Op struct {
	Kind OpKind
	Dst  *Buffer
	DOff int64
	A    *Buffer
	AOff int64
	B    *Buffer
	BOff int64
	N    int64
}

// Work is the data side of fused ops. The model calls Do(op) when op's
// first sub-charge runs, which is where a rank issuing op alone would do
// op's data work. That may be in the engine loop while the proc is parked
// inside a run, so Do is bound by sim.Charge's rules for Next.
type Work interface {
	Do(op *Op)
}

// Fuse charges op, one fused op, to p, the rank on core, as one
// sim.Charge, calling w.Do(op) (when w is not nil) just before its first
// sub-charge. It is a sequence of one item with no wait or set. The kind
// and every range are checked here, on p's stack, before any sub-charge
// runs.
//
// Determinism: the sub-charges are the ones separate Load, Store and
// ReduceFloor calls would make, each updating residency and counters and
// then advancing the clock with the same float operations in the same
// order. Between them p may park (one sim.Charge is exactly one Advance
// per sub-charge in schedule), and other ranks then update the same
// per-socket tracker before the next sub-charge reads it. The engine runs
// that next sub-charge itself when it pops p — the moment the resumed rank
// would have run it — so charged times, counters and residency decisions
// are bit-identical to one Advance per sub-charge. The same holds across
// the ops of a Run or a sequence, for the data work w does at each op's
// first sub-charge — it runs at the point of the schedule where the rank
// would have run it before issuing the op alone — and for a sequence's
// waits and sets, which are the engine's Wait and Set at the points where
// the rank would have called them.
func (m *Model) Fuse(p *sim.Proc, core int, op Op, kind StoreKind, w Work) {
	s := m.Seq(p, core, w)
	s.Add(Part{Count: 1, Op: op, Kind: kind, TailKind: kind})
	s.Charge()
}

// Run charges a run of fused ops to p, the rank on core, as one
// sim.Charge: srcs (all at element offset sOff) folded into dst at dOff,
// over n elements, in slices of at most slice elements. Each slice is a
// CopyOp of srcs[0] when there is one source, and otherwise a CombineOp of
// srcs[0] and srcs[1] followed by an AccumulateOp of each further source.
// It is a sequence of one item whose ops fold the further sources. w.Do
// (when w is not nil) runs at each op's first sub-charge, as in Fuse,
// whose determinism argument covers every op of the run. Every range is
// checked here, before any sub-charge runs.
func (m *Model) Run(p *sim.Proc, core int, dst *Buffer, dOff int64, srcs []*Buffer, sOff, n, slice int64, kind StoreKind, w Work) {
	if len(srcs) == 0 || slice <= 0 {
		panic(fmt.Sprintf("memmodel: run into %q of %d sources in slices of %d", dst.Name, len(srcs), slice))
	}
	s := m.Seq(p, core, w)
	op := Op{Kind: CopyOp, Dst: dst, DOff: dOff, A: srcs[0], AOff: sOff, N: n}
	if len(srcs) > 1 {
		op.Kind, op.B, op.BOff = CombineOp, srcs[1], sOff
		for _, src := range srcs[2:] {
			src.CheckRange(sOff, n)
		}
		s.folds = append(s.folds, srcs[2:]...)
	}
	s.Add(Part{Count: 1, Op: op, Slice: slice, Kind: kind, TailKind: kind})
	s.Charge()
}

// CountCopyVolume adds 2*n elements worth of bytes to the copy-volume
// counter V (one load plus one store per copied byte, paper §2.1). The
// Work of a private<->shared CopyOp invokes it at the op's first
// sub-charge.
func (m *Model) CountCopyVolume(n int64) {
	m.counters.CopyVolume += 2 * n * ElemSize
}

// ReduceFloor charges the arithmetic floor of reducing n elements (SIMD
// throughput cap). Memory time is charged separately by Load/Store; the
// floor only matters when everything is cache-resident.
func (m *Model) ReduceFloor(p *sim.Proc, n int64) {
	m.advance(p, &subCharge{op: opFloor}, m.floor(n))
}

// stepOp says what one sub-charge does.
type stepOp uint8

const (
	opLoad stepOp = iota
	opStoreTemporal
	opStoreNonTemporal
	opFloor
)

// storeOp returns the sub-charge of a store of the given kind, rejecting an
// unknown kind before any sub-charge runs.
func storeOp(kind StoreKind) stepOp {
	switch kind {
	case Temporal:
		return opStoreTemporal
	case NonTemporal:
		return opStoreNonTemporal
	}
	panic(fmt.Sprintf("memmodel: unknown store kind %d", kind))
}

// subCharge is one sub-charge of a charge: op over the current op's
// element count at offset off of b (b is nil for the floor).
type subCharge struct {
	op  stepOp
	b   *Buffer
	off int64
}

// Sync is a flag of a sequence and the core that owns it, whose distance
// from the waiting rank's core is a wait's latency (SyncLatency).
type Sync struct {
	Flag  *sim.Flag
	Owner int
}

// Part is Count items of a sequence, laid out arithmetically so that a
// sequence of many items stores none of them. Item i (0 <= i < Count)
// works at index k = (Rot+i) mod Mod, or k = i when Mod is 0, and:
//
//   - waits, when Wait.Flag is not nil, for the flag to reach WaitVal+i,
//     counting a sync and paying the latency between the rank's core and
//     the flag's owner, as a flag wait on the rank's stack does;
//   - charges the ops of Op moved to k: Dst at DOff+k*DStride, A (As[k]
//     when As is not nil) at AOff+k*AStride and B at BOff+k*BStride, over
//     Op.N elements cut so that Dst's range ends by DEnd and A's by AEnd
//     (an end of 0 cuts nothing), in ops of at most Slice elements (all of
//     them when Slice is 0). An op as long as a full one (Slice, or Op.N
//     when Slice is 0 or larger) stores with Kind, a shorter one — a cut
//     item or a run's last slice — with TailKind. An item cut to nothing
//     charges no op. With CopyFirst, item 0's ops are CopyOps of its Dst
//     and A instead, storing with FirstKind and FirstTailKind (the MA
//     chain's copy-in before its accumulates);
//   - sets, when Set.Flag is not nil, the flag to SetVal+i after every
//     item, or, when SetLast, to SetVal after the last item only.
type Part struct {
	Count, Rot, Mod int

	Wait    Sync
	WaitVal uint64

	Op                        Op
	As                        []*Buffer
	DStride, AStride, BStride int64
	DEnd, AEnd                int64
	Slice                     int64
	Kind, TailKind            StoreKind
	FirstKind, FirstTailKind  StoreKind

	Set       Sync
	SetVal    uint64
	SetLast   bool
	CopyFirst bool
}

// item returns item i's op, cut.
func (pt *Part) item(i int) (op Op) {
	k := int64(i)
	if pt.Mod > 0 {
		k = int64((pt.Rot + i) % pt.Mod)
	}
	op = pt.Op
	op.DOff += k * pt.DStride
	op.AOff += k * pt.AStride
	op.BOff += k * pt.BStride
	if pt.As != nil {
		op.A = pt.As[k]
	}
	if pt.DEnd > 0 {
		op.N = min(op.N, pt.DEnd-op.DOff)
	}
	if pt.AEnd > 0 {
		op.N = min(op.N, pt.AEnd-op.AOff)
	}
	return op
}

// full returns the length of the part's full ops.
func (pt *Part) full() int64 {
	if pt.Slice > 0 {
		return min(pt.Slice, pt.Op.N)
	}
	return pt.Op.N
}

// sets reports whether item i sets a flag.
func (pt *Part) sets(i int) bool {
	return pt.Set.Flag != nil && (!pt.SetLast || i == pt.Count-1)
}

// steps reports whether item i has any step: a wait, an op or a set.
func (pt *Part) steps(i int) bool {
	op := pt.item(i)
	return pt.Wait.Flag != nil || op.N > 0 || pt.sets(i)
}

// Seq is a proc's charge slot: a sequence of items (see Part) charged as
// one sim.Charge, with the acting core, its socket and its cursor bank
// resolved once when the sequence begins. Fuse and Run are its one-item
// cases. Within an item the ops are its run: each slice of the item's op
// is the op shifted to the slice and cut to its length, then an
// AccumulateOp of each fold source (Run's further sources) into the
// slice's destination.
type Seq struct {
	// The fields every sub-charge reads come first.
	m            *Model
	socket, slot int
	steps        [4]subCharge
	nsteps, next int
	lastOp       bool // the current op ends the sequence
	op           Op   // the current op

	p     *sim.Proc
	core  int
	work  Work
	parts []Part
	folds []*Buffer // sources accumulated into each slice after its first op

	pi, i int // the current part and item
	phase uint8

	// The current item's run: n elements in slices of at most slice, ops
	// of them not yet started; ops shorter than full store with tailStore.
	tmpl      Op
	store     stepOp
	tailStore stepOp
	full      int64
	n, slice  int64
	at        int64 // offset of the current op's slice in the run
	fold      int   // ops of the current slice started so far
	ops       int
	final     bool // the item is the sequence's last
	finalOps  bool // the item's last op ends the sequence

	flag sim.FlagOp // the wait or set step Next last returned
}

// What an op boundary of a sequence moves to next.
const (
	atWait uint8 = iota // the current item's wait
	atOps               // the next op of its run
	atSet               // its set
)

func (s *Seq) add(op stepOp, b *Buffer, off int64) {
	s.steps[s.nsteps] = subCharge{op: op, b: b, off: off}
	s.nsteps++
}

// Next runs the sequence's next step (sim.Charge): at an op boundary it
// first moves to the run's next op, or returns the item's set or the next
// item's wait.
func (s *Seq) Next(*sim.Proc) (float64, bool, *sim.FlagOp) {
	if s.next == s.nsteps {
		if s.ops > 0 { // the run goes on (ops remain only while it runs)
			s.startOp()
		} else if dt, last, f := s.boundary(); f != nil {
			return dt, last, f
		}
	}
	sc := &s.steps[s.next]
	s.next++
	return s.m.step(s.socket, s.slot, sc, s.op.N), s.next == s.nsteps && s.lastOp, nil
}

// boundary moves the sequence past the end of the current op. It returns
// a wait (with its latency) or a set for the engine to perform, or a nil
// flag op once the next op has been laid out.
func (s *Seq) boundary() (dt float64, last bool, f *sim.FlagOp) {
	for {
		pt := &s.parts[s.pi]
		switch s.phase {
		case atWait:
			s.beginItem(pt)
			if pt.Wait.Flag != nil {
				s.flag = sim.FlagOp{Flag: pt.Wait.Flag, Val: pt.WaitVal + uint64(s.i)}
				return s.m.CountWait(s.core, pt.Wait.Owner), s.finalOps && s.ops == 0, &s.flag
			}
		case atOps:
			if s.ops > 0 {
				s.startOp()
				return 0, false, nil
			}
			s.phase = atSet
		case atSet:
			i, final := s.i, s.final
			s.phase = atWait
			if s.i++; s.i == pt.Count {
				s.pi, s.i = s.pi+1, 0
			}
			if pt.sets(i) {
				s.flag = sim.FlagOp{Set: true, Flag: pt.Set.Flag, Val: pt.SetVal}
				if !pt.SetLast {
					s.flag.Val += uint64(i)
				}
				return 0, final, &s.flag
			}
		}
	}
}

// beginItem lays out the current item's run.
func (s *Seq) beginItem(pt *Part) {
	op := pt.item(s.i)
	s.store, s.tailStore = storeOp(pt.Kind), storeOp(pt.TailKind)
	if pt.CopyFirst && s.i == 0 {
		op.Kind = CopyOp
		s.store, s.tailStore = storeOp(pt.FirstKind), storeOp(pt.FirstTailKind)
	}
	s.tmpl, s.full = op, pt.full()
	s.n, s.slice = max(op.N, 0), pt.Slice
	if s.slice <= 0 {
		s.slice = s.n
	}
	s.at, s.fold, s.ops = 0, 0, 0
	if s.n > 0 {
		s.ops = int((s.n+s.slice-1)/s.slice) * (1 + len(s.folds))
	}
	s.final = s.pi == len(s.parts)-1 && s.i == pt.Count-1
	s.finalOps = s.final && !pt.sets(s.i)
	s.phase = atOps
}

// startOp makes the run's next op current: it lays out the op's
// sub-charges and hands the op to the work hook.
func (s *Seq) startOp() {
	s.ops--
	if s.fold > len(s.folds) {
		s.at += s.op.N
		s.fold = 0
	}
	if s.fold == 0 {
		s.op = s.tmpl
		s.op.N = min(s.slice, s.n-s.at)
		s.op.DOff += s.at
		s.op.AOff += s.at
		s.op.BOff += s.at
	} else {
		s.op.Kind, s.op.A, s.op.AOff = AccumulateOp, s.folds[s.fold-1], s.tmpl.AOff+s.at
	}
	s.fold++
	s.lastOp = s.ops == 0 && s.finalOps
	op := &s.op
	s.nsteps, s.next = 0, 0
	switch op.Kind {
	case CopyOp:
		s.add(opLoad, op.A, op.AOff)
	case AccumulateOp:
		s.add(opLoad, op.Dst, op.DOff)
		s.add(opLoad, op.A, op.AOff)
	case CombineOp:
		s.add(opLoad, op.A, op.AOff)
		s.add(opLoad, op.B, op.BOff)
	}
	if op.N < s.full {
		s.add(s.tailStore, op.Dst, op.DOff)
	} else {
		s.add(s.store, op.Dst, op.DOff)
	}
	if op.Kind != CopyOp {
		s.add(opFloor, nil, 0)
	}
	if s.work != nil {
		s.work.Do(op)
	}
}

// Seq returns p's charge slot, emptied for a sequence by the rank on core
// with the given work hook: Add its parts, then Charge it. A proc runs at
// most one charge at a time — it is either building one on its own stack
// or parked or blocked inside one — so a slot per proc ID is never reused
// while the engine may still run its steps.
func (m *Model) Seq(p *sim.Proc, core int, w Work) *Seq {
	id := p.ID()
	if id >= len(m.charges) {
		m.growCharges(id + 1)
	}
	s := &m.charges[id]
	s.p, s.core, s.work = p, core, w
	s.socket, s.slot = m.coreSocket[core], m.coreSlot[core]
	s.parts, s.folds = s.parts[:0], s.folds[:0]
	s.pi, s.i, s.phase, s.ops, s.nsteps, s.next = 0, 0, atWait, 0, 0, 0
	return s
}

// Add appends pt to the sequence, checking its op kind, store kinds and
// every item's ranges before any step of the sequence runs. A part of no
// items adds nothing.
func (s *Seq) Add(pt Part) {
	if pt.Count <= 0 {
		return
	}
	if pt.Op.Kind > CombineOp {
		panic(fmt.Sprintf("memmodel: unknown op kind %d", pt.Op.Kind))
	}
	storeOp(pt.Kind)
	storeOp(pt.TailKind)
	storeOp(pt.FirstKind)
	storeOp(pt.FirstTailKind)
	if pt.Mod < 0 || pt.Rot < 0 {
		panic(fmt.Sprintf("memmodel: part at rotation %d mod %d", pt.Rot, pt.Mod))
	}
	for i := 0; i < pt.Count; i++ {
		op := pt.item(i)
		if op.N <= 0 {
			continue
		}
		op.Dst.CheckRange(op.DOff, op.N)
		op.A.CheckRange(op.AOff, op.N)
		if op.Kind == CombineOp {
			op.B.CheckRange(op.BOff, op.N)
		}
		for _, f := range s.folds {
			f.CheckRange(op.AOff, op.N)
		}
	}
	s.parts = append(s.parts, pt)
}

// Charge charges the sequence to its proc as one sim.Charge. Items at its
// end with no step are dropped first, so that the last step the engine
// sees is the sequence's last; an empty sequence charges nothing. With a
// tracer attached, every step instead goes through Advance, Wait or Set on
// the proc's own stack, so spans keep the order in which ranks'
// sub-charges complete.
func (s *Seq) Charge() {
	for len(s.parts) > 0 {
		pt := &s.parts[len(s.parts)-1]
		for pt.Count > 0 && !pt.steps(pt.Count-1) {
			pt.Count--
		}
		if pt.Count > 0 {
			break
		}
		s.parts = s.parts[:len(s.parts)-1]
	}
	if len(s.parts) == 0 {
		return
	}
	p, m := s.p, s.m
	if m.tracer == nil {
		p.Charge(s)
		return
	}
	for {
		dt, last, f := s.Next(p)
		switch {
		case f == nil:
			m.advance(p, &s.steps[s.next-1], dt)
		case f.Set:
			p.Set(f.Flag, f.Val)
		default:
			p.Wait(f.Flag, f.Val, dt)
		}
		if last {
			return
		}
	}
}

// growCharges makes room for at least n charge slots. The first charge
// allocates a slot per bound rank (internal/mpi spawns rank i as proc i),
// so a model that is never charged allocates none; later growth serves
// engines that drive the model with more procs. A parked proc's charge
// stays in the old array, where it completes; its copy is overwritten at
// the proc's next op.
func (m *Model) growCharges(n int) {
	ranks := 0
	for _, r := range m.ranksPerSocket {
		ranks += r
	}
	grown := make([]Seq, max(n, ranks, 2*len(m.charges)))
	copy(grown, m.charges)
	// The new slots share one array with room for one part each: Fuse, Run
	// and most sequences are one part. A longer sequence grows its slot's
	// array at the slot's first such sequence, and the slot keeps it.
	parts := make([]Part, len(grown)-len(m.charges))
	for i := len(m.charges); i < len(grown); i++ {
		j := i - len(m.charges)
		grown[i].m, grown[i].parts = m, parts[j:j:j+1]
	}
	m.charges = grown
}

// advance charges the duration dt of sub-charge s, already performed,
// through p.Advance on p's own stack: single ops, which have no
// continuation to save, and every sub-charge of a traced model, whose
// load and store spans are recorded here when p resumes.
func (m *Model) advance(p *sim.Proc, s *subCharge, dt float64) {
	from := p.Now()
	p.Advance(dt)
	if m.tracer == nil {
		return
	}
	switch s.op {
	case opLoad:
		m.tracer.Span(p, "load "+s.b.Name, from, p.Now())
	case opStoreTemporal:
		m.tracer.Span(p, Temporal.String()+" store "+s.b.Name, from, p.Now())
	case opStoreNonTemporal:
		m.tracer.Span(p, NonTemporal.String()+" store "+s.b.Name, from, p.Now())
	}
}

// step performs one sub-charge: it updates residency and counters and
// returns the sub-charge's duration.
func (m *Model) step(socket, slot int, s *subCharge, n int64) float64 {
	switch s.op {
	case opLoad:
		return m.load(socket, slot, s.b, s.off, n)
	case opFloor:
		return m.floor(n)
	}
	return m.store(socket, slot, s.b, s.off, n, s.op)
}

// floor is the arithmetic-floor sub-charge.
func (m *Model) floor(n int64) float64 {
	return float64(n*ElemSize) / m.Node.ReducePerCoreBandwidth
}

// load is the load sub-charge. The cursor bank is selected per sub-charge,
// not once per op: other ranks' sub-charges may run between two of this
// op's and select their own banks in the same tracker.
func (m *Model) load(socket, slot int, b *Buffer, off, n int64) float64 {
	lo, hi := off*ElemSize, (off+n)*ElemSize
	bytes := hi - lo
	m.counters.LoadBytes += bytes
	if b.Pinned {
		return m.pinnedTime(socket, b, bytes)
	}
	c := m.caches[socket]
	c.curSlot = slot
	// One tracker call answers "how much is cached" (timing) and re-inserts
	// the full range, which also refreshes recency of the previously cached
	// portion and keeps the dirty bit of data a previous store left there.
	cached, _, wb := c.access(b.ID, lo, hi, false, true)
	missed := bytes - cached
	t := m.cacheTime(socket, cached) + m.dramTime(socket, b, missed)
	if wb > 0 {
		t += float64(wb) / m.dramBWPerRank[socket]
		m.counters.DRAMTraffic += wb
		m.counters.WritebackBytes += wb
	}
	return t
}

// store is the store sub-charge (op is opStoreTemporal or
// opStoreNonTemporal; see load on bank selection).
func (m *Model) store(socket, slot int, b *Buffer, off, n int64, op stepOp) float64 {
	lo, hi := off*ElemSize, (off+n)*ElemSize
	bytes := hi - lo
	m.counters.StoreBytes += bytes
	if b.Pinned {
		return m.pinnedTime(socket, b, bytes)
	}
	c := m.caches[socket]
	c.curSlot = slot
	if op == opStoreNonTemporal {
		c.invalidate(b.ID, lo, hi)
		m.counters.NTStoreBytes += bytes
		return m.dramTime(socket, b, bytes)
	}
	// The tracker call replaces any overlapped regions and marks the range
	// dirty.
	cached, _, wb := c.access(b.ID, lo, hi, true, false)
	missed := bytes - cached
	// Hit portion: store at cache speed.
	t := m.cacheTime(socket, cached)
	// Miss portion: RFO fill from DRAM, then the store itself hits the
	// newly allocated lines at cache speed.
	if missed > 0 {
		t += m.dramTime(socket, b, missed)
		m.counters.RFOBytes += missed
		t += m.cacheTime(socket, missed)
	}
	if wb > 0 {
		t += float64(wb) / m.dramBWPerRank[socket]
		m.counters.DRAMTraffic += wb
		m.counters.WritebackBytes += wb
	}
	return t
}

// Warm marks [off, off+n) elements of b resident (and dirty, as if the
// application just updated it) in the cache of the socket owning `core`,
// without charging time. Benchmarks use it to model the OSU harness
// updating send/recv buffers between iterations.
func (m *Model) Warm(core int, b *Buffer, off, n int64) {
	b.CheckRange(off, n)
	c := m.caches[m.coreSocket[core]]
	c.curSlot = m.coreSlot[core]
	wb := c.insert(b.ID, off*ElemSize, (off+n)*ElemSize, true)
	_ = wb // warm-up write-backs are not charged
}

// RanksOnSocket returns how many ranks the binding placed on a socket.
func (m *Model) RanksOnSocket(s int) int { return m.ranksPerSocket[s] }

// ExternalOnSocket returns how many co-tenant ranks share socket s (zero
// for a solo-job model).
func (m *Model) ExternalOnSocket(s int) int { return m.external[s] }

// DRAMBandwidthPerRank exposes the per-rank DRAM share (for tests and the
// analytic harness).
func (m *Model) DRAMBandwidthPerRank(s int) float64 { return m.dramBWPerRank[s] }

// CacheBandwidthPerRank exposes the per-rank cache share.
func (m *Model) CacheBandwidthPerRank(s int) float64 { return m.cacheBWPerRank[s] }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
