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

	// charges[i] is the charge slot of the proc with ID i (see begin and
	// growCharges).
	charges []charge
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
// sub-charge. The kind and every range are checked here, on p's stack,
// before any sub-charge runs.
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
// the ops of a Run, and for the data work w does at each op's first
// sub-charge: it runs at the point of the schedule where the rank would
// have run it before issuing the op alone.
func (m *Model) Fuse(p *sim.Proc, core int, op Op, kind StoreKind, w Work) {
	if op.Kind > CombineOp {
		panic(fmt.Sprintf("memmodel: unknown op kind %d", op.Kind))
	}
	op.Dst.CheckRange(op.DOff, op.N)
	op.A.CheckRange(op.AOff, op.N)
	if op.Kind == CombineOp {
		op.B.CheckRange(op.BOff, op.N)
	}
	c := m.begin(p, core, kind, w)
	c.tmpl, c.n, c.slice = op, op.N, op.N
	m.drive(p, c)
}

// Run charges a run of fused ops to p, the rank on core, as one
// sim.Charge: srcs (all at element offset sOff) folded into dst at dOff,
// over n elements, in slices of at most slice elements. Each slice is a
// CopyOp of srcs[0] when there is one source, and otherwise a CombineOp of
// srcs[0] and srcs[1] followed by an AccumulateOp of each further source.
// w.Do (when w is not nil) runs at each op's first sub-charge, as in Fuse,
// whose determinism argument covers every op of the run. Every range is
// checked here, before any sub-charge runs.
func (m *Model) Run(p *sim.Proc, core int, dst *Buffer, dOff int64, srcs []*Buffer, sOff, n, slice int64, kind StoreKind, w Work) {
	if len(srcs) == 0 || slice <= 0 {
		panic(fmt.Sprintf("memmodel: run into %q of %d sources in slices of %d", dst.Name, len(srcs), slice))
	}
	dst.CheckRange(dOff, n)
	for _, src := range srcs {
		src.CheckRange(sOff, n)
	}
	c := m.begin(p, core, kind, w)
	c.tmpl = Op{Kind: CopyOp, Dst: dst, DOff: dOff, A: srcs[0], AOff: sOff}
	if len(srcs) > 1 {
		c.tmpl.Kind, c.tmpl.B, c.tmpl.BOff = CombineOp, srcs[1], sOff
		c.folds = append(c.folds, srcs[2:]...)
	}
	c.n, c.slice = n, slice
	m.drive(p, c)
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

// charge is a run of fused ops as one sim.Charge, with the acting core's
// socket and cursor bank resolved once when the run begins. The run is n
// elements in slices of at most slice: each slice is the template op
// shifted to the slice and cut to its length, then an AccumulateOp of each
// fold source into the slice's destination. A single op is a run of one
// slice with no fold sources.
type charge struct {
	m            *Model
	socket, slot int
	store        stepOp
	work         Work

	tmpl     Op        // the first op of every slice, at offset 0 of the run
	folds    []*Buffer // sources accumulated into each slice after tmpl
	n, slice int64
	at       int64 // offset of the current op's slice in the run
	fold     int   // ops of the current slice started so far

	op           Op // the current op
	steps        [4]subCharge
	nsteps, next int
}

func (c *charge) add(op stepOp, b *Buffer, off int64) {
	c.steps[c.nsteps] = subCharge{op: op, b: b, off: off}
	c.nsteps++
}

// Next runs the next sub-charge (sim.Charge), first starting the run's
// next op when the current one has run its last.
func (c *charge) Next(*sim.Proc) (float64, bool) {
	if c.next == c.nsteps {
		c.startOp()
	}
	s := &c.steps[c.next]
	c.next++
	dt := c.m.step(c.socket, c.slot, s, c.op.N)
	return dt, c.next == c.nsteps && c.fold > len(c.folds) && c.at+c.op.N == c.n
}

// startOp makes the run's next op current: it lays out the op's
// sub-charges and hands the op to the work hook.
func (c *charge) startOp() {
	if c.fold > len(c.folds) {
		c.at += c.op.N
		c.fold = 0
	}
	if c.fold == 0 {
		c.op = c.tmpl
		c.op.N = min(c.slice, c.n-c.at)
		c.op.DOff += c.at
		c.op.AOff += c.at
		c.op.BOff += c.at
	} else {
		c.op.Kind, c.op.A, c.op.AOff = AccumulateOp, c.folds[c.fold-1], c.tmpl.AOff+c.at
	}
	c.fold++
	op := &c.op
	c.nsteps, c.next = 0, 0
	switch op.Kind {
	case CopyOp:
		c.add(opLoad, op.A, op.AOff)
	case AccumulateOp:
		c.add(opLoad, op.Dst, op.DOff)
		c.add(opLoad, op.A, op.AOff)
	case CombineOp:
		c.add(opLoad, op.A, op.AOff)
		c.add(opLoad, op.B, op.BOff)
	}
	c.add(c.store, op.Dst, op.DOff)
	if op.Kind != CopyOp {
		c.add(opFloor, nil, 0)
	}
	if c.work != nil {
		c.work.Do(op)
	}
}

// begin returns p's charge slot, reset for a run by the rank on core with
// the given store kind and work hook. A proc runs at most one charge at a
// time — it is either starting one on its own stack or parked inside one —
// so a slot per proc ID is never reused while the engine may still run its
// sub-charges.
func (m *Model) begin(p *sim.Proc, core int, kind StoreKind, w Work) *charge {
	store := storeOp(kind)
	id := p.ID()
	if id >= len(m.charges) {
		m.growCharges(id + 1)
	}
	c := &m.charges[id]
	c.socket, c.slot = m.coreSocket[core], m.coreSlot[core]
	c.store, c.work = store, w
	c.folds = c.folds[:0]
	c.at, c.fold, c.nsteps, c.next = 0, 0, 0, 0
	return c
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
	grown := make([]charge, max(n, ranks, 2*len(m.charges)))
	for i := range grown {
		grown[i].m = m
	}
	copy(grown, m.charges)
	m.charges = grown
}

// drive charges c to p as one sim.Charge. With a tracer attached, every
// sub-charge instead goes through advance on p's own stack, so spans keep
// the order in which ranks' sub-charges complete.
func (m *Model) drive(p *sim.Proc, c *charge) {
	if m.tracer == nil {
		p.Charge(c)
		return
	}
	for {
		dt, last := c.Next(p)
		m.advance(p, &c.steps[c.next-1], dt)
		if last {
			return
		}
	}
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
