package cluster

import (
	"fmt"
	"math/bits"

	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// Event-schedule compilation of the cluster collectives.
//
// The analytic all-reduce (cluster.go) simulates one
// representative node on the coroutine engine and closes over the fabric
// with a formula. This file instead compiles each hierarchical collective —
// the intra-node MA chain / socket-aware / RG tree step schedules composed
// with inter-node ring and binomial-tree phases — into a sim.Program: every
// one of the Nodes x PerNode ranks becomes a compact state machine whose
// steps carry precomputed integer-tick durations and O(1) dependencies
// computed procedurally from (rank, step). One Step call resolves the
// step's node, local rank and phase once, from per-local phase-length
// tables filled at compile time, then reads the duration and the (at most
// one) dependency of a template step, or computes them for an inter-node
// step. Nothing proportional to ranks x steps is materialized (the
// intra-node templates are shared by all nodes), so 262144+ rank worlds run
// on the event engine in flat memory, while the identical program replayed
// on the coroutine engine is the tick-exact parity reference.

// IntraKind selects the intra-node step schedule a hierarchical program
// composes from.
type IntraKind string

const (
	// IntraAuto picks IntraSocket when the binding splits evenly across
	// sockets (hierarchical algorithms) and IntraMA otherwise.
	IntraAuto IntraKind = ""
	// IntraMA is the movement-avoiding chain (paper Fig. 5): a wavefront of
	// p reduction chains, one block per rank.
	IntraMA IntraKind = "ma"
	// IntraSocket is the socket-aware composition: MA reduce-scatter per
	// socket, a cross-socket combine chain, then a socket-local all-gather.
	IntraSocket IntraKind = "socket"
	// IntraRG is the RG pipelined tree (leader-based reduce to local rank
	// 0), used by the leader compositions.
	IntraRG IntraKind = "rg"
)

// ScheduleOptions tune program compilation.
type ScheduleOptions struct {
	// Intra selects the intra-node schedule (IntraAuto by default).
	Intra IntraKind
	// RingSteps, when positive, coarsens inter-node ring phases to at most
	// this many macro-steps per rank: consecutive hops are folded into one
	// step whose duration is the sum of the folded hops, and the
	// neighbour-dependency wavefront is kept at macro granularity. Both
	// engines execute the coarsened program, so parity is unaffected; at
	// 262144+ ranks this bounds the event count of ring phases.
	RingSteps int
}

// progCosts converts the topology and fabric description into the
// integer-tick step costs the compiled programs carry. The terms mirror the
// analytic model: copies move 2 bytes of traffic per payload byte, reductions
// 3 (two reads, one write), cross-socket accesses are scaled by the xGMI/UPI
// factor, and every step pays the one-way flag-propagation sync latency.
// Per-core bandwidth is two-regime, following the paper's central cache
// argument: when the working set fits in the available cache the per-core
// cache-hierarchy (or SIMD reduce) bandwidth applies; when it spills, each
// core is throttled to its share of the socket's DRAM bandwidth. Inter-node
// hops pay the rendezvous latency plus the lane's share of the effective
// (saturation-curve) link bandwidth.
type progCosts struct {
	node     *topo.Node
	net      Network
	copyBW   float64
	reduceBW float64
}

func newProgCosts(node *topo.Node, net Network, p int, msgBytes float64) progCosts {
	active := p
	if active > node.CoresPerSocket {
		active = node.CoresPerSocket
	}
	dramShare := node.DRAMBandwidthPerSocket / float64(active)
	if dramShare > node.DRAMBandwidthPerCore {
		dramShare = node.DRAMBandwidthPerCore
	}
	c := progCosts{
		node: node, net: net,
		copyBW:   node.CacheBandwidthPerCore,
		reduceBW: node.ReducePerCoreBandwidth,
	}
	// Working set: every rank's send buffer plus the shared result.
	if ws := (float64(p) + 1) * msgBytes; ws > float64(node.AvailableCache(p)) {
		if dramShare < c.copyBW {
			c.copyBW = dramShare
		}
		if dramShare < c.reduceBW {
			c.reduceBW = dramShare
		}
	}
	return c
}

func (c progCosts) copyT(bytes float64, cross bool) sim.Tick {
	bw, sync := c.copyBW, c.node.SyncLatencyIntra
	if cross {
		bw *= c.node.CrossSocketFactor
		sync = c.node.SyncLatencyInter
	}
	return sim.ToTicks(sync + 2*bytes/bw)
}

func (c progCosts) reduceT(bytes float64, cross bool) sim.Tick {
	bw, sync := c.reduceBW, c.node.SyncLatencyIntra
	if cross {
		bw *= c.node.CrossSocketFactor
		sync = c.node.SyncLatencyInter
	}
	return sim.ToTicks(sync + 3*bytes/bw)
}

// laneT is one inter-node hop carrying `bytes` on one of `lanes` concurrent
// per-node streams: EffectiveBandwidth(lanes) is the whole link's yield, so
// a single lane gets a 1/lanes share of it.
func (c progCosts) laneT(bytes float64, lanes int) sim.Tick {
	return sim.ToTicks(c.net.Latency + bytes*float64(lanes)/c.net.EffectiveBandwidth(lanes))
}

// tmplDep is the dependency of one intra-node template step: the target
// local rank and its phase-relative step. Step -1 means "that rank's last
// step of the previous phase" and resolves per-node at query time.
type tmplDep struct {
	local int32
	step  int32
}

// noDep marks a template step without a dependency.
var noDep = tmplDep{local: -1}

// tmplStep is one templated step: a duration and its dependency, stored
// inline (every intra template step has at most one; noDep when none).
type tmplStep struct {
	dur sim.Tick
	dep tmplDep
}

// intraTemplate is one intra-node phase: per local rank, an ordered step
// list, every local's in one slice (local l's are steps[off[l]:off[l+1]]).
// Nodes are homogeneous, so a single template serves every node; the
// per-rank runtime state stays O(1).
type intraTemplate struct {
	steps []tmplStep
	off   []int32
}

// newTemplate starts a template for p locals with room for n steps; each
// local's steps are added in local order, each local closed by endLocal.
func newTemplate(p, n int) *intraTemplate {
	return &intraTemplate{steps: make([]tmplStep, 0, n), off: make([]int32, 1, p+1)}
}

// add appends a step to the current local.
func (t *intraTemplate) add(dur sim.Tick, dep tmplDep) {
	t.steps = append(t.steps, tmplStep{dur: dur, dep: dep})
}

// endLocal closes the current local's step list.
func (t *intraTemplate) endLocal() { t.off = append(t.off, int32(len(t.steps))) }

// step returns local l's step i.
func (t *intraTemplate) step(l, i int) *tmplStep { return &t.steps[int(t.off[l])+i] }

// lens returns the per-local step counts of a template over p locals (all
// zero for a nil template).
func (t *intraTemplate) lens(p int) []int32 {
	n := make([]int32, p)
	if t != nil {
		for l := range n {
			n[l] = t.off[l+1] - t.off[l]
		}
	}
	return n
}

// stepCosts are the durations of a template's steps that move the same
// bytes, each computed once (ToTicks and its rounding used to be most of
// a compile): a copy and a reduction, within a socket and across sockets.
type stepCosts struct {
	c            progCosts
	bytes        float64
	copy, reduce [2]sim.Tick
	done         [4]bool
}

func newStepCosts(c progCosts, bytes float64) stepCosts {
	return stepCosts{c: c, bytes: bytes}
}

func crossIndex(cross bool) int {
	if cross {
		return 1
	}
	return 0
}

// copyT is progCosts.copyT of the template's bytes.
func (s *stepCosts) copyT(cross bool) sim.Tick {
	i := crossIndex(cross)
	if !s.done[i] {
		s.copy[i], s.done[i] = s.c.copyT(s.bytes, cross), true
	}
	return s.copy[i]
}

// reduceT is progCosts.reduceT of the template's bytes.
func (s *stepCosts) reduceT(cross bool) sim.Tick {
	i := crossIndex(cross)
	if !s.done[2+i] {
		s.reduce[i], s.done[2+i] = s.c.reduceT(s.bytes, cross), true
	}
	return s.reduce[i]
}

// localSockets groups locals 0..p-1 by the socket their block-bound core
// sits on and reports (ranks per socket, socket count) if the partition is
// even with at least two sockets, else ok=false.
func localSockets(node *topo.Node, p int) (perSocket, sockets int, ok bool) {
	counts := make(map[int]int)
	for l := 0; l < p; l++ {
		counts[node.SocketOf(l)]++
	}
	if len(counts) < 2 {
		return 0, 0, false
	}
	per := -1
	for _, n := range counts {
		if per == -1 {
			per = n
		} else if n != per {
			return 0, 0, false
		}
	}
	return per, len(counts), true
}

func crossSocket(node *topo.Node, a, b int) bool {
	return node.SocketOf(a) != node.SocketOf(b)
}

// maReduceScatter builds the MA wavefront reduce-scatter over p locals:
// step 0 is the copy-in feeding the chain whose last executor is the next
// rank; steps 1..p-1 are the descending-executor chain reductions, each
// depending on the next rank's previous step. Rank l's final step produces
// the fully reduced block l.
func maReduceScatter(node *topo.Node, p int, blockBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	t, sc := newTemplate(p, p*p), newStepCosts(c, blockBytes)
	for l := 0; l < p; l++ {
		next := (l + 1) % p
		cross := crossSocket(node, l, next)
		t.add(sc.copyT(false), noDep)
		for j := 1; j < p; j++ {
			t.add(sc.reduceT(cross), tmplDep{local: int32(next), step: int32(j - 1)})
		}
		t.endLocal()
	}
	return t
}

// maAllgather builds the block all-gather: p-1 copy-out steps per local,
// step k copying block (l+k+1) mod p once its owner's previous phase ended.
func maAllgather(node *topo.Node, p int, blockBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	t, sc := newTemplate(p, p*(p-1)), newStepCosts(c, blockBytes)
	for l := 0; l < p; l++ {
		for k := 0; k < p-1; k++ {
			src := (l + k + 1) % p
			t.add(sc.copyT(crossSocket(node, l, src)), tmplDep{local: int32(src), step: -1})
		}
		t.endLocal()
	}
	return t
}

// socketReduceScatter builds the socket-aware reduce-scatter: an MA
// wavefront inside each socket (blocks of msg/perSocket), then a chain of
// cross-socket combines so every rank's block is reduced over all p locals.
func socketReduceScatter(node *topo.Node, p, perSocket, sockets int, blockBytes float64, c progCosts) *intraTemplate {
	t, sc := newTemplate(p, p*(perSocket+sockets-1)), newStepCosts(c, blockBytes)
	for l := 0; l < p; l++ {
		sock, ls := l/perSocket, l%perSocket
		next := sock*perSocket + (ls+1)%perSocket
		if perSocket > 1 {
			t.add(sc.copyT(false), noDep)
			for j := 1; j < perSocket; j++ {
				t.add(sc.reduceT(false), tmplDep{local: int32(next), step: int32(j - 1)})
			}
		}
		for k := 1; k < sockets; k++ {
			peer := ((sock+k)%sockets)*perSocket + ls
			peerLast := int32(perSocket - 1) // peer's MA-final step index
			if perSocket == 1 {
				peerLast = -1 // peer has no MA phase; its data is phase input
			}
			t.add(sc.reduceT(true), tmplDep{local: int32(peer), step: peerLast})
		}
		t.endLocal()
	}
	return t
}

// socketAllgather gathers the socket's blocks locally (after the
// cross-socket combine, one socket's blocks tile the full message).
func socketAllgather(node *topo.Node, p, perSocket int, blockBytes float64, c progCosts) *intraTemplate {
	if perSocket <= 1 {
		return nil
	}
	t, sc := newTemplate(p, p*(perSocket-1)), newStepCosts(c, blockBytes)
	for l := 0; l < p; l++ {
		sock, ls := l/perSocket, l%perSocket
		for k := 0; k < perSocket-1; k++ {
			src := sock*perSocket + (ls+k+1)%perSocket
			t.add(sc.copyT(false), tmplDep{local: int32(src), step: -1})
		}
		t.endLocal()
	}
	return t
}

// rgGroups reproduces coll's RG grouping (consecutive groups of degree+1,
// parents regroup until one root remains) and returns each local's children
// in level-flattened reduction order.
func rgGroups(p, degree int) (children [][]int) {
	children = make([][]int, p)
	current := make([]int, p)
	for i := range current {
		current[i] = i
	}
	for len(current) > 1 {
		var next []int
		for g := 0; g < len(current); g += degree + 1 {
			hi := g + degree + 1
			if hi > len(current) {
				hi = len(current)
			}
			par := current[g]
			children[par] = append(children[par], current[g+1:hi]...)
			next = append(next, par)
		}
		current = next
	}
	return children
}

// rgReduce builds the RG tree reduce of the full message to local rank 0:
// pure children publish their buffer (one copy step); parents fold each
// child's slot in level order, depending on the child's last step.
func rgReduce(node *topo.Node, p, degree int, msgBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	children := rgGroups(p, degree)
	t, sc := newTemplate(p, 2*p), newStepCosts(c, msgBytes)
	for l := 0; l < p; l++ {
		if len(children[l]) == 0 {
			t.add(sc.copyT(false), noDep)
		}
		for _, kid := range children[l] {
			kidLast := len(children[kid]) // leaf: 1 step -> last index 0; parent: len(kids)-1
			if kidLast == 0 {
				kidLast = 1
			}
			t.add(sc.reduceT(crossSocket(node, l, kid)), tmplDep{local: int32(kid), step: int32(kidLast - 1)})
		}
		t.endLocal()
	}
	return t
}

// binomialBcast builds the intra-node binomial broadcast from local 0:
// every other local performs one copy-out once its binomial source holds
// the data (the source's receive step, or the previous phase's end for the
// root). Shared-memory broadcast is receiver-driven, so concurrent
// copy-outs from one source are legitimate.
func binomialBcast(node *topo.Node, p int, msgBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	t, sc := newTemplate(p, p-1), newStepCosts(c, msgBytes)
	t.endLocal() // local 0 holds the data
	for l := 1; l < p; l++ {
		src := l - 1<<(bits.Len(uint(l))-1)
		dep := tmplDep{local: int32(src), step: 0}
		if src == 0 {
			dep.step = -1
		}
		t.add(sc.copyT(crossSocket(node, l, src)), dep)
		t.endLocal()
	}
	return t
}

// binomialGather builds the leader gather for all-gather: in round k, local
// l with l mod 2^(k+1) == 0 absorbs the segment accumulated by l + 2^k
// (doubling segment sizes), finishing with local 0 holding all p blocks.
func binomialGather(node *topo.Node, p int, perRankBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	t := newTemplate(p, p)
	recvSteps := make([]int, p)
	for l := 0; l < p; l++ {
		steps := 0
		for k := 0; ; k++ {
			stride := 1 << k
			if l%(2*stride) != 0 {
				break
			}
			src := l + stride
			if src >= p {
				if stride >= p {
					break
				}
				continue
			}
			segRanks := stride
			if src+segRanks > p {
				segRanks = p - src
			}
			srcLast := int32(recvSteps[src] - 1) // its own receives precede its send
			dep := tmplDep{local: int32(src), step: srcLast}
			if recvSteps[src] == 0 {
				dep.step = -1
			}
			t.add(c.copyT(float64(segRanks)*perRankBytes, crossSocket(node, l, src)), dep)
			steps++
			recvSteps[l] = steps
		}
		t.endLocal()
	}
	return t
}

// interKind enumerates the inter-node phase shapes.
type interKind int

const (
	interNone interKind = iota
	// interRingAll: every rank runs the ring's hops (folded into macro
	// steps) over the node dimension on its own lane.
	interRingAll
	// interRingLeader: only local 0 runs the ring.
	interRingLeader
	// interTreeLeader: leaders run a binomial reduce then a binomial
	// broadcast over the node dimension.
	interTreeLeader
	// interTreeBcastLeader: leaders run only the binomial broadcast.
	interTreeBcastLeader
	// interLaneTree: a binomial broadcast over nodes carried on PerNode
	// concurrent lanes (every local receives its piece from the same local
	// on the source node).
	interLaneTree
)

// interSpec is the compiled inter-node phase. A ring's hops are spread over
// macro steps: every macro step covers hopBase hops, and the first hopRem
// cover one more, preserving the total.
type interSpec struct {
	kind      interKind
	macro     int
	hopBase   int
	hopRem    int
	hopDur    sim.Tick
	reduceDur sim.Tick
	extraDur  sim.Tick
}

// ringSpec compiles a ring phase of hops hops, each costing hopDur, folded
// into at most ringSteps macro steps (no cap when ringSteps <= 0).
func ringSpec(kind interKind, hops, ringSteps int, hopDur sim.Tick) interSpec {
	m := macroSteps(hops, ringSteps)
	return interSpec{kind: kind, macro: m, hopBase: hops / m, hopRem: hops % m, hopDur: hopDur}
}

// macroSteps caps hops at the coarsening limit.
func macroSteps(hops, cap_ int) int {
	if hops <= 0 {
		return 0
	}
	if cap_ > 0 && hops > cap_ {
		return cap_
	}
	return hops
}

// hopsIn returns how many underlying hops macro step g covers.
func (s *interSpec) hopsIn(g int) int {
	if g < s.hopRem {
		return s.hopBase + 1
	}
	return s.hopBase
}

// clusterProgram is a compiled hierarchical collective over
// nodes x perNode ranks: intra-node template phase A, inter-node phase B,
// intra-node template phase C. All step queries are O(1) arithmetic plus
// template lookups shared across nodes.
type clusterProgram struct {
	nodes, perNode int
	tmplA, tmplC   *intraTemplate
	// aLens/cLens[local] are the phase-A/C step counts per local rank,
	// filled by compiled when the program is built.
	aLens, cLens []int32
	aOnlyNode0   bool
	inter        interSpec
}

// compiled fills the per-local phase-length tables and returns the finished
// program.
func (cp *clusterProgram) compiled() *clusterProgram {
	cp.aLens = cp.tmplA.lens(cp.perNode)
	cp.cLens = cp.tmplC.lens(cp.perNode)
	return cp
}

func (cp *clusterProgram) Ranks() int { return cp.nodes * cp.perNode }

func (cp *clusterProgram) aLen(node, local int) int {
	if cp.aOnlyNode0 && node != 0 {
		return 0
	}
	return int(cp.aLens[local])
}

// recvCount returns how many binomial-reduce rounds node m receives in.
func (cp *clusterProgram) recvCount(m int) int {
	n := 0
	for stride := 1; m%(2*stride) == 0 && stride < cp.nodes; stride *= 2 {
		if m+stride < cp.nodes {
			n++
		}
	}
	return n
}

// recvRound returns the stride of node m's k-th binomial receive.
func (cp *clusterProgram) recvRound(m, k int) int {
	for stride := 1; m%(2*stride) == 0 && stride < cp.nodes; stride *= 2 {
		if m+stride < cp.nodes {
			if k == 0 {
				return stride
			}
			k--
		}
	}
	panic("cluster: recvRound out of range")
}

func (cp *clusterProgram) bLen(node, local int) int {
	switch cp.inter.kind {
	case interRingAll:
		return cp.inter.macro
	case interRingLeader:
		if local == 0 {
			return cp.inter.macro
		}
	case interTreeLeader:
		if local == 0 {
			n := cp.recvCount(node)
			if node > 0 {
				n++ // the broadcast receive
			}
			return n
		}
	case interTreeBcastLeader:
		if local == 0 && node > 0 {
			return 1
		}
	case interLaneTree:
		if node > 0 {
			return 1
		}
	}
	return 0
}

func (cp *clusterProgram) Step(rank, step int, visit func(depRank, depStep int) bool) (sim.Tick, bool) {
	node, local := rank/cp.perNode, rank%cp.perNode
	la := cp.aLen(node, local)
	if step < la {
		ts := cp.tmplA.step(local, step)
		// Phase A has no predecessor phase; step -1 deps are free.
		if ts.dep.local >= 0 && ts.dep.step >= 0 {
			visit(node*cp.perNode+int(ts.dep.local), int(ts.dep.step))
		}
		return ts.dur, true
	}
	g := step - la
	lb := cp.bLen(node, local)
	if g < lb {
		dur, _, _ := cp.interStep(node, local, g, visit)
		return dur, true
	}
	g -= lb
	if g >= int(cp.cLens[local]) {
		return 0, false
	}
	ts := cp.tmplC.step(local, g)
	if q := int(ts.dep.local); q >= 0 {
		// Phase-relative step -1 lands on q's last step before phase C.
		if ds := cp.aLen(node, q) + cp.bLen(node, q) + int(ts.dep.step); ds >= 0 {
			visit(node*cp.perNode+q, ds)
		}
	}
	return ts.dur, true
}

// interStep describes phase-B step g of (node, local): its duration, the
// part of it carried on the inter-node lane, and the node at the far end of
// that lane. A non-nil visit receives the step's dependency.
func (cp *clusterProgram) interStep(node, local, g int, visit func(depRank, depStep int) bool) (dur, lane sim.Tick, far int) {
	in := &cp.inter
	// dep visits local l's step s on node n; s < 0 is ready at time zero.
	dep := func(n, l, s int) {
		if visit != nil && s >= 0 {
			visit(n*cp.perNode+l, s)
		}
	}
	switch in.kind {
	case interRingAll, interRingLeader:
		far = node - 1
		if far < 0 {
			far = cp.nodes - 1
		}
		dep(far, local, cp.aLen(far, local)+g-1)
		lane = sim.Tick(in.hopsIn(g)) * in.hopDur
		return lane, lane, far
	case interTreeLeader:
		if g < cp.recvCount(node) {
			far = node + cp.recvRound(node, g)
			dep(far, 0, cp.aLen(far, 0)+cp.recvCount(far)-1)
			return in.hopDur + in.reduceDur, in.hopDur, far
		}
	}
	// A binomial-broadcast receive (the second half of interTreeLeader,
	// interTreeBcastLeader and interLaneTree) waits for its source's last
	// step before phase C. Tree-shaped phases pay one wire hop per step;
	// reduceDur/extraDur are node-local compute.
	far = node - 1<<(bits.Len(uint(node))-1)
	if in.kind != interLaneTree {
		local = 0
	}
	dep(far, local, cp.aLen(far, local)+cp.bLen(far, local)-1)
	return in.hopDur + in.extraDur, in.hopDur, far
}

// flatRingProgram is the node-oblivious ring over all P ranks (MPICH-style
// fallback): hop h of rank r depends on hop h-1 of rank r-1. The first
// reduceHops hops fold blocks (reduce-scatter half); the rest copy
// (all-gather half). Boundary ranks (local 0) pay the inter-node hop.
type flatRingProgram struct {
	ranks, perNode int
	hopsTotal      int
	reduceHops     int
	macro          int
	intraCopy      sim.Tick
	intraReduce    sim.Tick
	interExtra     sim.Tick
}

func (fp *flatRingProgram) Ranks() int { return fp.ranks }

func (fp *flatRingProgram) hopRange(g int) (lo, hi int) {
	base, rem := fp.hopsTotal/fp.macro, fp.hopsTotal%fp.macro
	lo = g*base + min(g, rem)
	hi = lo + base
	if g < rem {
		hi++
	}
	return lo, hi
}

func (fp *flatRingProgram) Step(rank, step int, visit func(depRank, depStep int) bool) (sim.Tick, bool) {
	if step >= fp.macro {
		return 0, false
	}
	if step > 0 { // hop 0 consumes the predecessor's initial data
		visit((rank-1+fp.ranks)%fp.ranks, step-1)
	}
	lo, hi := fp.hopRange(step)
	nRed := 0
	if lo < fp.reduceHops {
		nRed = min(hi, fp.reduceHops) - lo
	}
	nCopy := (hi - lo) - nRed
	d := sim.Tick(nRed)*fp.intraReduce + sim.Tick(nCopy)*fp.intraCopy
	if fp.interStep(rank) {
		d += sim.Tick(hi-lo) * fp.interExtra
	}
	return d, true
}

// interStep reports whether rank's hops cross a node boundary.
func (fp *flatRingProgram) interStep(rank int) bool {
	return rank%fp.perNode == 0 && fp.ranks > fp.perNode
}

// flatTreeProgram is the node-oblivious binomial broadcast over all P
// ranks: every non-root rank performs one receive from its binomial source.
type flatTreeProgram struct {
	ranks, perNode int
	intraDur       sim.Tick
	interDur       sim.Tick
}

func (ft *flatTreeProgram) Ranks() int { return ft.ranks }

func (ft *flatTreeProgram) src(rank int) int {
	return rank - 1<<(bits.Len(uint(rank))-1)
}

// crossNode reports whether rank receives from another node.
func (ft *flatTreeProgram) crossNode(rank int) bool {
	return ft.src(rank)/ft.perNode != rank/ft.perNode
}

func (ft *flatTreeProgram) Step(rank, step int, visit func(depRank, depStep int) bool) (sim.Tick, bool) {
	if rank == 0 || step > 0 {
		return 0, false
	}
	if s := ft.src(rank); s != 0 {
		visit(s, 0)
	}
	if ft.crossNode(rank) {
		return ft.interDur, true
	}
	return ft.intraDur, true
}

// resolveIntra picks and validates the intra-node kind.
func (c *Cluster) resolveIntra(o ScheduleOptions, leaderBased bool) (IntraKind, int, int, error) {
	perSocket, sockets, sockOK := localSockets(c.Node, c.PerNode)
	kind := o.Intra
	if kind == IntraAuto {
		switch {
		case leaderBased:
			kind = IntraRG
		case sockOK:
			kind = IntraSocket
		default:
			kind = IntraMA
		}
	}
	if kind == IntraSocket && !sockOK {
		return "", 0, 0, fmt.Errorf("cluster: socket intra schedule needs an even multi-socket binding (%d ranks on %s)", c.PerNode, c.Node.Name)
	}
	return kind, perSocket, sockets, nil
}

// CompileAllreduce compiles one all-reduce of n elements per rank into an
// event-schedule program over all Nodes x PerNode ranks.
func (c *Cluster) CompileAllreduce(alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	if err := checkElems(n); err != nil {
		return nil, err
	}
	msg := float64(n * memmodel.ElemSize)
	p, N := c.PerNode, c.Nodes
	costs := newProgCosts(c.Node, c.Net, p, msg)
	switch alg {
	case YHCCLHierarchical:
		kind, perSocket, sockets, err := c.resolveIntra(o, false)
		if err != nil {
			return nil, err
		}
		cp := &clusterProgram{nodes: N, perNode: p}
		var block float64
		switch kind {
		case IntraMA:
			block = msg / float64(p)
			cp.tmplA = maReduceScatter(c.Node, p, block, costs)
			cp.tmplC = maAllgather(c.Node, p, block, costs)
		case IntraSocket:
			block = msg / float64(perSocket)
			cp.tmplA = socketReduceScatter(c.Node, p, perSocket, sockets, block, costs)
			cp.tmplC = socketAllgather(c.Node, p, perSocket, block, costs)
		default:
			return nil, fmt.Errorf("cluster: intra kind %q is leader-based; yhccl needs ma or socket", kind)
		}
		if N > 1 {
			cp.inter = ringSpec(interRingAll, 2*(N-1), o.RingSteps, costs.laneT(msg/float64(p)/float64(N), p))
		}
		return cp.compiled(), nil
	case LeaderRing, LeaderTree:
		kind, _, _, err := c.resolveIntra(o, true)
		if err != nil {
			return nil, err
		}
		if kind != IntraRG {
			return nil, fmt.Errorf("cluster: leader compositions reduce through the RG tree (got intra %q)", kind)
		}
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplA: rgReduce(c.Node, p, 2, msg, costs), // coll's default RG degree
			tmplC: binomialBcast(c.Node, p, msg, costs),
		}
		if N > 1 {
			if alg == LeaderRing {
				cp.inter = ringSpec(interRingLeader, 2*(N-1), o.RingSteps, costs.laneT(msg/float64(N), 1))
			} else {
				cp.inter = interSpec{
					kind:      interTreeLeader,
					hopDur:    costs.laneT(msg, 1),
					reduceDur: costs.reduceT(msg, false),
					extraDur:  costs.copyT(msg, false),
				}
			}
		}
		return cp.compiled(), nil
	case FlatRing:
		P := N * p
		if P <= 1 {
			return &flatRingProgram{ranks: P, perNode: p, macro: 0}, nil
		}
		hops := 2 * (P - 1)
		block := msg / float64(P)
		return &flatRingProgram{
			ranks: P, perNode: p,
			hopsTotal:   hops,
			reduceHops:  P - 1,
			macro:       macroSteps(hops, o.RingSteps),
			intraCopy:   costs.copyT(block, false),
			intraReduce: costs.reduceT(block, false),
			interExtra:  costs.laneT(block, 1),
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown algorithm %q", alg)
}

// CompileBcast compiles one broadcast of n elements (rooted at global rank
// 0) into an event-schedule program.
func (c *Cluster) CompileBcast(alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	if err := checkElems(n); err != nil {
		return nil, err
	}
	msg := float64(n * memmodel.ElemSize)
	p, N := c.PerNode, c.Nodes
	costs := newProgCosts(c.Node, c.Net, p, msg)
	switch alg {
	case YHCCLHierarchical:
		// Root node scatters into p pieces, the pieces descend a binomial
		// node tree on p concurrent lanes, every node reassembles locally.
		piece := msg / float64(p)
		cp := &clusterProgram{nodes: N, perNode: p, aOnlyNode0: true}
		if p > 1 {
			scatter, sc := newTemplate(p, p), newStepCosts(costs, piece)
			for l := 0; l < p; l++ {
				scatter.add(sc.copyT(crossSocket(c.Node, l, 0)), noDep)
				scatter.endLocal()
			}
			cp.tmplA = scatter
			cp.tmplC = maAllgather(c.Node, p, piece, costs)
		}
		if N > 1 {
			cp.inter = interSpec{kind: interLaneTree, hopDur: costs.laneT(piece, p)}
		}
		return cp.compiled(), nil
	case LeaderRing, LeaderTree:
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplC: binomialBcast(c.Node, p, msg, costs),
		}
		if N > 1 {
			cp.inter = interSpec{
				kind:     interTreeBcastLeader,
				hopDur:   costs.laneT(msg, 1),
				extraDur: costs.copyT(msg, false),
			}
		}
		return cp.compiled(), nil
	case FlatRing:
		return &flatTreeProgram{
			ranks: N * p, perNode: p,
			intraDur: costs.copyT(msg, false),
			interDur: costs.laneT(msg, 1) + costs.copyT(msg, false),
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown bcast algorithm %q", alg)
}

// CompileAllgather compiles one all-gather of n elements contributed per
// rank into an event-schedule program.
func (c *Cluster) CompileAllgather(alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	if err := checkElems(n); err != nil {
		return nil, err
	}
	contrib := float64(n * memmodel.ElemSize)
	p, N := c.PerNode, c.Nodes
	costs := newProgCosts(c.Node, c.Net, p, contrib)
	switch alg {
	case YHCCLHierarchical:
		// Intra-node all-gather assembles the node block; node blocks then
		// circulate on a multi-lane ring, each rank copying its lane's
		// arrivals out of shared memory.
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplA: maAllgather(c.Node, p, contrib, costs),
		}
		if N > 1 {
			cp.inter = ringSpec(interRingAll, N-1, o.RingSteps, costs.laneT(contrib, p)+costs.copyT(contrib, false))
		}
		return cp.compiled(), nil
	case LeaderRing, LeaderTree:
		// Leaders gather intra-node, exchange node blocks on a single-lane
		// ring, then broadcast the assembled result locally.
		total := contrib * float64(N*p)
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplA: binomialGather(c.Node, p, contrib, costs),
			tmplC: binomialBcast(c.Node, p, total, costs),
		}
		if N > 1 {
			cp.inter = ringSpec(interRingLeader, N-1, o.RingSteps, costs.laneT(contrib*float64(p), 1))
		}
		return cp.compiled(), nil
	case FlatRing:
		P := N * p
		if P <= 1 {
			return &flatRingProgram{ranks: P, perNode: p, macro: 0}, nil
		}
		hops := P - 1
		return &flatRingProgram{
			ranks: P, perNode: p,
			hopsTotal:  hops,
			reduceHops: 0,
			macro:      macroSteps(hops, o.RingSteps),
			intraCopy:  costs.copyT(contrib, false),
			interExtra: costs.laneT(contrib, 1),
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown all-gather algorithm %q", alg)
}

// Collective names accepted by Compile and ScheduledTime.
const (
	CollAllreduce = "allreduce"
	CollBcast     = "bcast"
	CollAllgather = "allgather"
)

// Compile dispatches on the collective name.
func (c *Cluster) Compile(coll string, alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	switch coll {
	case CollAllreduce:
		return c.CompileAllreduce(alg, n, o)
	case CollBcast:
		return c.CompileBcast(alg, n, o)
	case CollAllgather:
		return c.CompileAllgather(alg, n, o)
	}
	return nil, fmt.Errorf("cluster: unknown collective %q", coll)
}

// ScheduledTime compiles the collective, runs the program on the event
// engine and returns its makespan in simulated seconds.
func (c *Cluster) ScheduledTime(coll string, alg Algorithm, n int64, o ScheduleOptions) (float64, error) {
	prog, err := c.Compile(coll, alg, n, o)
	if err != nil {
		return 0, err
	}
	res, err := sim.RunProgramEvent(prog)
	if err != nil {
		return 0, err
	}
	return res.Makespan.Seconds(), nil
}

// ProgramEvents returns how many calendar events a compiled program
// dispatches on a healthy event-engine run (one per step); useful for
// budgeting scale sweeps.
func ProgramEvents(p sim.Program) uint64 {
	var total uint64
	R := p.Ranks()
	for r := 0; r < R; r++ {
		total += uint64(stepCount(p, r))
	}
	return total
}

// stepCount returns how many steps rank executes, probing Step forward
// until it reports the rank's end.
func stepCount(p sim.Program, rank int) int {
	n := 0
	for {
		if _, ok := p.Step(rank, n, stopVisit); !ok {
			return n
		}
		n++
	}
}

// stopVisit ends a dependency enumeration at once.
func stopVisit(int, int) bool { return false }
