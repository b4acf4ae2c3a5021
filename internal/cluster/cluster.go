// Package cluster models multi-node execution for the paper's large-scale
// experiments (Figs. 16b, 17, 18): identical shared-memory nodes joined by
// an InfiniBand-class network.
//
// Two paths price a cluster collective. The analytic all-reduce
// (AllreduceTime) runs the intra-node phases on the full discrete-event
// machine of internal/mpi (one representative node — the nodes execute the
// same program in lockstep) and adds closed-form inter-node terms. The
// compiled path (program.go) turns all-reduce, broadcast and all-gather
// into step programs that the event engine runs at any world size. Both
// price inter-node phases with multi-lane saturation: a single
// communicating process pair cannot fill an IB link; several concurrent
// pairs can (Träff & Hunold [52], which the paper cites for exactly this
// effect). YHCCL's hierarchical all-reduce keeps all p processes
// communicating between nodes simultaneously, while leader-based designs
// funnel inter-node traffic through one process.
package cluster

import (
	"fmt"
	"math"

	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// Network describes the inter-node fabric.
type Network struct {
	// LinkBandwidth is the per-node injection bandwidth in bytes/s
	// (e.g. 12.5e9 for 100 Gb/s InfiniBand).
	LinkBandwidth float64
	// Latency is the one-way small-message latency in seconds.
	Latency float64
	// SaturationLanes controls the lane-efficiency curve: L concurrent
	// streams achieve LinkBandwidth * L/(L+SaturationLanes). One stream on
	// a 100 Gb/s link reaches ~25% of peak; 16+ streams approach peak.
	SaturationLanes float64
}

// IB100 returns a 100 Gb/s InfiniBand-class network. Latency is the
// per-step software+wire cost an MPI rendezvous pays, not raw wire time.
func IB100() Network {
	return Network{LinkBandwidth: 12.5e9, Latency: 3e-6, SaturationLanes: 3}
}

// IB56 returns a 56 Gb/s FDR network (Cluster C vintage).
func IB56() Network {
	return Network{LinkBandwidth: 7e9, Latency: 4e-6, SaturationLanes: 3}
}

// EffectiveBandwidth returns the aggregate bandwidth L concurrent lanes
// extract from one node's link.
func (n Network) EffectiveBandwidth(lanes int) float64 {
	if lanes <= 0 {
		return 0
	}
	l := float64(lanes)
	return n.LinkBandwidth * l / (l + n.SaturationLanes)
}

// RingAllreduceTime is the standard ring all-reduce cost of m bytes across
// N nodes with `lanes` concurrent per-node streams (each lane carries
// m/lanes bytes): 2(N-1) steps moving (m/lanes)/N bytes per lane, all lanes
// sharing the effective link bandwidth.
func (n Network) RingAllreduceTime(m int64, nodes, lanes int) float64 {
	if nodes <= 1 || m <= 0 {
		return 0
	}
	steps := 2 * (nodes - 1)
	bytesPerStep := float64(m) / float64(nodes)
	return float64(steps) * (bytesPerStep/n.EffectiveBandwidth(lanes) + n.Latency)
}

// TreeAllreduceTime is a binomial reduce+broadcast over single-lane links
// (the leader-based pattern of hcoll/MVAPICH2 for small messages).
func (n Network) TreeAllreduceTime(m int64, nodes int) float64 {
	if nodes <= 1 || m <= 0 {
		return 0
	}
	depth := int(math.Ceil(math.Log2(float64(nodes))))
	per := float64(m)/n.EffectiveBandwidth(1) + n.Latency
	return 2 * float64(depth) * per
}

// Cluster is N identical nodes with perNode ranks each.
type Cluster struct {
	Node    *topo.Node
	Nodes   int
	PerNode int
	Net     Network

	// Epoch is the membership epoch this cluster was built for: 0 for a
	// fresh cluster; the supervisor stamps each recompiled or rejoined
	// cluster with a successor epoch so reports can name the membership a
	// result came from. Plain data — the event path never reads it.
	Epoch int

	// machine is the representative node the analytic all-reduce runs on.
	// Machine builds it on first use and then reuses it, so communicator
	// state persists like a real job; compiled programs never need it.
	machine *mpi.Machine
}

// New builds a cluster. It panics when perNode ranks do not fit on one node.
func New(node *topo.Node, nodes, perNode int, net Network) *Cluster {
	if perNode <= 0 || perNode > node.Cores() {
		panic(fmt.Sprintf("cluster: %d ranks per node do not fit on %s (%d cores)", perNode, node.Name, node.Cores()))
	}
	return &Cluster{Node: node, Nodes: nodes, PerNode: perNode, Net: net}
}

// Ranks returns the total process count.
func (c *Cluster) Ranks() int { return c.Nodes * c.PerNode }

// Machine returns the representative node, a model-only machine (timing
// studies) built on the first call.
func (c *Cluster) Machine() *mpi.Machine {
	if c.machine == nil {
		c.machine = mpi.NewMachine(c.Node, c.PerNode, false)
	}
	return c.machine
}

// checkElems rejects a message of fewer than one element per rank.
func checkElems(n int64) error {
	if n <= 0 {
		return fmt.Errorf("cluster: message must have at least 1 element")
	}
	return nil
}

// Algorithm selects a multi-node all-reduce composition.
type Algorithm string

const (
	// YHCCLHierarchical: intra-node socket-MA reduce-scatter, inter-node
	// ring all-reduce with all p ranks as lanes, intra-node all-gather
	// copy-out (§5.5 "multi-node performance evaluation").
	YHCCLHierarchical Algorithm = "yhccl"
	// LeaderRing: intra-node reduce to a leader (CMA ring), single-lane
	// inter-node ring, intra-node broadcast — the Open MPI/Intel MPI
	// pattern.
	LeaderRing Algorithm = "leader-ring"
	// LeaderTree: leader reduction with a binomial inter-node tree
	// (hcoll / MVAPICH2), strongest on small messages.
	LeaderTree Algorithm = "leader-tree"
	// FlatRing: a ring over all P ranks with no node awareness — the
	// behaviour of MPICH and of Open MPI's default tuned ring at scale:
	// 2(P-1) synchronous steps, each gated by the slowest (inter-node,
	// single-lane) hop.
	FlatRing Algorithm = "flat-ring"
)

// Algorithms lists the selectable compositions.
func Algorithms() []Algorithm {
	return []Algorithm{YHCCLHierarchical, LeaderRing, LeaderTree, FlatRing}
}

// AllreduceTime returns the simulated seconds of one all-reduce of n
// float64 elements per rank under the given composition.
func (c *Cluster) AllreduceTime(alg Algorithm, n int64) (float64, error) {
	if err := checkElems(n); err != nil {
		return 0, err
	}
	bytes := n * memmodel.ElemSize
	switch alg {
	case YHCCLHierarchical:
		// Intra reduce-scatter leaves s/p per rank; all p ranks then run
		// the inter-node ring concurrently (p lanes); intra all-gather.
		intra := c.steadyIntra("car", n, coll.AllreduceYHCCL)
		inter := c.Net.RingAllreduceTime(bytes, c.Nodes, c.PerNode)
		return intra + inter, nil
	case LeaderRing:
		intra := c.steadyIntra("clr", n, coll.AllreduceCMA)
		inter := c.Net.RingAllreduceTime(bytes, c.Nodes, 1)
		return intra + inter, nil
	case LeaderTree:
		// MVAPICH2/hcoll-style: socket-aware two-level shm reduction
		// intra-node, binomial tree across nodes.
		intra := c.steadyIntra("clt", n, coll.AllreduceTwoLevel)
		inter := c.Net.TreeAllreduceTime(bytes, c.Nodes)
		return intra + inter, nil
	case FlatRing:
		// Flat ring over P ranks: every one of the 2(P-1) steps pays the
		// single-lane inter-node hop that gates the ring, plus the
		// intra-node two-copy transport work (5 access units per block:
		// copy-in, fused receive+reduce) every rank performs per step.
		P := c.Ranks()
		if P <= 1 {
			return 0, nil
		}
		block := float64(bytes) / float64(P)
		interHop := block/c.Net.EffectiveBandwidth(1) + c.Net.Latency
		memHop := 5 * block / c.Machine().Model.CacheBandwidthPerRank(0)
		return float64(2*(P-1)) * (interHop + memHop), nil
	}
	return 0, fmt.Errorf("cluster: unknown algorithm %q", alg)
}

// steadyIntra measures the steady-state intra-node time of one all-reduce:
// a warm-up run (which also absorbs any dirty cache state a previously
// measured algorithm left behind) followed by the measured run, on
// persistent warm buffers — the OSU iteration discipline.
func (c *Cluster) steadyIntra(label string, n int64, alg func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o coll.Options)) float64 {
	body := func(r *mpi.Rank) {
		sb := r.PersistentBuffer(fmt.Sprintf("%s/sb/%d", label, n), n)
		rb := r.PersistentBuffer(fmt.Sprintf("%s/rb/%d", label, n), n)
		r.Warm(sb, 0, n)
		r.Warm(rb, 0, n)
		alg(r, r.World(), sb, rb, n, mpi.Sum, coll.Options{})
	}
	m := c.Machine()
	m.MustRun(body)
	return m.MustRun(body)
}

// AllreduceTimeTensors models a Horovod-style fused gradient exchange:
// the message is split into `tensors` buckets, each all-reduced
// separately (paying per-bucket latency).
func (c *Cluster) AllreduceTimeTensors(alg Algorithm, totalElems int64, tensors int) (float64, error) {
	if tensors <= 0 {
		tensors = 1
	}
	per, err := c.AllreduceTime(alg, ceilDiv64(totalElems, int64(tensors)))
	if err != nil {
		return 0, err
	}
	return per * float64(tensors), nil
}

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }

// MustAllreduceTime is AllreduceTime, panicking on an unknown algorithm or
// an empty message.
func (c *Cluster) MustAllreduceTime(alg Algorithm, n int64) float64 {
	t, err := c.AllreduceTime(alg, n)
	if err != nil {
		panic(err)
	}
	return t
}
