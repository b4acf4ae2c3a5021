// Package topo describes the shared-memory multi-core machines the paper
// evaluates on: socket/core layout, cache hierarchy and raw memory/cache
// bandwidths. The three nodes from §5.2.1 (NodeA, NodeB, NodeC/ClusterC) are
// provided as presets; custom machines can be described for what-if studies.
//
// Bandwidth numbers are calibrated so that the model reproduces the paper's
// own measurements (Table 4 sliced-copy bandwidths, Fig. 12 DAB figures),
// not datasheet peaks. See DESIGN.md §1 for the calibration rationale.
package topo

import (
	"errors"
	"fmt"
	"math"
)

// CacheLine is the cache line size in bytes, shared by every modelled CPU.
const CacheLine = 64

// Node describes one shared-memory computing node.
type Node struct {
	// Name identifies the preset (e.g. "NodeA").
	Name string
	// Sockets is the number of CPU sockets (NUMA domains).
	Sockets int
	// CoresPerSocket is the number of physical cores per socket.
	CoresPerSocket int

	// L2PerCore is the private second-level cache size per core in bytes.
	L2PerCore int64
	// L3PerSocket is the shared last-level cache size per socket in bytes.
	L3PerSocket int64
	// L3Inclusive records whether the L3 duplicates L2 contents. On
	// non-inclusive parts the available cache is C = L3 + p*L2 (paper §4.2).
	L3Inclusive bool

	// DRAMBandwidthPerSocket is the sustainable DRAM traffic per socket in
	// bytes/second (reads+writes combined, as the memory controller sees it).
	DRAMBandwidthPerSocket float64
	// DRAMBandwidthPerCore caps how much DRAM traffic a single core can
	// generate (limited by outstanding line fills), bytes/second.
	DRAMBandwidthPerCore float64
	// CacheBandwidthPerCore is the per-core streaming bandwidth to/from the
	// private cache hierarchy in bytes/second.
	CacheBandwidthPerCore float64
	// L3BandwidthPerSocket is the aggregate shared-cache bandwidth per
	// socket in bytes/second.
	L3BandwidthPerSocket float64
	// CrossSocketFactor scales effective bandwidth for accesses whose data
	// is homed on a remote socket (xGMI/UPI limited), in (0, 1].
	CrossSocketFactor float64

	// SyncLatencyIntra is the one-way flag-propagation latency between two
	// cores on the same socket, in seconds.
	SyncLatencyIntra float64
	// SyncLatencyInter is the same between sockets.
	SyncLatencyInter float64

	// ReducePerCoreBandwidth caps the per-core arithmetic throughput of a
	// streaming reduction kernel (SIMD FMA limited), bytes of operand
	// processed per second.
	ReducePerCoreBandwidth float64
}

// Cores returns the total number of cores on the node.
func (n *Node) Cores() int { return n.Sockets * n.CoresPerSocket }

// SocketOf returns the socket index of a core under block (compact) binding:
// cores [0, CoresPerSocket) on socket 0, and so on. This mirrors the
// process-core binding the paper's artifact checks with lscpu (§C.2 S8).
func (n *Node) SocketOf(core int) int {
	if core < 0 || core >= n.Cores() {
		panic(fmt.Sprintf("topo: core %d out of range on %s (%d cores)", core, n.Name, n.Cores()))
	}
	return core / n.CoresPerSocket
}

// AvailableCache returns the cache capacity usable by p cooperating
// processes, following the paper's rule (§4.2): non-inclusive LLC gives
// C = c' + p*c”, inclusive gives C = c'.
func (n *Node) AvailableCache(p int) int64 {
	c := n.L3PerSocket * int64(n.Sockets)
	if !n.L3Inclusive {
		c += int64(p) * n.L2PerCore
	}
	return c
}

// Validate reports whether the description is internally consistent.
func (n *Node) Validate() error {
	switch {
	case n.Sockets <= 0:
		return errors.New("topo: Sockets must be positive")
	case n.CoresPerSocket <= 0:
		return errors.New("topo: CoresPerSocket must be positive")
	case n.L2PerCore <= 0 || n.L3PerSocket <= 0:
		return errors.New("topo: cache sizes must be positive")
	case n.DRAMBandwidthPerSocket <= 0 || n.CacheBandwidthPerCore <= 0 || n.L3BandwidthPerSocket <= 0 || n.DRAMBandwidthPerCore <= 0:
		return errors.New("topo: bandwidths must be positive")
	case n.CrossSocketFactor <= 0 || n.CrossSocketFactor > 1:
		return errors.New("topo: CrossSocketFactor must be in (0,1]")
	case !(n.SyncLatencyIntra > 0 && n.SyncLatencyInter >= n.SyncLatencyIntra && n.SyncLatencyInter <= math.MaxFloat64):
		return errors.New("topo: sync latencies must be finite and satisfy 0 < intra <= inter")
	case n.ReducePerCoreBandwidth <= 0:
		return errors.New("topo: ReducePerCoreBandwidth must be positive")
	}
	return nil
}

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = 1e9 // bandwidths use decimal GB/s
)

// NodeA models the paper's 2 x 32-core AMD EPYC 7452 node: 256 MB of
// non-inclusive L3 node-wide (the paper's C = c' + p*c” = 294912 KB implies
// c' = 256 MB total, i.e. 128 MB per socket), 512 KB L2 per core, 16
// DDR4-3200 channels. DRAM bandwidth is calibrated from Table 4: nt-copy
// sustains ~237 GB/s of copy bandwidth, i.e. ~474 GB/s raw traffic per node.
func NodeA() *Node {
	return &Node{
		Name:                   "NodeA",
		Sockets:                2,
		CoresPerSocket:         32,
		L2PerCore:              512 * kb,
		L3PerSocket:            128 * mb,
		L3Inclusive:            false,
		DRAMBandwidthPerSocket: 237 * gb, // raw traffic; node total 474 GB/s
		DRAMBandwidthPerCore:   21 * gb,
		CacheBandwidthPerCore:  45 * gb,
		L3BandwidthPerSocket:   640 * gb,
		CrossSocketFactor:      0.55,
		SyncLatencyIntra:       250e-9,
		SyncLatencyInter:       750e-9,
		ReducePerCoreBandwidth: 38 * gb,
	}
}

// NodeB models the 2 x 24-core Intel Xeon Platinum 8163 node: 66 MB of
// non-inclusive L3 node-wide (33 MB per socket; the paper's C = 116736 KB
// = 66 MB + 48 MB L2), 1 MB L2 per core, 12 DDR4-2666 channels, 3x UPI.
func NodeB() *Node {
	return &Node{
		Name:                   "NodeB",
		Sockets:                2,
		CoresPerSocket:         24,
		L2PerCore:              1 * mb,
		L3PerSocket:            33 * mb,
		L3Inclusive:            false,
		DRAMBandwidthPerSocket: 95 * gb, // node total 190 GB/s
		DRAMBandwidthPerCore:   14 * gb,
		CacheBandwidthPerCore:  40 * gb,
		L3BandwidthPerSocket:   400 * gb,
		CrossSocketFactor:      0.5,
		SyncLatencyIntra:       300e-9,
		SyncLatencyInter:       900e-9,
		ReducePerCoreBandwidth: 30 * gb,
	}
}

// NodeC models the Cluster C node: 2 x 12-core Intel Xeon E5-2692 v2 with
// 30 MB of inclusive L3 per socket (paper: shared 60 MB inclusive node-wide).
func NodeC() *Node {
	return &Node{
		Name:                   "NodeC",
		Sockets:                2,
		CoresPerSocket:         12,
		L2PerCore:              256 * kb,
		L3PerSocket:            30 * mb,
		L3Inclusive:            true,
		DRAMBandwidthPerSocket: 45 * gb,
		DRAMBandwidthPerCore:   9 * gb,
		CacheBandwidthPerCore:  28 * gb,
		L3BandwidthPerSocket:   200 * gb,
		CrossSocketFactor:      0.5,
		SyncLatencyIntra:       350e-9,
		SyncLatencyInter:       1000e-9,
		ReducePerCoreBandwidth: 18 * gb,
	}
}

// Preset returns a node preset by name ("NodeA", "NodeB", "NodeC").
func Preset(name string) (*Node, error) {
	switch name {
	case "NodeA", "nodea", "A", "a":
		return NodeA(), nil
	case "NodeB", "nodeb", "B", "b":
		return NodeB(), nil
	case "NodeC", "nodec", "C", "c":
		return NodeC(), nil
	}
	return nil, fmt.Errorf("topo: unknown node preset %q", name)
}
