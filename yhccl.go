// Package yhccl is a Go reproduction of "Optimizing MPI Collectives on
// Shared Memory Multi-Cores" (Peng et al., SC'23): the YHCCL collective
// communication library — movement-avoiding (MA) reduction algorithms and
// adaptive non-temporal-store pipelined collectives — together with every
// baseline the paper evaluates against, running on a deterministic
// simulation of the paper's multi-core nodes.
//
// The public API wraps the internal packages into the shape an MPI-style
// user expects:
//
//	node := yhccl.NodeA()                     // 2x32-core EPYC description
//	m := yhccl.NewMachine(node, 64, true)     // 64 ranks, real data
//	m.MustRun(func(r *yhccl.Rank) {
//	    sb := r.NewBuffer("sb", 1<<20)
//	    rb := r.NewBuffer("rb", 1<<20)
//	    err := yhccl.Exec(r, yhccl.Req{Collective: "allreduce",
//	        Send: sb, Recv: rb, Count: 1 << 20}) // Op defaults to Sum
//	    if err != nil {
//	        panic(err)
//	    }
//	})
//
// Exec is the one entry point for every collective: Req names the
// collective and, optionally, a registry algorithm (AlgorithmNames), tuned
// dispatch through the attached plan cache, or resilient fallback-chain
// dispatch.
//
// Machines run either with real payloads (Real = true: every collective
// moves and reduces actual float64 data, validated by the test suite) or
// model-only (timing studies at paper scale, 64 KB-256 MB x 64 ranks,
// without allocating the payloads). Simulated time, data-access volume and
// DRAM-traffic counters are available from Machine.Model.
//
// See DESIGN.md for the system inventory and the paper-to-module map, and
// EXPERIMENTS.md for the reproduced tables and figures.
package yhccl

import (
	"yhccl/internal/coll"
	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// Node describes a shared-memory node's topology and calibrated
// bandwidths.
type Node = topo.Node

// Machine binds a node, a memory cost model and a set of ranks.
type Machine = mpi.Machine

// Rank is one simulated MPI process.
type Rank = mpi.Rank

// Comm is a communicator.
type Comm = mpi.Comm

// Buffer is a modelled (optionally data-carrying) message buffer.
type Buffer = memmodel.Buffer

// Op is a reduction operation.
type Op = mpi.Op

// Options tunes algorithm selection, slice sizes and the copy policy.
type Options = coll.Options

// Policy selects a copy implementation (memmove, t-copy, nt-copy,
// adaptive).
type Policy = memcopy.Policy

// Reduction operations.
var (
	// Sum is MPI_SUM.
	Sum = mpi.Sum
	// Max is MPI_MAX.
	Max = mpi.Max
	// Min is MPI_MIN.
	Min = mpi.Min
	// Prod is MPI_PROD.
	Prod = mpi.Prod
)

// Copy policies (Fig. 12-14's contenders).
const (
	// Memmove is the C-library copy with a size-threshold NT switch.
	Memmove = memcopy.Memmove
	// TCopy always uses temporal stores.
	TCopy = memcopy.TCopy
	// NTCopy always uses non-temporal stores.
	NTCopy = memcopy.NTCopy
	// Adaptive is the paper's adaptive-copy (Algorithm 1).
	Adaptive = memcopy.Adaptive
)

// NodeA returns the 2 x 32-core AMD EPYC 7452 evaluation node.
func NodeA() *Node { return topo.NodeA() }

// NodeB returns the 2 x 24-core Intel Xeon Platinum 8163 node.
func NodeB() *Node { return topo.NodeB() }

// NodeC returns the 2 x 12-core Xeon E5-2692 v2 (Cluster C) node.
func NodeC() *Node { return topo.NodeC() }

// NewMachine creates a machine with p ranks block-bound to cores 0..p-1.
// real selects whether buffers carry actual data. If the repository's
// plans/ directory holds a tuned-plan cache for (node, p), it is loaded
// once and attached so Exec requests with Tuned set dispatch through it
// (see AttachPlans for explicit directories).
func NewMachine(node *Node, p int, real bool) *Machine {
	m := mpi.NewMachine(node, p, real)
	attachDefaultPlans(m)
	return m
}

// NewMachineWithBinding creates a machine with an explicit rank-to-core
// binding. Tuned plans for the rank count are attached as in NewMachine.
func NewMachineWithBinding(node *Node, rankCores []int, real bool) *Machine {
	m := mpi.NewMachineWithBinding(node, rankCores, real)
	attachDefaultPlans(m)
	return m
}

// AlgorithmNames lists the registered algorithm names for a collective
// (any of Req.Collective's names, aliases included), or nil for an unknown
// one.
func AlgorithmNames(collective string) []string {
	return coll.Algorithms(normalizeCollective(collective))
}
