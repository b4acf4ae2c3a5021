// Package coll implements the paper's contribution — the movement-avoiding
// (MA) reduction collectives and the adaptive non-temporal pipelined
// collectives of YHCCL — together with every baseline the evaluation
// compares against: DPML, the RG pipelined tree, ring and Rabenseifner
// send/recv algorithms, XPMEM-style direct-access collectives and CMA-style
// kernel-copy collectives.
//
// Every algorithm is a plain function over the internal/mpi runtime: the
// same code path performs the real element-wise work in Real machines and
// drives the memory cost model in model-only machines. Uniform conventions:
//
//   - payload element is float64; message sizes are given in elements;
//   - reduce-scatter: sb has p*n elements, every rank receives block
//     `rank` (n elements) in rb;
//   - all-reduce: sb and rb have n elements (n divisible appropriately is
//     not required; ragged tails are handled);
//   - reduce: root's rb receives the n-element reduction;
//   - bcast: root's data in buf is replicated to every rank's buf;
//   - all-gather: sb has n elements, rb has p*n.
package coll

import (
	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// Options tunes the YHCCL algorithms. The zero value selects the paper's
// defaults via withDefaults.
type Options struct {
	// Policy is the copy policy for copy-in/copy-out operations
	// (default Adaptive — the paper's contribution; set TCopy/NTCopy/
	// Memmove to reproduce the ablation curves of Figs. 12-14).
	Policy memcopy.Policy
	// PolicySet records whether Policy was set explicitly (needed because
	// Memmove is the zero value).
	PolicySet bool
	// SliceMaxBytes is Imax, the largest pipeline slice (default 256 KB,
	// the paper's NodeA setting; 128 KB on NodeB).
	SliceMaxBytes int64
	// RGDegree is the branching degree k of the RG tree (default 2).
	RGDegree int
	// SwitchSmallBytes is the message size at or below which the MA
	// algorithms switch to the two-level parallel reduction (default
	// 256 KB, paper §5.1). Zero keeps the default; negative disables the
	// switch.
	SwitchSmallBytes int64
	// FallbackDepth selects how far down the fallback chain a resilient
	// Call resolves: 0 runs the primary algorithm, k the
	// k-th fallback (clamped to the end of the chain). Normally set by the
	// recovery supervisor, not by hand.
	FallbackDepth int
}

// DefaultSliceMaxBytes is the paper's Imax on NodeA.
const DefaultSliceMaxBytes = 256 << 10

// DefaultSwitchSmallBytes is the algorithm-switch threshold (paper §5.1).
const DefaultSwitchSmallBytes = 256 << 10

// withDefaults fills in the paper's default parameters.
func (o Options) withDefaults() Options {
	if !o.PolicySet {
		o.Policy = memcopy.Adaptive
	}
	if o.SliceMaxBytes <= 0 {
		o.SliceMaxBytes = DefaultSliceMaxBytes
	}
	if o.RGDegree <= 0 {
		o.RGDegree = 2
	}
	if o.SwitchSmallBytes == 0 {
		o.SwitchSmallBytes = DefaultSwitchSmallBytes
	}
	return o
}

// WithPolicy returns o with the copy policy set explicitly.
func (o Options) WithPolicy(p memcopy.Policy) Options {
	o.Policy = p
	o.PolicySet = true
	return o
}

// sliceElems applies the paper's slice rule I = max(min(s/p, Imax), line)
// in elements: blockElems is s/p (the per-rank block), the floor is one
// cache line (to avoid false sharing, §5.1).
func sliceElems(blockElems int64, o Options) int64 {
	i := blockElems
	if max := o.SliceMaxBytes / memmodel.ElemSize; i > max {
		i = max
	}
	if line := int64(topo.CacheLine / memmodel.ElemSize); i < line {
		i = line
	}
	return i
}

// hints builds the adaptive-copy hints for a collective with working set
// wBytes on the given machine (C follows the node's inclusivity rule for
// the machine's rank count).
func hints(m *mpi.Machine, nonTemporal bool, wBytes int64) memcopy.Hints {
	return memcopy.Hints{
		NonTemporal:    nonTemporal,
		WorkSet:        wBytes,
		AvailableCache: m.Node.AvailableCache(m.Size()),
	}
}

// ceilDiv returns ceil(a/b).
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
