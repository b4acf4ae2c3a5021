// Package memcopy implements the data-copy primitives of the paper's §4:
// t-copy (temporal stores), nt-copy (non-temporal stores), the glibc-style
// memmove whose NT switch looks only at the copy size, and adaptive-copy
// (Algorithm 1), which additionally receives the collective algorithm's
// characteristics — whether the stored data is temporal and the working-set
// size W — and compares W against the available cache capacity C.
//
// Note on Algorithm 1: the paper's pseudocode as printed selects t-copy for
// "t == true and W > C", which contradicts both the surrounding text
// ("if the stored data is temporal ... writing the data to the cache ...
// will utilize the cache"; "we should use nt-copy for the sliced large data
// copy where the stored data is not to be used soon") and §5.4 ("YHCCL
// switches from t-copy to nt-copy when W > C and non-temporal flag
// t == 1"). We implement the behaviour the text and the evaluation
// describe: a non-temporal store is used iff the destination data is
// non-temporal AND the working set exceeds the available cache.
package memcopy

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// Policy selects the copy implementation.
type Policy int

const (
	// Memmove models the C-library copy: NT stores iff the single copy's
	// size reaches MemmoveNTThreshold, regardless of reuse.
	Memmove Policy = iota
	// TCopy always uses temporal (write-allocate) stores.
	TCopy
	// NTCopy always uses non-temporal stores.
	NTCopy
	// Adaptive is the paper's adaptive-copy (Algorithm 1).
	Adaptive
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Memmove:
		return "memmove"
	case TCopy:
		return "t-copy"
	case NTCopy:
		return "nt-copy"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name as used by the CLI tools.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "memmove":
		return Memmove, nil
	case "t-copy", "tcopy", "t":
		return TCopy, nil
	case "nt-copy", "ntcopy", "nt":
		return NTCopy, nil
	case "adaptive", "yhccl":
		return Adaptive, nil
	}
	return 0, fmt.Errorf("memcopy: unknown policy %q", s)
}

// MemmoveNTThreshold is the copy size (bytes) above which the modelled
// C-library memmove switches to non-temporal stores (glibc's
// x86_shared_non_temporal_threshold ballpark; the paper observes the 2 MB
// switch on its platforms).
const MemmoveNTThreshold int64 = 2 << 20

// Hints carries the collective-algorithm characteristics that adaptive-copy
// consumes (Algorithm 1's t, W and C arguments).
type Hints struct {
	// NonTemporal is the paper's flag t: true when the stored data will not
	// be reused soon (e.g. copy-out to receive buffers), false when it will
	// (e.g. copy-in to shared memory that the next reduction reads).
	NonTemporal bool
	// WorkSet is the algorithm's working-set size W in bytes (send buffer +
	// receive buffer + auxiliary shared memory).
	WorkSet int64
	// AvailableCache is C in bytes (topo.Node.AvailableCache).
	AvailableCache int64
}

// Decide returns the store kind the policy picks for a copy of the given
// size in bytes under the given hints.
func Decide(p Policy, copyBytes int64, h Hints) memmodel.StoreKind {
	switch p {
	case TCopy:
		return memmodel.Temporal
	case NTCopy:
		return memmodel.NonTemporal
	case Memmove:
		if copyBytes >= MemmoveNTThreshold {
			return memmodel.NonTemporal
		}
		return memmodel.Temporal
	case Adaptive:
		if h.NonTemporal && h.WorkSet > h.AvailableCache {
			return memmodel.NonTemporal
		}
		return memmodel.Temporal
	}
	panic(fmt.Sprintf("memcopy: unknown policy %d", p))
}

// Copy copies n elements from src[sOff] to dst[dOff] on rank r using the
// store kind the policy selects. It is the adaptive-copy entry point used
// by every pipelined collective.
func Copy(r *mpi.Rank, p Policy, dst *memmodel.Buffer, dOff int64,
	src *memmodel.Buffer, sOff, n int64, h Hints) {
	r.CopyElems(dst, dOff, src, sOff, n, Decide(p, n*memmodel.ElemSize, h))
}

// CopyRun is Copy in ops of at most slice elements, charged as one run
// (mpi.Rank.CopyRun). The policy decides each op's store kind on the op's
// size, as Copy would per op: only a ragged tail can differ from the full
// slices, and then it is copied on its own after the run.
func CopyRun(r *mpi.Rank, p Policy, dst *memmodel.Buffer, dOff int64,
	src *memmodel.Buffer, sOff, n, slice int64, h Hints) {
	kind := Decide(p, min(n, slice)*memmodel.ElemSize, h)
	var tail int64
	if slice > 0 && n > slice && Decide(p, n%slice*memmodel.ElemSize, h) != kind {
		tail = n % slice
	}
	r.CopyRun(dst, dOff, src, sOff, n-tail, slice, kind)
	if tail > 0 {
		Copy(r, p, dst, dOff+n-tail, src, sOff+n-tail, tail, h)
	}
}

// CopyPart adds pt, a part of copies (see memmodel.Part), to s with the
// store kinds policy p picks for each copy's size, as Copy would per copy:
// Kind for its full copies and TailKind for the shorter ones. Those are a
// run's last slices or the one item a DEnd or AEnd cut shortens, which
// takes the part's strides to be at least its length (or a single item).
func CopyPart(s *memmodel.Seq, p Policy, pt memmodel.Part, h Hints) {
	pt.Kind, pt.TailKind = partKinds(p, pt, h)
	s.Add(pt)
}

// CopyFirst adds pt to s with its first item a copy (memmodel.Part's
// CopyFirst), storing with the kinds CopyPart would pick for a part of
// such copies.
func CopyFirst(s *memmodel.Seq, p Policy, pt memmodel.Part, h Hints) {
	pt.CopyFirst = true
	pt.FirstKind, pt.FirstTailKind = partKinds(p, pt, h)
	s.Add(pt)
}

// partKinds returns the store kinds policy p picks for pt's full copies
// and for its shorter ones.
func partKinds(p Policy, pt memmodel.Part, h Hints) (full, short memmodel.StoreKind) {
	n := pt.Op.N
	tail := n
	switch {
	case pt.Slice > 0 && pt.Slice < n:
		n, tail = pt.Slice, n%pt.Slice
	case pt.DEnd > 0:
		tail = cutLen(pt.DEnd-pt.Op.DOff, pt.DStride, n)
	case pt.AEnd > 0:
		tail = cutLen(pt.AEnd-pt.Op.AOff, pt.AStride, n)
	}
	return Decide(p, n*memmodel.ElemSize, h), Decide(p, tail*memmodel.ElemSize, h)
}

// cutLen returns the length to which an end span elements past the first
// item's offset cuts the one item it shortens, items being n long at the
// given stride.
func cutLen(span, stride, n int64) int64 {
	if stride > 0 && span > 0 {
		span %= stride
	}
	return max(min(span, n), 0)
}
