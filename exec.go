package yhccl

import (
	"fmt"
	"math"

	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/plan"
)

// Unified request API: every collective the library implements is reachable
// through one entry point, Exec, driven by a declarative Req. Default,
// named-algorithm, tuned and resilient dispatch of all nine collectives are
// fields of the request, not separate functions.

// Req describes one collective call declaratively: which collective, which
// algorithm (or tuned/resilient dispatch), the buffers it moves, and the
// rooted/reduction parameters where the collective needs them.
//
// Field semantics:
//
//   - Collective: "allreduce", "reduce-scatter", "reduce", "bcast",
//     "allgather", "gather", "scatter", "alltoall", "scan" (aliases
//     "reducescatter" and "broadcast" are accepted).
//   - Alg: registry algorithm name (see AlgorithmNames); "" selects the
//     collective's default ("yhccl").
//   - Tuned: dispatch through the machine's attached tuned-plan table
//     (paper collectives only); the plan picks the algorithm, so Tuned is
//     incompatible with a non-empty Alg and with Resilience.
//   - Resilience: dispatch through the fallback chain (paper collectives
//     only): the primary is Alg (or the default), and
//     Options.FallbackDepth selects the chain entry, exactly as the
//     recovery supervisor does. The implementation is instrumented so a
//     hang or crash is attributed to "collective/algorithm".
//   - Root: the root rank for reduce, bcast, gather and scatter; it must
//     name a rank of the world communicator.
//   - Op: the reduction operation for reducing collectives; the zero Op
//     defaults to Sum.
//   - Send/Recv: the buffers. Bcast operates in place on Send (Recv is
//     accepted as an alias when Send is nil); all other collectives read
//     Send and write Recv.
//   - Count: the per-rank element count n. Buffer shapes follow each
//     collective's convention (coll.Call.Shape: e.g. all-gather reads n
//     elements from Send and writes p*n to Recv); larger buffers are
//     accepted, shorter ones rejected.
type Req struct {
	Collective string
	Alg        string
	Tuned      bool
	Resilience bool
	Root       int
	Op         Op
	Options    Options
	Send       *Buffer
	Recv       *Buffer
	Count      int64
}

// normalizeCollective folds accepted aliases onto canonical names.
func normalizeCollective(c string) string {
	switch c {
	case "reducescatter":
		return "reduce-scatter"
	case "broadcast":
		return "bcast"
	}
	return c
}

// bind canonicalizes the request, checks it against r's world
// communicator and binds the coll.Call it describes. Every error names the
// collective and, where one is at fault, the Req field.
func (q *Req) bind(r *Rank) (coll.Func, error) {
	q.Collective = normalizeCollective(q.Collective)
	if q.Collective == "" {
		return nil, fmt.Errorf("yhccl: Req.Collective is empty")
	}
	fail := func(format string, args ...any) (coll.Func, error) {
		return nil, fmt.Errorf("yhccl: %s: %s", q.Collective, fmt.Sprintf(format, args...))
	}
	p := r.World().Size()
	if q.Count <= 0 {
		return fail("Req.Count must be positive, got %d", q.Count)
	}
	if q.Count > math.MaxInt64/memmodel.ElemSize/int64(p) {
		return fail("Req.Count %d overflows the %d-rank message size", q.Count, p)
	}
	if q.Tuned && q.Resilience {
		return fail("Tuned and Resilience are mutually exclusive")
	}
	if q.Tuned && q.Alg != "" {
		return fail("Tuned dispatch picks the algorithm; Alg %q conflicts", q.Alg)
	}
	if _, err := plan.ParseColl(q.Collective); err != nil && (q.Tuned || q.Resilience) {
		mode := "Tuned"
		if q.Resilience {
			mode = "Resilience"
		}
		return fail("%s dispatch covers only the paper collectives (allreduce, reduce-scatter, reduce, bcast, allgather)", mode)
	}
	switch q.Collective {
	case "reduce", "bcast", "gather", "scatter":
		if q.Root < 0 || q.Root >= p {
			return fail("Req.Root %d outside 0..%d", q.Root, p-1)
		}
	}
	c := coll.Call{
		Coll:      q.Collective,
		Params:    plan.Params{Family: q.Alg},
		Resilient: q.Resilience,
		N:         q.Count,
		Root:      q.Root,
		Op:        q.Op,
		Options:   q.Options,
	}
	if q.Tuned {
		c.Planner = coll.PlannerOf(r.Machine())
	}
	_, f, err := c.Bind(p) // rejects an unknown collective or algorithm
	if err != nil {
		return nil, err
	}
	send, recv := c.Shape(p)
	if q.Collective == "bcast" {
		if q.Send == nil {
			q.Send = q.Recv
		}
		if q.Send == nil {
			return fail("Req.Send (in-place buffer) is nil")
		}
	} else if q.Send == nil || q.Recv == nil {
		return fail("Req.Send and Req.Recv must both be set")
	}
	if q.Send.Elems < send {
		return fail("Req.Send holds %d elements, need %d", q.Send.Elems, send)
	}
	if q.Recv != nil && q.Recv.Elems < recv {
		return fail("Req.Recv holds %d elements, need %d", q.Recv.Elems, recv)
	}
	return f, nil
}

// Exec runs one collective described by q on r's world communicator. It is
// the library's single entry point. Exec returns an error for malformed
// requests (unknown collective or algorithm, conflicting dispatch modes,
// missing or short buffers, a root outside the communicator) before any
// data moves; a valid request executes exactly the registry implementation
// it names on the world communicator.
func Exec(r *Rank, q Req) error {
	f, err := q.bind(r)
	if err != nil {
		return err
	}
	f(r, r.World(), q.Send, q.Recv)
	return nil
}
