package bench

import (
	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/topo"
)

// The measurement harness. The figures and the plan tuner (internal/tune)
// measure through the same Measure — same steady-state warm-up contract,
// same machine construction — so a tuner candidate and a figure baseline
// see identical simulated times. That identity is what makes the
// "synthesized plans beat or match every hand-written algorithm" gate hold
// exactly on ties: the tuner's seed candidates ARE the figure baselines,
// measured by the same code.

// NodeOptions returns the paper's per-node tuning (Imax 256 KB on NodeA,
// 128 KB on NodeB, §5.3) — the option base every figure sweep uses.
func NodeOptions(node *topo.Node) coll.Options {
	o := coll.Options{}
	if node.Name == "NodeB" {
		o.SliceMaxBytes = 128 << 10
	}
	return o
}

// MsgSizes returns the paper's 64 KB - 256 MB sweep (13 points), or a
// 3-point subset in quick mode. The quick large point is 64 MB: NodeA's
// 294 MB of cache absorbs anything smaller, hiding the large-message
// regime the paper's headline results live in.
func MsgSizes(quick bool) []int64 {
	if quick {
		return []int64{64 << 10, 2 << 20, 64 << 20}
	}
	var out []int64
	for s := int64(64 << 10); s <= 256<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// SmallMsgSizes returns the 8 KB - 8 MB all-gather sweep (11 points), or
// the 3-point quick subset.
func SmallMsgSizes(quick bool) []int64 {
	if quick {
		return []int64{8 << 10, 256 << 10, 2 << 20}
	}
	var out []int64
	for s := int64(8 << 10); s <= 8<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Measure runs call steady-state on a fresh model-only p-rank machine and
// returns the measured makespan in simulated seconds. sBytes sets call.N:
// it is the per-rank message, except for reduce-scatter, where it is the
// total message (N = sBytes/8/p, at least 1). Every rank warms its send
// and receive buffers before the call, as an application updating them
// each iteration would; all-gather's p·N receive buffer stays cold.
func Measure(node *topo.Node, p int, call coll.Call, sBytes int64) (float64, error) {
	call.N = sBytes / memmodel.ElemSize
	if call.Coll == "reduce-scatter" {
		call.N = max(call.N/int64(p), 1)
	}
	_, f, err := call.Bind(p)
	if err != nil {
		return 0, err
	}
	warmRecv := call.Coll != "allgather"
	m := mpi.NewMachine(node, p, false)
	return steadyState(m, func(r *mpi.Rank) {
		sb, rb := call.Buffers(p, "bench/", r.PersistentBuffer)
		r.Warm(sb, 0, sb.Elems)
		if rb != nil && warmRecv {
			r.Warm(rb, 0, rb.Elems)
		}
		f(r, r.World(), sb, rb)
	}), nil
}

// measure is Measure for the figures' fixed algorithm tables, where a
// call that does not bind is a programming error.
func measure(node *topo.Node, p int, call coll.Call, sBytes int64) float64 {
	t, err := Measure(node, p, call, sBytes)
	if err != nil {
		panic(err)
	}
	return t
}

// algCall is the call of the collective's registry algorithm alg.
func algCall(collective, alg string, o coll.Options) coll.Call {
	return coll.Call{Coll: collective, Params: plan.Params{Family: alg}, Options: o}
}

// series is one figure curve: its legend label and the registry algorithm
// it measures.
type series struct{ name, alg string }

// sweepAlgs appends one curve per algorithm to f, measuring the collective
// at every f.XValues message size.
func (f *Figure) sweepAlgs(node *topo.Node, p int, collective string, o coll.Options, algs []series) {
	for _, a := range algs {
		call := algCall(collective, a.alg, o)
		f.Series = append(f.Series, Series{Name: a.name, Y: sweep(f.XValues, func(s int64) float64 {
			return measure(node, p, call, s)
		})})
	}
}
