package bench

import (
	"fmt"

	"yhccl/internal/coll"
	"yhccl/internal/memcopy"
	"yhccl/internal/topo"
)

// Figs. 12-14: the same YHCCL collective run with the four copy policies —
// adaptive (the contribution), t-copy, nt-copy and threshold memmove —
// isolating the value of the fine-grained NT-store heuristic.

func init() {
	register("fig12a", "Adaptive all-reduce vs fixed copy kinds, NodeA p=64", figAdaptive("fig12a", topo.NodeA(), 64, collectiveAllreduce))
	register("fig12b", "Adaptive all-reduce vs fixed copy kinds, NodeB p=48", figAdaptive("fig12b", topo.NodeB(), 48, collectiveAllreduce))
	register("fig13a", "Adaptive pipelined broadcast vs fixed copy kinds, NodeA p=64", figAdaptive("fig13a", topo.NodeA(), 64, collectiveBcast))
	register("fig13b", "Adaptive pipelined broadcast vs fixed copy kinds, NodeB p=48", figAdaptive("fig13b", topo.NodeB(), 48, collectiveBcast))
	register("fig14a", "Adaptive pipelined all-gather vs fixed copy kinds, NodeA p=64", figAdaptive("fig14a", topo.NodeA(), 64, collectiveAllgather))
	register("fig14b", "Adaptive pipelined all-gather vs fixed copy kinds, NodeB p=48", figAdaptive("fig14b", topo.NodeB(), 48, collectiveAllgather))
}

type policyCollective int

const (
	collectiveAllreduce policyCollective = iota
	collectiveBcast
	collectiveAllgather
)

// measureWithPolicy runs the collective with a forced copy policy.
func measureWithPolicy(kind policyCollective, node *topo.Node, p int, pol memcopy.Policy, sBytes int64) float64 {
	o := nodeOptions(node).WithPolicy(pol)
	switch kind {
	case collectiveAllreduce:
		return measureAllreduce(node, p, coll.AllreduceSocketMA, sBytes, o)
	case collectiveBcast:
		return measureBcast(node, p, coll.BcastPipelined, sBytes, o)
	case collectiveAllgather:
		return measureAllgather(node, p, coll.AllgatherPipelined, sBytes, o)
	}
	panic("bench: unknown policy collective")
}

func figAdaptive(id string, node *topo.Node, p int, kind policyCollective) Runner {
	return func(quick bool) (*Figure, error) {
		var sizes []int64
		if kind == collectiveAllgather {
			sizes = smallMsgSizes(quick)
		} else {
			sizes = msgSizes(quick)
		}
		policies := []struct {
			name string
			pol  memcopy.Policy
		}{
			{"YHCCL (adaptive)", memcopy.Adaptive},
			{"t-copy", memcopy.TCopy},
			{"nt-copy", memcopy.NTCopy},
			{"Memmove", memcopy.Memmove},
		}
		title := map[policyCollective]string{
			collectiveAllreduce: "all-reduce",
			collectiveBcast:     "pipelined broadcast",
			collectiveAllgather: "pipelined all-gather",
		}[kind]
		f := &Figure{
			ID:       id,
			Title:    fmt.Sprintf("Adaptive %s vs fixed copy kinds (%s, p=%d)", title, node.Name, p),
			XLabel:   "Msg bytes",
			XValues:  sizes,
			YLabel:   "time (us)",
			Baseline: "YHCCL (adaptive)",
		}
		if kind == collectiveAllreduce {
			f.Notes = append(f.Notes, fmt.Sprintf(
				"predicted t->nt switch point: %s (W > C rule, C = %s)",
				ByteSize(PredictedSwitchBytes(node, p)), ByteSize(node.AvailableCache(p))))
		}
		for _, pp := range policies {
			pp := pp
			f.Series = append(f.Series, Series{Name: pp.name, Y: sweep(sizes, func(s int64) float64 {
				return measureWithPolicy(kind, node, p, pp.pol, s)
			})})
		}
		return f, nil
	}
}

// PredictedSwitchBytes solves W > C for the socket-aware MA all-reduce
// (§5.4): W = 2sp + m*p*Imax, so s > (C - m*p*Imax) / (2p). The paper
// computes 2176 KB on NodeA (p=64) and 1152 KB on NodeB (p=48).
func PredictedSwitchBytes(node *topo.Node, p int) int64 {
	imax := nodeOptions(node).SliceMaxBytes
	if imax == 0 {
		imax = coll.DefaultSliceMaxBytes
	}
	C := node.AvailableCache(p)
	m := int64(node.Sockets)
	return (C - m*int64(p)*imax) / (2 * int64(p))
}
