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
	register("fig12a", "Adaptive all-reduce vs fixed copy kinds, NodeA p=64", figAdaptive("fig12a", topo.NodeA(), 64, "allreduce"))
	register("fig12b", "Adaptive all-reduce vs fixed copy kinds, NodeB p=48", figAdaptive("fig12b", topo.NodeB(), 48, "allreduce"))
	register("fig13a", "Adaptive pipelined broadcast vs fixed copy kinds, NodeA p=64", figAdaptive("fig13a", topo.NodeA(), 64, "bcast"))
	register("fig13b", "Adaptive pipelined broadcast vs fixed copy kinds, NodeB p=48", figAdaptive("fig13b", topo.NodeB(), 48, "bcast"))
	register("fig14a", "Adaptive pipelined all-gather vs fixed copy kinds, NodeA p=64", figAdaptive("fig14a", topo.NodeA(), 64, "allgather"))
	register("fig14b", "Adaptive pipelined all-gather vs fixed copy kinds, NodeB p=48", figAdaptive("fig14b", topo.NodeB(), 48, "allgather"))
}

// adaptiveAlgs names each Figs. 12-14 collective's YHCCL algorithm, its
// title and its message sweep.
var adaptiveAlgs = map[string]struct {
	alg, title string
	sizes      func(quick bool) []int64
}{
	"allreduce": {"socket-ma", "all-reduce", MsgSizes},
	"bcast":     {"pipelined", "pipelined broadcast", MsgSizes},
	"allgather": {"pipelined", "pipelined all-gather", SmallMsgSizes},
}

// figAdaptive runs the collective's YHCCL algorithm with each forced copy
// policy.
func figAdaptive(id string, node *topo.Node, p int, collective string) Runner {
	return func(quick bool) (*Figure, error) {
		a := adaptiveAlgs[collective]
		sizes := a.sizes(quick)
		policies := []struct {
			name string
			pol  memcopy.Policy
		}{
			{"YHCCL (adaptive)", memcopy.Adaptive},
			{"t-copy", memcopy.TCopy},
			{"nt-copy", memcopy.NTCopy},
			{"Memmove", memcopy.Memmove},
		}
		f := &Figure{
			ID:       id,
			Title:    fmt.Sprintf("Adaptive %s vs fixed copy kinds (%s, p=%d)", a.title, node.Name, p),
			XLabel:   "Msg bytes",
			XValues:  sizes,
			YLabel:   "time (us)",
			Baseline: "YHCCL (adaptive)",
		}
		if collective == "allreduce" {
			f.Notes = append(f.Notes, fmt.Sprintf(
				"predicted t->nt switch point: %s (W > C rule, C = %s)",
				ByteSize(PredictedSwitchBytes(node, p)), ByteSize(node.AvailableCache(p))))
		}
		for _, pp := range policies {
			call := algCall(collective, a.alg, NodeOptions(node).WithPolicy(pp.pol))
			f.Series = append(f.Series, Series{Name: pp.name, Y: sweep(sizes, func(s int64) float64 {
				return measure(node, p, call, s)
			})})
		}
		return f, nil
	}
}

// PredictedSwitchBytes solves W > C for the socket-aware MA all-reduce
// (§5.4): W = 2sp + m*p*Imax, so s > (C - m*p*Imax) / (2p). The paper
// computes 2176 KB on NodeA (p=64) and 1152 KB on NodeB (p=48).
func PredictedSwitchBytes(node *topo.Node, p int) int64 {
	imax := NodeOptions(node).SliceMaxBytes
	if imax == 0 {
		imax = coll.DefaultSliceMaxBytes
	}
	C := node.AvailableCache(p)
	m := int64(node.Sockets)
	return (C - m*int64(p)*imax) / (2 * int64(p))
}
