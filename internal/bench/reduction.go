package bench

import (
	"fmt"

	"yhccl/internal/coll"
	"yhccl/internal/topo"
)

// Figs. 9-11: the movement-avoiding reduction family against DPML, Ring,
// Rabenseifner and RG on NodeA (p=64) and NodeB (p=48), plus Fig. 16a's
// single-node scalability sweep.

func init() {
	register("fig9a", "Reduce-scatter algorithm comparison, NodeA p=64", figReduction("fig9", "Reduce-scatter", "reduce-scatter", topo.NodeA(), 64, rsAlgs))
	register("fig9b", "Reduce-scatter algorithm comparison, NodeB p=48", figReduction("fig9", "Reduce-scatter", "reduce-scatter", topo.NodeB(), 48, rsAlgs))
	register("fig10a", "Reduce algorithm comparison, NodeA p=64", figReduction("fig10", "Reduce", "reduce", topo.NodeA(), 64, reduceAlgs))
	register("fig10b", "Reduce algorithm comparison, NodeB p=48", figReduction("fig10", "Reduce", "reduce", topo.NodeB(), 48, reduceAlgs))
	register("fig11a", "All-reduce algorithm comparison, NodeA p=64", figReduction("fig11", "All-reduce", "allreduce", topo.NodeA(), 64, arAlgs))
	register("fig11b", "All-reduce algorithm comparison, NodeB p=48", figReduction("fig11", "All-reduce", "allreduce", topo.NodeB(), 48, arAlgs))
	register("fig16a", "Single-node all-reduce scalability, NodeA p=2..64 @ 64MB", figScalability)
}

var (
	rsAlgs = []series{
		{"Socket-aware MA (ours)", "socket-ma"},
		{"MA (ours)", "ma"},
		{"DPML", "dpml"},
		{"Ring", "ring"},
		{"Rabenseifner", "rabenseifner"},
	}
	reduceAlgs = []series{
		{"Socket-aware MA (ours)", "socket-ma"},
		{"MA (ours)", "ma"},
		{"DPML", "dpml"},
		{"RG", "rg"},
	}
	arAlgs = []series{
		{"Socket-aware MA (ours)", "socket-ma"},
		{"MA (ours)", "ma"},
		{"DPML", "dpml"},
		{"RG", "rg"},
		{"Ring", "ring"},
		{"Rabenseifner", "rabenseifner"},
	}
)

// figReduction compares the reduction algorithms of one collective on a
// node across the paper's message sweep, relative to socket-aware MA.
func figReduction(id, title, collective string, node *topo.Node, p int, algs []series) Runner {
	return func(quick bool) (*Figure, error) {
		f := &Figure{
			ID:       id + nodeSuffix(node),
			Title:    fmt.Sprintf("%s comparison (%s, p=%d)", title, node.Name, p),
			XLabel:   "Msg bytes",
			XValues:  MsgSizes(quick),
			YLabel:   "time (us)",
			Baseline: "Socket-aware MA (ours)",
		}
		f.sweepAlgs(node, p, collective, NodeOptions(node), algs)
		return f, nil
	}
}

// figScalability is Fig. 16a: all-reduce at 64 MB over p = 2..64 on NodeA.
func figScalability(quick bool) (*Figure, error) {
	node := topo.NodeA()
	ps := []int{2, 4, 8, 16, 32, 64}
	if quick {
		ps = []int{2, 8, 64}
	}
	const s = 64 << 20
	algs := []series{
		{"YHCCL", "yhccl"},
		{"DPML", "dpml"},
		{"RG", "rg"},
		{"Open MPI (ring)", "ring"},
		{"MPICH (Rabenseifner)", "rabenseifner"},
		{"Hashmi's XPMEM", "xpmem"},
	}
	f := &Figure{
		ID:     "fig16a",
		Title:  "Single-node all-reduce scalability (NodeA, 64 MB)",
		XLabel: "processes",
		YLabel: "time (us)",
		Notes:  []string{"ranks 2..32 occupy socket 0 only under block binding, as on the real machine"},
	}
	for _, p := range ps {
		f.XValues = append(f.XValues, int64(p))
	}
	for _, a := range algs {
		ys := make([]float64, len(ps))
		for i, p := range ps {
			ys[i] = measure(node, p, algCall("allreduce", a.alg, coll.Options{}), s)
		}
		f.Series = append(f.Series, Series{Name: a.name, Y: ys})
	}
	return f, nil
}

func nodeSuffix(node *topo.Node) string {
	if node.Name == "NodeB" {
		return "b"
	}
	return "a"
}
