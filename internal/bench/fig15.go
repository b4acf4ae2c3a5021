package bench

import (
	"yhccl/internal/coll"
	"yhccl/internal/topo"
)

// Fig. 15: YHCCL against the state-of-the-art MPI implementations on NodeA
// (p=64), one panel per collective. The production libraries are
// represented by the algorithm family each uses intra-node (see DESIGN.md
// §1 and EXPERIMENTS.md):
//
//	Intel MPI  -> RG pipelined tree (Jain et al. is Intel's framework)
//	MVAPICH2   -> socket-aware two-level parallel reduction
//	MPICH      -> Rabenseifner / binomial over two-copy shm send/recv
//	Open MPI   -> ring / linear over CMA kernel copies
//	XPMEM      -> Hashmi's direct-access collectives
//
// The buffers are re-touched before every iteration ("we update the
// sending and receiving buffers before each iteration", §5.5), which is
// why kernel-assisted baselines cannot ride a warm cache.

func init() {
	register("fig15a", "Reduce-scatter vs state-of-the-art stand-ins, NodeA p=64", fig15("fig15a", "Reduce-scatter", "reduce-scatter", MsgSizes, []series{
		{"YHCCL", "yhccl"},
		{"DPML", "dpml"},
		{"Intel MPI", "rabenseifner"},
		{"MVAPICH2", "two-level"},
		{"MPICH", "ring"},
		{"Open MPI", "ring"},
		{"XPMEM", "xpmem"},
	}))
	register("fig15b", "Reduce vs state-of-the-art stand-ins, NodeA p=64", fig15("fig15b", "Reduce", "reduce", MsgSizes, []series{
		{"YHCCL", "yhccl"},
		{"RG", "rg"},
		{"Intel MPI", "rg"},
		{"MVAPICH2", "two-level"},
		{"MPICH", "dpml"},
		{"Open MPI", "dpml"},
		{"XPMEM", "xpmem"},
	}))
	register("fig15c", "All-reduce vs state-of-the-art stand-ins, NodeA p=64", fig15("fig15c", "All-reduce", "allreduce", MsgSizes, []series{
		{"YHCCL", "yhccl"},
		{"DPML", "dpml"},
		{"RG", "rg"},
		{"Intel MPI", "rg"},
		{"MVAPICH2", "two-level"},
		{"MPICH", "rabenseifner"},
		{"Open MPI", "cma"},
		{"XPMEM", "xpmem"},
	}))
	register("fig15d", "Broadcast vs state-of-the-art stand-ins, NodeA p=64", fig15("fig15d", "Broadcast", "bcast", MsgSizes, []series{
		{"YHCCL", "pipelined"},
		{"Intel MPI", "binomial"},
		{"MVAPICH2", "binomial"},
		{"MPICH", "binomial"},
		{"Open MPI", "cma"},
		{"XPMEM", "xpmem"},
	}, "XPMEM overtakes YHCCL past the memmove NT threshold (paper §5.5)"))
	register("fig15e", "All-gather vs state-of-the-art stand-ins, NodeA p=64", fig15("fig15e", "All-gather", "allgather", SmallMsgSizes, []series{
		{"YHCCL", "pipelined"},
		{"Intel MPI", "ring"},
		{"MVAPICH2", "ring"},
		{"MPICH", "ring"},
		{"Open MPI", "ring"},
		{"XPMEM", "xpmem"},
	}))
}

// fig15 is one Fig. 15 panel: the collective's stand-ins on NodeA p=64
// with default options, relative to YHCCL.
func fig15(id, title, collective string, sizes func(quick bool) []int64, algs []series, notes ...string) Runner {
	return func(quick bool) (*Figure, error) {
		f := &Figure{
			ID: id, Title: title + " vs state-of-the-art (NodeA, p=64)",
			XLabel: "Msg bytes", XValues: sizes(quick), YLabel: "time (us)", Baseline: "YHCCL",
			Notes: notes,
		}
		f.sweepAlgs(topo.NodeA(), 64, collective, coll.Options{}, algs)
		return f, nil
	}
}
