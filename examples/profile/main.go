// Profile: the PMPI-style profiling tool of the paper's §5.1 — wrap an
// application's collectives, collect per-call simulated latency and memory
// traffic, and print the summary that tells you which collective, at which
// size, is worth switching to YHCCL.
package main

import (
	"fmt"
	"log"
	"os"

	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/profile"
	"yhccl/internal/topo"
)

func main() {
	const p = 16
	m := mpi.NewMachine(topo.NodeA(), p, true)
	prof := profile.New(m)

	// A little synthetic "application": a time loop mixing collectives of
	// different sizes, the pattern a profiler would see in MiniAMR-like
	// codes.
	const big = int64(1 << 18)   // 2 MB
	const small = int64(1 << 10) // 8 KB
	const steps = 5
	// The last step fills rank r's gradient with r+steps-1+i, so its sum is
	// exact and checkable.
	bases := make([]float64, p)
	for i := range bases {
		bases[i] = float64(i + steps - 1)
	}
	m.MustRun(func(r *mpi.Rank) {
		grad := r.NewBuffer("grad", big)
		gsum := r.NewBuffer("gsum", big)
		flags := r.NewBuffer("flags", small)
		fsum := r.NewBuffer("fsum", small)
		for step := 0; step < steps; step++ {
			r.FillPattern(grad, float64(r.ID()+step))
			prof.Wrap(r, "allreduce(grad)", big*memmodel.ElemSize, func() {
				coll.AllreduceYHCCL(r, r.World(), grad, gsum, big, mpi.Sum, coll.Options{})
			})
			prof.Wrap(r, "allreduce(flags)", small*memmodel.ElemSize, func() {
				coll.AllreduceYHCCL(r, r.World(), flags, fsum, small, mpi.Sum, coll.Options{})
			})
			if step%2 == 0 {
				prof.Wrap(r, "bcast(config)", small*memmodel.ElemSize, func() {
					coll.BcastPipelined(r, r.World(), flags, small, 0, coll.Options{})
				})
			}
		}
		if err := coll.ValidateAllreduceSum("allreduce(grad)", r.ID(), gsum, big, bases); err != nil {
			log.Fatal(err)
		}
	})

	fmt.Println("PMPI-style collective profile (16 ranks, NodeA, simulated):")
	prof.Fprint(os.Stdout)

	samples := prof.Samples()
	fmt.Printf("\n%d individual samples collected; first allreduce(grad): %.1f us, DAV %d MB\n",
		len(samples), samples[0].Seconds*1e6, samples[0].Counters.DAV()>>20)
}
