// Tuning: the persistent tuned-plan cache in action — load the synthesized
// plans for NodeA p=64 (committed under plans/, regenerate with `make
// tune`), print the tuner-derived small/large algorithm switch against the
// paper's hand-tuned 256 KB threshold, and replay a sweep comparing each
// plan's predicted time against a fresh measurement through the tuned
// dispatch. Then the adaptive-copy decision surface (Algorithm 1): for
// each copy policy, sweep the message size through the W > C switch point
// and show where the NT stores start paying off.
package main

import (
	"fmt"

	"yhccl"
	"yhccl/internal/bench"
	"yhccl/internal/coll"
	"yhccl/internal/plan"
)

func main() {
	node := yhccl.NodeA()
	const p = 64

	// 1. The tuned-plan cache: load-once, O(1) per-call dispatch.
	dir := yhccl.PlanDir()
	cache, err := plan.Load(dir, node, p)
	if err != nil {
		fmt.Printf("no tuned plans for %s p=%d (%v)\nrun `make tune` first; continuing with the copy-policy sweep\n\n", node.Name, p, err)
	} else {
		table, err := cache.Table()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s p=%d: %d tuned plans (cache %s, checksum %s)\n",
			node.Name, p, len(cache.Plans), plan.FileName(node.Name, p), cache.Checksum)

		// The paper hand-tunes the small/large switch to 256 KB (§5.1); the
		// tuner re-derives it from the plans as the largest size the
		// parallel-reduction class still wins.
		if sw, ok := table.SwitchBytes(plan.Allreduce); ok {
			fmt.Printf("derived all-reduce switch: %d KB (paper's hand-tuned value: %d KB, bucket distance %d)\n\n",
				sw>>10, int64(coll.DefaultSwitchSmallBytes)>>10,
				plan.Bucket(coll.DefaultSwitchSmallBytes)-plan.Bucket(sw))
		}

		// Predicted vs measured: every plan's PredictedSeconds came from the
		// same steady-state harness the figures use, so re-measuring the
		// tuned dispatch reproduces it exactly — the cache is a memoization,
		// not an approximation.
		planner := coll.NewPlanner(table)
		fmt.Printf("%-9s %-28s %12s %12s  (all-reduce, NodeA p=64)\n", "msg", "plan", "predicted", "measured")
		for _, s := range []int64{64 << 10, 1 << 20, 16 << 20, 256 << 20} {
			entry := table.Lookup(plan.Allreduce, s)
			measured, err := bench.Measure(node, p, coll.Call{Coll: "allreduce", Planner: planner, Options: bench.NodeOptions(node)}, s)
			if err != nil {
				panic(err)
			}
			if entry.Source != "extrapolated" && measured != entry.PredictedSeconds {
				panic(fmt.Sprintf("%d KB: measured %v s, the cache predicted %v s", s>>10, measured, entry.PredictedSeconds))
			}
			fmt.Printf("%6dKB  %-28s %10.3es %10.3es\n",
				s>>10, entry.Params.String(), entry.PredictedSeconds, measured)
		}
		fmt.Println()
	}

	// 2. The adaptive-copy decision surface. The socket-aware MA all-reduce
	// working set is W = 2sp + m*p*Imax; solving W > C gives the message
	// size where adaptive-copy starts using NT stores.
	imax := int64(256 << 10)
	C := node.AvailableCache(p)
	switchBytes := (C - int64(node.Sockets)*int64(p)*imax) / int64(2*p)
	fmt.Printf("%s: available cache C = %d MB, predicted NT switch at %d KB\n\n",
		node.Name, C>>20, switchBytes>>10)

	policies := []struct {
		name string
		pol  yhccl.Policy
	}{
		{"adaptive", yhccl.Adaptive},
		{"t-copy", yhccl.TCopy},
		{"nt-copy", yhccl.NTCopy},
		{"memmove", yhccl.Memmove},
	}

	fmt.Printf("%-9s", "msg")
	for _, pp := range policies {
		fmt.Printf(" %10s", pp.name)
	}
	fmt.Println(" (all-reduce us, NodeA p=64)")

	for s := int64(512 << 10); s <= 16<<20; s *= 2 {
		n := s / 8
		fmt.Printf("%6dKB ", s>>10)
		for _, pp := range policies {
			o := yhccl.Options{}.WithPolicy(pp.pol)
			m := yhccl.NewMachine(node, p, false)
			run := func() float64 {
				return m.MustRun(func(r *yhccl.Rank) {
					sb := r.PersistentBuffer("sb", n)
					rb := r.PersistentBuffer("rb", n)
					r.Warm(sb, 0, n)
					r.Warm(rb, 0, n)
					if err := yhccl.Exec(r, yhccl.Req{Collective: "allreduce", Alg: "socket-ma", Send: sb, Recv: rb, Count: n, Options: o}); err != nil {
						panic(err)
					}
				})
			}
			run()
			fmt.Printf(" %9.0fu", run()*1e6)
		}
		fmt.Println()
	}
	fmt.Println("\nadaptive follows t-copy below the switch and nt-copy above it")
}
