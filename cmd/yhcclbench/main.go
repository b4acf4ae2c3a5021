// Command yhcclbench regenerates the paper's tables and figures from the
// simulated machines.
//
// Usage:
//
//	yhcclbench -list                 # show all experiment ids
//	yhcclbench -exp fig9a            # regenerate one experiment
//	yhcclbench -exp all              # regenerate everything (slow)
//	yhcclbench -exp fig11a -quick    # 3-point sweep instead of 13
//	yhcclbench -exp all -csv out/    # also write out/<id>.csv per experiment
//	yhcclbench -exp fig9a -cpuprofile cpu.prof
//	yhcclbench -chaos-recover        # supervised fault-injection sweep (exit 1 on gate violation)
//	yhcclbench -exp fig16scale       # cluster-scale sweep on the event engine
//	yhcclbench -scale-gate           # 65536+ rank smoke under wall/memory budgets (exit 1 on violation)
//	yhcclbench -tune -node NodeA -p 64
//	                                 # synthesize the tuned-plan cache into plans/
//	yhcclbench -plan-verify -node NodeA -p 64
//	                                 # beats-or-matches gate vs the figure baselines (exit 1 on regression)
//	yhcclbench -serve                # multi-tenant serving sweep: throughput vs offered load
//	yhcclbench -serve -place spread -rates 10,40 -jobs 60 -v
//	yhcclbench -serve-gate           # serving sweep with a fault tenant (exit 1 on gate violation)
//	yhcclbench -serve-overload       # overload point at 1.5x saturation: bounded queue, deadlines (exit 1 on violation)
//	yhcclbench -chaos-cluster        # cluster-scale fault sweep at 4k-16k ranks (exit 1 on gate violation)
//	yhcclbench -churn                # membership-churn gates: crash->heal->rejoin at 4k ranks plus capacity
//	                                 # shrink/grow serving at 1.2x saturation (exit 1 on violation)
//	yhcclbench -fault-save p.json -fault-shape 64x64 -seed 7
//	                                 # write a seeded cluster fault plan as versioned JSON
//	yhcclbench -fault-plan p.json    # replay a saved fault plan under the matching supervisor
//	yhcclbench -fault-plan p.json -fault-shape 64x64
//	                                 # validate the plan against the declared world before arming
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"yhccl/internal/bench"
	"yhccl/internal/chaos"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		quick    = flag.Bool("quick", false, "trimmed sweeps for smoke runs")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		csvDir   = flag.String("csv", "", "directory to write one <id>.csv per experiment (created if missing)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		recoverF = flag.Bool("chaos-recover", false, "run the fault-injection sweep under the resilient supervisor and exit (nonzero on any recovery-gate violation)")
		scaleF   = flag.Bool("scale-gate", false, "run the cluster-scale smoke gate and exit (nonzero on any budget violation)")
		tuneF    = flag.Bool("tune", false, "synthesize the tuned-plan cache for -node/-p and exit")
		verifyF  = flag.Bool("plan-verify", false, "verify the tuned-plan cache beats or matches every figure baseline and exit (nonzero on regression)")
		nodeF    = flag.String("node", "NodeA", "machine for -tune/-plan-verify: NodeA, NodeB or NodeC")
		ranksF   = flag.Int("p", 64, "rank count for -tune/-plan-verify")
		plansF   = flag.String("plans", "", "plan-cache directory (default: the repository's plans/)")
		seedF    = flag.Uint64("seed", 42, "search seed recorded in the cache (-tune); arrival-stream seed (-serve)")
		serveF   = flag.Bool("serve", false, "run the multi-tenant serving sweep and exit")
		sGateF   = flag.Bool("serve-gate", false, "serving sweep with a fault tenant plus the CI gate: exit 1 on any UNDIAGNOSED job or p99 over budget")
		placeF   = flag.String("place", "auto", "placement policy for -serve: auto, pack or spread")
		ratesF   = flag.String("rates", "", "comma-separated offered loads in jobs/s for -serve (default 5,20,80)")
		jobsF    = flag.Int("jobs", 40, "arrival-stream length for -serve")
		faultsF  = flag.Bool("faults", false, "add a fault-seeded chaos tenant to the -serve mix")
		verboseF = flag.Bool("v", false, "print per-point admission event logs (-serve)")
		overF    = flag.Bool("serve-overload", false, "run the serving overload gate at 1.5x saturation: bounded queue sheds, zero deadline violations among admitted jobs (exit 1 on violation)")
		cChaosF  = flag.Bool("chaos-cluster", false, "run the cluster-scale fault sweep at 4k-16k ranks and exit (nonzero on any cluster-gate violation); -quick restricts to 4096 ranks")
		fSaveF   = flag.String("fault-save", "", "write a seeded fault plan to this JSON file (-fault-shape for a cluster plan, -fault-ranks for a rank plan)")
		fPlanF   = flag.String("fault-plan", "", "replay a saved fault-plan JSON file under the matching resilient supervisor (-fault-shape / -fault-ranks validate the plan against that world before arming)")
		fShapeF  = flag.String("fault-shape", "", "cluster shape NxP (e.g. 64x64) for -fault-save and -fault-plan validation")
		fRanksF  = flag.Int("fault-ranks", 8, "rank count for -fault-save rank plans and -fault-plan validation")
		churnF   = flag.Bool("churn", false, "run the membership-churn gates: cluster crash->heal->rejoin cycles plus capacity shrink/grow serving (exit 1 on violation)")
		churnCyc = flag.Int("churn-cycles", 8, "number of churn cycles for -churn (min 8)")
		churnLd  = flag.Float64("churn-load", 1.2, "serving load multiplier over the saturating rate for -churn")
	)
	flag.Parse()

	if *fSaveF != "" {
		if err := runFaultSave(os.Stdout, *fSaveF, *fShapeF, *fRanksF, *seedF); err != nil {
			fatalf("fault-save: %v", err)
		}
		return
	}
	if *fPlanF != "" {
		ranksSet := flagSet(flag.CommandLine, "fault-ranks")
		if err := runFaultReplay(os.Stdout, *fPlanF, *fShapeF, *fRanksF, ranksSet); err != nil {
			fatalf("fault-plan: %v", err)
		}
		return
	}
	if *churnF {
		if err := runChurn(os.Stdout, *nodeF, *churnCyc, *seedF, *churnLd); err != nil {
			fatalf("churn: %v", err)
		}
		return
	}
	if *cChaosF {
		if bad := chaos.ReportCluster(os.Stdout, chaos.SweepCluster(chaos.DefaultClusterCases(*quick))); bad > 0 {
			os.Exit(1)
		}
		return
	}
	if *overF {
		jobs := overloadJobs(*jobsF, flagSet(flag.CommandLine, "jobs"))
		if err := runServeOverload(os.Stdout, *nodeF, *seedF, jobs); err != nil {
			fatalf("serve-overload: %v", err)
		}
		return
	}

	if *serveF || *sGateF {
		faults := *faultsF || *sGateF
		if err := runServe(os.Stdout, *nodeF, *placeF, *ratesF, *seedF, *jobsF, faults, *sGateF, *verboseF); err != nil {
			fatalf("serve: %v", err)
		}
		return
	}

	if *tuneF {
		if err := runTune(os.Stdout, *nodeF, *ranksF, *plansF, *quick, *seedF); err != nil {
			fatalf("tune: %v", err)
		}
		return
	}
	if *verifyF {
		if err := runPlanVerify(os.Stdout, *nodeF, *ranksF, *plansF, *quick); err != nil {
			fatalf("plan-verify: %v", err)
		}
		return
	}

	if *scaleF {
		if err := bench.ScaleGate(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *recoverF {
		if bad := chaos.ReportRecovery(os.Stdout, chaos.SweepRecover(chaos.DefaultCases())); bad > 0 {
			os.Exit(1)
		}
		return
	}

	if *list || *exp == "" {
		desc := bench.Describe()
		fmt.Println("experiments:")
		for _, id := range bench.IDs() {
			fmt.Printf("  %-14s %s\n", id, desc[id])
		}
		if *exp == "" && !*list {
			fmt.Fprintln(os.Stderr, "\nselect one with -exp <id> (or -exp all)")
			os.Exit(2)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("csv: %v", err)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	for _, id := range ids {
		fig, err := bench.Run(id, *quick)
		if err != nil {
			fatalf("%v", err)
		}
		fig.Fprint(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, fig); err != nil {
				fatalf("csv: %v", err)
			}
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
	}
}

// writeCSV renders one experiment's figure to <dir>/<id>.csv.
func writeCSV(dir, id string, fig *bench.Figure) error {
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fig.FprintCSV(f)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// flagSet reports whether the named flag was given on the command line,
// as opposed to holding its default.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "yhcclbench: "+format+"\n", args...)
	os.Exit(1)
}
