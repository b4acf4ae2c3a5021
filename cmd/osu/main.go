// Command osu is an OSU-micro-benchmark-style driver for the simulated
// collectives, mirroring the artifact's verification flow
// ("mpiexec -n 64 ./osu_allreduce -c -m 65536:268435456").
//
// Usage:
//
//	osu -coll allreduce -np 64 -node NodeA -m 65536:268435456
//	osu -coll reduce-scatter -alg dpml -np 48 -node NodeB -c
//
// -c additionally runs a data-carrying verification pass at a reduced
// size, like the OSU -c flag.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"yhccl/internal/coll"
	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

func main() {
	var (
		collective = flag.String("coll", "allreduce", "collective: allreduce, reduce-scatter, reduce, bcast, allgather, gather, scatter, alltoall, scan")
		alg        = flag.String("alg", "yhccl", "algorithm name (see -algs)")
		np         = flag.Int("np", 64, "number of ranks")
		nodeName   = flag.String("node", "NodeA", "node preset: NodeA, NodeB, NodeC")
		mrange     = flag.String("m", "65536:268435456", "message byte range min:max (doubling)")
		check      = flag.Bool("c", false, "run a data verification pass first")
		stats      = flag.Bool("stats", false, "also print DAV and DRAM-traffic columns")
		traceFile  = flag.String("trace", "", "write a chrome://tracing JSON of the largest size's run")
		algsFlag   = flag.Bool("algs", false, "list algorithms for -coll and exit")
		straggler  = flag.String("straggler", "", "inject a deterministic straggler into the timed runs, as rank:factor (e.g. 3:8)")
	)
	flag.Parse()

	if *algsFlag {
		fmt.Println(strings.Join(coll.Algorithms(*collective), " "))
		return
	}

	node, err := topo.Preset(*nodeName)
	if err != nil {
		fatal(err)
	}
	lo, hi, err := parseRange(*mrange)
	if err != nil {
		fatal(err)
	}
	faults, err := parseStraggler(*straggler, *np)
	if err != nil {
		fatal(err)
	}

	if *check {
		if err := verify(node, *np, *collective, *alg); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Println("# verification passed")
	}

	fmt.Printf("# OSU-style %s, %s, np=%d, algorithm=%s (simulated time)\n",
		*collective, node.Name, *np, *alg)
	if faults != nil {
		fmt.Printf("# %v\n", faults)
	}
	if *stats {
		fmt.Printf("%-12s %14s %12s %12s %10s\n", "# Size", "Avg Latency(us)", "DAV(MB)", "DRAM(MB)", "syncs")
	} else {
		fmt.Printf("%-12s %14s\n", "# Size", "Avg Latency(us)")
	}
	for s := lo; s <= hi; s *= 2 {
		trace := *traceFile != "" && s*2 > hi // only the largest size
		t, counters, tr, err := measure(node, *np, *collective, *alg, s, trace, faults)
		if err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Printf("%-12d %14.2f %12d %12d %10d\n",
				s, t*1e6, counters.DAV()>>20, counters.DRAMTraffic>>20, counters.SyncCount)
		} else {
			fmt.Printf("%-12d %14.2f\n", s, t*1e6)
		}
		if tr != nil {
			f, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			if err := tr.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("# trace (%d events) written to %s\n", tr.Len(), *traceFile)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "osu:", err)
	os.Exit(1)
}

func parseRange(s string) (int64, int64, error) {
	parts := strings.SplitN(s, ":", 2)
	lo, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	hi := lo
	if len(parts) == 2 {
		hi, err = strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q", s)
		}
	}
	if lo < 8 || hi < lo {
		return 0, 0, fmt.Errorf("range %q must satisfy 8 <= min <= max", s)
	}
	return lo, hi, nil
}

// parseStraggler turns a "rank:factor" spec into a one-straggler fault plan
// (nil when the spec is empty). The rank must name one of the np ranks and
// the factor must be a positive finite slowdown — a spec that falls outside
// those bounds is rejected here rather than silently arming nothing.
func parseStraggler(s string, np int) (*fault.Plan, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -straggler %q, want rank:factor", s)
	}
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad -straggler rank %q", parts[0])
	}
	if rank < 0 || rank >= np {
		return nil, fmt.Errorf("-straggler rank %d outside 0..%d (np=%d)", rank, np-1, np)
	}
	factor, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, fmt.Errorf("bad -straggler factor %q", parts[1])
	}
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 0 {
		return nil, fmt.Errorf("-straggler factor %v must be positive and finite", factor)
	}
	return &fault.Plan{
		Name:       "cli-straggler",
		Stragglers: []fault.Straggler{{Rank: rank, Factor: factor}},
	}, nil
}

// measure returns steady-state simulated seconds and the measured
// iteration's counters at message bytes s, optionally tracing it.
func measure(node *topo.Node, np int, collective, alg string, s int64, trace bool, faults *fault.Plan) (float64, memmodel.Counters, *sim.Tracer, error) {
	m := mpi.NewMachine(node, np, false)
	if err := m.SetFaultPlan(faults); err != nil {
		return 0, memmodel.Counters{}, nil, err
	}
	body, err := makeBody(np, collective, alg, s)
	if err != nil {
		return 0, memmodel.Counters{}, nil, err
	}
	m.MustRun(body) // warm-up
	var tr *sim.Tracer
	if trace {
		tr = sim.NewTracer()
		m.Model.SetTracer(tr)
	}
	before := m.Model.Counters()
	t := m.MustRun(body)
	m.Model.SetTracer(nil)
	return t, m.Model.Counters().Sub(before), tr, nil
}

// makeBody builds the timed per-rank body at message bytes s: n = s/8
// elements per rank (n/np per block for reduce-scatter), Sum, root 0,
// default options. Every rank warms its send buffer first (scatter: only
// the root, whose buffer is the input); all-reduce also warms its receive
// buffer.
func makeBody(np int, collective, alg string, s int64) (func(r *mpi.Rank), error) {
	n := max(s/memmodel.ElemSize, 1)
	if collective == "reduce-scatter" {
		n = max(n/int64(np), 1)
	}
	call := coll.Call{Coll: collective, Params: plan.Params{Family: alg}, N: n}
	_, f, err := call.Bind(np)
	if err != nil {
		return nil, err
	}
	return func(r *mpi.Rank) {
		sb, rb := call.Buffers(np, "osu/", r.PersistentBuffer)
		if collective != "scatter" || r.ID() == call.Root {
			r.Warm(sb, 0, sb.Elems)
		}
		if collective == "allreduce" {
			r.Warm(rb, 0, rb.Elems)
		}
		f(r, r.World(), sb, rb)
	}, nil
}

// verify runs the collective with real data at a small size and checks
// every element of every rank's output.
func verify(node *topo.Node, np int, collective, alg string) error {
	call := coll.Call{Coll: collective, Params: plan.Params{Family: alg}, N: 1024}
	_, f, err := call.Bind(np)
	if err != nil {
		return err
	}
	bases := coll.SumBases(np)
	errs := make([]error, np)
	m := mpi.NewMachine(node, np, true)
	m.MustRun(func(r *mpi.Rank) {
		sb, rb := call.Buffers(np, "v/", r.NewBuffer)
		call.Fill(r, sb, bases)
		f(r, r.World(), sb, rb)
		errs[r.ID()] = call.Validate(collective+"/"+alg, r.ID(), sb, rb, bases)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
