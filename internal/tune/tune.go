// Package tune is the offline collective-schedule synthesizer: it
// enumerates candidate schedules per (topology, ranks, collective,
// message-size bucket) — the hand-written algorithm families as seeds plus
// searched variants (pipeline chunking, copy-policy forcing, RG tree
// degrees, asymmetric-fanout DAGs) — scores every candidate against the
// internal/memmodel cost model through the exact measurement harness the
// figures use, and persists the winners into the versioned plan cache that
// runtime dispatch (coll.Tuned*) consults.
//
// The search is fully deterministic: candidate order is fixed, the
// simulator is bit-exact, and ties resolve toward seeds (a searched variant
// only wins a bucket when strictly faster than every seed). Two cold runs
// with the same seed and topology therefore produce byte-identical caches.
package tune

import (
	"fmt"

	"yhccl/internal/bench"
	"yhccl/internal/coll"
	"yhccl/internal/dav"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
	"yhccl/internal/topo"
)

// Config selects what to tune.
type Config struct {
	// Node and Ranks identify the machine.
	Node  *topo.Node
	Ranks int
	// Quick restricts measurement to the quick-sweep anchor sizes and
	// fills the remaining buckets by nearest-anchor extrapolation — the CI
	// budget. A full run measures every bucket of the paper's sweeps.
	Quick bool
	// Seed is recorded in the cache (the search itself is deterministic;
	// the seed documents provenance for reproduction).
	Seed uint64
	// Progress, when non-nil, receives one line per tuned point.
	Progress func(format string, args ...any)
}

// fanoutMaxBytes bounds the message sizes at which fanout DAG candidates
// are searched: beyond this the graphs' O(p^2) step lists make simulation
// expensive and the copy-volume penalty (2f vs 2 units) rules them out
// anyway.
const fanoutMaxBytes = 4 << 20

// searchSliceKB are the pipeline-slice overrides searched per family.
var searchSliceKB = []int64{64, 128, 256, 512}

// Candidates enumerates the search space for one collective at one message
// size, seeds first, in a fixed deterministic order.
func Candidates(c plan.Coll, node *topo.Node, p int, sBytes int64) []plan.Params {
	var out []plan.Params
	seed := func(families ...string) {
		for _, f := range families {
			out = append(out, plan.Params{Family: f})
		}
	}
	// Seeds: every hand-written family the figures benchmark (registry
	// names). "yhccl" itself is excluded — it is the switch this table
	// replaces, and its two halves are present individually.
	switch c {
	case plan.Allreduce:
		seed("two-level", "socket-ma", "ma", "dpml", "ring", "rabenseifner", "rg", "xpmem", "cma")
	case plan.ReduceScatter:
		seed("two-level", "socket-ma", "ma", "dpml", "ring", "rabenseifner", "xpmem")
	case plan.Reduce:
		seed("two-level", "socket-ma", "ma", "dpml", "rg", "xpmem")
	case plan.Bcast:
		seed("pipelined", "binomial", "xpmem", "cma")
	case plan.Allgather:
		seed("pipelined", "ring", "xpmem")
	}

	// Searched variants around the strongest large-message family.
	tunable := "socket-ma"
	if c == plan.Bcast || c == plan.Allgather {
		tunable = "pipelined"
	}
	defKB := bench.NodeOptions(node).SliceMaxBytes >> 10
	if defKB == 0 {
		defKB = coll.DefaultSliceMaxBytes >> 10
	}
	for _, kb := range searchSliceKB {
		if kb != defKB {
			out = append(out, plan.Params{Family: tunable, SliceKB: kb})
		}
	}
	for _, pol := range []string{"t-copy", "nt-copy"} {
		out = append(out, plan.Params{Family: tunable, Policy: pol})
	}
	if c == plan.Allreduce || c == plan.Reduce {
		for _, k := range []int{3, 4} {
			out = append(out, plan.Params{Family: "rg", RGDegree: k})
		}
	}
	if (c == plan.Allreduce || c == plan.ReduceScatter) && sBytes <= fanoutMaxBytes {
		for _, f := range []int{2, 4, 8} {
			if f <= p/2 {
				out = append(out, plan.Params{Family: "fanout", Fanout: f})
			}
		}
	}
	return out
}

// Measure scores one candidate: the simulated steady-state seconds of the
// collective at sBytes on a fresh machine, through the figure harness.
func Measure(node *topo.Node, p int, c plan.Coll, pr plan.Params, sBytes int64) (float64, error) {
	o := coll.ApplyParams(bench.NodeOptions(node), pr)
	switch c {
	case plan.Allreduce:
		var alg coll.ARFunc
		if pr.Family == "fanout" {
			g, err := plan.AllreduceFromSchedule(schedule.Fanout(p, pr.Fanout))
			if err != nil {
				return 0, err
			}
			alg = func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o coll.Options) {
				coll.AllreduceGraph(r, cm, g, sb, rb, n, op, o)
			}
		} else {
			f, err := coll.Lookup(coll.AllreduceAlgos, pr.Family)
			if err != nil {
				return 0, err
			}
			alg = f
		}
		return bench.MeasureAllreduce(node, p, alg, sBytes, o), nil
	case plan.ReduceScatter:
		var alg coll.RSFunc
		if pr.Family == "fanout" {
			g, err := plan.FromSchedule(schedule.Fanout(p, pr.Fanout))
			if err != nil {
				return 0, err
			}
			alg = func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o coll.Options) {
				coll.ReduceScatterGraph(r, cm, g, sb, rb, n, op, o)
			}
		} else {
			f, err := coll.Lookup(coll.ReduceScatterAlgos, pr.Family)
			if err != nil {
				return 0, err
			}
			alg = f
		}
		return bench.MeasureReduceScatter(node, p, alg, sBytes, o), nil
	case plan.Reduce:
		f, err := coll.Lookup(coll.ReduceAlgos, pr.Family)
		if err != nil {
			return 0, err
		}
		return bench.MeasureReduce(node, p, f, sBytes, o), nil
	case plan.Bcast:
		f, err := coll.Lookup(coll.BcastAlgos, pr.Family)
		if err != nil {
			return 0, err
		}
		return bench.MeasureBcast(node, p, f, sBytes, o), nil
	case plan.Allgather:
		f, err := coll.Lookup(coll.AllgatherAlgos, pr.Family)
		if err != nil {
			return 0, err
		}
		return bench.MeasureAllgather(node, p, f, sBytes, o), nil
	}
	return 0, fmt.Errorf("tune: unknown collective %v", c)
}

// collSizes returns the sweep a collective is tuned over: the paper's
// figure domains (8 KB - 8 MB for all-gather, 64 KB - 256 MB otherwise).
func collSizes(c plan.Coll, quick bool) []int64 {
	if c == plan.Allgather {
		return bench.SmallMsgSizes(quick)
	}
	return bench.MsgSizes(quick)
}

// predictedDAV stamps the winner's closed-form or graph-derived DAV.
func predictedDAV(c plan.Coll, node *topo.Node, p int, pr plan.Params, sBytes int64) int64 {
	if pr.Family == "fanout" {
		var g *plan.Graph
		var err error
		if c == plan.Allreduce {
			g, err = plan.AllreduceFromSchedule(schedule.Fanout(p, pr.Fanout))
		} else {
			g, err = plan.FromSchedule(schedule.Fanout(p, pr.Fanout))
		}
		if err != nil {
			return 0
		}
		return g.DAVBytes(sBytes / int64(p))
	}
	k := pr.RGDegree
	if k == 0 {
		k = 2
	}
	if v, ok := dav.Predicted(c.String(), pr.Family, sBytes, p, node.Sockets, k); ok {
		return v
	}
	return 0
}

// Tune runs the search and returns the populated cache (not yet saved).
func Tune(cfg Config) (*plan.Cache, error) {
	if cfg.Node == nil || cfg.Ranks < 2 {
		return nil, fmt.Errorf("tune: need a node and at least 2 ranks")
	}
	logf := cfg.Progress
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cache := plan.NewCache(cfg.Node, cfg.Ranks, cfg.Seed)
	for _, c := range plan.Colls() {
		sizes := collSizes(c, cfg.Quick)
		measured := map[int]plan.Plan{}
		for _, s := range sizes {
			cands := Candidates(c, cfg.Node, cfg.Ranks, s)
			var (
				bestSeed, best    plan.Params
				bestSeedT, bestT  float64
				haveSeed, haveAny bool
			)
			for _, pr := range cands {
				t, err := Measure(cfg.Node, cfg.Ranks, c, pr, s)
				if err != nil {
					return nil, fmt.Errorf("tune: %s %s at %d: %w", c, pr, s, err)
				}
				if pr.IsDefault() && (!haveSeed || t < bestSeedT) {
					bestSeed, bestSeedT, haveSeed = pr, t, true
				}
				// Strict <: searched variants only displace a seed (or an
				// earlier variant) when strictly faster, so ties resolve to
				// the earliest candidate — seeds first.
				if !haveAny || t < bestT {
					best, bestT, haveAny = pr, t, true
				}
			}
			if !haveSeed || !haveAny {
				return nil, fmt.Errorf("tune: no candidates for %s at %d", c, s)
			}
			source := "seed"
			if !best.IsDefault() {
				source = "searched"
			}
			entry := plan.Plan{
				Collective:       c.String(),
				Bucket:           plan.Bucket(s),
				SizeBytes:        s,
				Params:           best,
				PredictedSeconds: bestT,
				PredictedDAV:     predictedDAV(c, cfg.Node, cfg.Ranks, best, s),
				BestSeed:         bestSeed.Family,
				BestSeedSeconds:  bestSeedT,
				Source:           source,
			}
			measured[entry.Bucket] = entry
			logf("%s %8d B: %-28s %.3es (best seed %s %.3es)",
				c, s, best.String(), bestT, bestSeed.Family, bestSeedT)
		}
		// Fill the full bucket range from the nearest measured anchor, so
		// quick-budget caches still cover every sweep bucket contiguously.
		full := collSizes(c, false)
		lo, hi := plan.Bucket(full[0]), plan.Bucket(full[len(full)-1])
		for b := lo; b <= hi; b++ {
			if e, ok := measured[b]; ok {
				cache.Plans = append(cache.Plans, e)
				continue
			}
			nearest, bestDist := 0, 1<<30
			for mb := range measured {
				d := mb - b
				if d < 0 {
					d = -d
				}
				// Ties resolve to the lower anchor for determinism.
				if d < bestDist || (d == bestDist && mb < nearest) {
					nearest, bestDist = mb, d
				}
			}
			e := measured[nearest]
			e.Bucket = b
			e.SizeBytes = plan.BucketSize(b)
			e.Source = "extrapolated"
			cache.Plans = append(cache.Plans, e)
		}
	}
	cache.Sort()
	return cache, nil
}
