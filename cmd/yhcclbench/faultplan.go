package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"yhccl/internal/chaos"
	"yhccl/internal/cluster"
	"yhccl/internal/fault"
	"yhccl/internal/resilient"
)

// Fault-plan files: -fault-save generates a seeded plan (rank-level with
// -fault-ranks, cluster-level with -fault-shape NxP) and writes it as a
// versioned, checksummed JSON file; -fault-plan loads such a file and
// replays it under the matching resilient supervisor, so a failure seen
// in a sweep is reproducible from one small artifact.

// genHorizonTicks matches the virtual-time scale DefaultClusterCases
// generates seeded plans over, so saved cluster plans land mid-run.
const genHorizonTicks = 1_000_000

// parseShape converts a "NxP" -fault-shape value.
func parseShape(s string) (fault.ClusterShape, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 2 {
		return fault.ClusterShape{}, fmt.Errorf("bad shape %q (want NxP, e.g. 64x64)", s)
	}
	nodes, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	per, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil || nodes < 2 || per < 1 {
		return fault.ClusterShape{}, fmt.Errorf("bad shape %q (want NxP with N>=2, P>=1)", s)
	}
	return fault.ClusterShape{Nodes: nodes, PerNode: per}, nil
}

// runFaultSave generates a plan from the seed and writes it to path.
// shapeCSV selects a cluster plan; otherwise ranks selects a rank plan.
func runFaultSave(w io.Writer, path, shapeCSV string, ranks int, seed uint64) error {
	if shapeCSV != "" {
		shape, err := parseShape(shapeCSV)
		if err != nil {
			return err
		}
		pl := fault.GenClusterPlan(seed, shape, genHorizonTicks)
		if err := fault.SaveClusterPlan(path, pl); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote cluster plan %s (seed %d, shape %s):\n%s\n", path, seed, shape, pl)
		return nil
	}
	if ranks < 2 {
		return fmt.Errorf("-fault-save needs -fault-shape NxP or -fault-ranks >= 2")
	}
	pl := fault.GenPlan(seed, ranks, 2e-4)
	if err := fault.SavePlan(path, pl, ranks); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote rank plan %s (seed %d, %d ranks):\n%s\n", path, seed, ranks, pl)
	return nil
}

// runFaultReplay loads a plan file and replays it under the matching
// supervisor: a rank plan through the recovery sweep's reference
// allreduce, a cluster plan through the cluster supervisor at the plan's
// shape. When the caller pins a world (-fault-shape for cluster plans,
// an explicit -fault-ranks for rank plans), the plan is validated against
// it BEFORE anything is armed — a plan whose node ids or ticks fall
// outside the declared world is rejected with the fault package's typed
// errors (fault.ErrPlanShape / fault.ErrPlanRange), not armed and left to
// misfire. Returns an error when the replay violates the recovery gate.
func runFaultReplay(w io.Writer, path, shapeCSV string, ranks int, ranksSet bool) error {
	pf, err := fault.LoadPlanFile(path)
	if err != nil {
		return err
	}
	switch {
	case pf.Rank != nil:
		if ranksSet {
			if err := pf.Rank.Validate(ranks); err != nil {
				return fmt.Errorf("plan %s does not fit -fault-ranks %d: %w", path, ranks, err)
			}
		}
		fmt.Fprintf(w, "replaying rank plan %s on %d ranks:\n%s\n\n", path, pf.Ranks, pf.Rank)
		res := chaos.RunRecover(chaos.Case{
			Collective: "allreduce", Algo: "yhccl",
			Ranks: pf.Ranks, Elems: 4096, Plan: pf.Rank,
		})
		if bad := chaos.ReportRecovery(w, []chaos.RecoveryResult{res}); bad > 0 {
			return fmt.Errorf("replay: %d recovery-gate violations", bad)
		}
	case pf.Cluster != nil:
		if shapeCSV != "" {
			shape, err := parseShape(shapeCSV)
			if err != nil {
				return err
			}
			if err := pf.Cluster.Validate(shape); err != nil {
				return fmt.Errorf("plan %s does not fit -fault-shape %s: %w", path, shape, err)
			}
		}
		sh := pf.Cluster.Shape
		fmt.Fprintf(w, "replaying cluster plan %s at %s:\n%s\n\n", path, sh, pf.Cluster)
		res := chaos.RunCluster(chaos.ClusterCase{
			Name: pf.Cluster.Name, Nodes: sh.Nodes, PerNode: sh.PerNode,
			Job: resilient.ClusterJob{
				Coll: cluster.CollAllreduce, Alg: cluster.YHCCLHierarchical, Elems: 1 << 16,
			},
			Plan: pf.Cluster,
		})
		bad := replayGate(res, resilient.DefaultClusterPolicy())
		if n := chaos.ReportClusterJudged(w, []chaos.ClusterResult{res}, bad); n > 0 {
			return fmt.Errorf("replay: %d cluster-gate violations", n)
		}
	}
	return nil
}

// replayGate judges one replayed cluster plan. At the shapes the cluster
// chaos sweep runs (chaos.DefaultClusterCases) it is the sweep's gate,
// chaos.ClusterRecoveryGate. At any other shape two of that gate's rules
// do not apply. Its per-rank memory budgets are sized for those shapes,
// where a run's fixed costs spread over thousands of ranks: the replay
// prints the figures without counting them. And it requires every node
// crash to recover, but pol refuses a recompile that would leave fewer
// than MinNodes nodes: such a crash is an accepted Unrecoverable outcome.
// At every shape an UNDIAGNOSED outcome, an unrecovered link degrade, a
// healthy case that is not clean and goroutine growth stay violations.
func replayGate(r chaos.ClusterResult, pol resilient.ClusterPolicy) []string {
	for _, c := range chaos.DefaultClusterCases(false) {
		if c.Nodes == r.Case.Nodes && c.PerNode == r.Case.PerNode {
			return chaos.ClusterRecoveryGate([]chaos.ClusterResult{r})
		}
	}
	var bad []string
	rep := r.Report
	switch rep.Outcome {
	case resilient.Undiagnosed:
		bad = append(bad, fmt.Sprintf("UNDIAGNOSED: %s: %v", r.Case, rep.Err))
	case resilient.Unrecoverable:
		if cl := r.Case.Class(); cl == "link-degrade" || cl == "node-crash" && !tooFewSurvivors(rep, pol) {
			bad = append(bad, fmt.Sprintf("unrecoverable %s plan: %s: %v", cl, r.Case, rep.Err))
		}
	}
	if r.Case.Class() == "healthy" && rep.Outcome != resilient.CleanPass {
		bad = append(bad, fmt.Sprintf("healthy case not clean: %s: %s", r.Case, rep.Outcome))
	}
	if r.GoroutineDelta > 2 {
		bad = append(bad, fmt.Sprintf("memory: %s: goroutine count grew by %d (arming must not spawn goroutines)",
			r.Case, r.GoroutineDelta))
	}
	return bad
}

// tooFewSurvivors reports whether a report ended on dead nodes whose
// exclusion would leave fewer than pol.MinNodes nodes, the recompile the
// policy refuses.
func tooFewSurvivors(rep resilient.ClusterReport, pol resilient.ClusterPolicy) bool {
	var cerr *cluster.ClusterRunError
	return errors.As(rep.Err, &cerr) && len(cerr.DeadNodes) > 0 &&
		rep.FinalNodes-len(cerr.DeadNodes) < pol.MinNodes
}
