// Cluster-scale recovery. Supervise (resilient.go) recovers individual
// ranks inside one machine; SuperviseCluster recovers whole nodes of a
// compiled-schedule run on the event engine. The unit of repair is the
// schedule itself: a dead node is survived by recompiling the program over
// the remaining nodes (node-level survivor renumbering — ring lanes and
// leader trees are rebuilt from the Compile* templates, exactly like a
// ULFM shrink one level up), a degraded lane is survived by rerouting the
// inter phase onto a binomial tree that crosses the slow lane O(log N)
// times instead of O(N), and a transient phase corruption is survived by a
// bounded retry with the fired corruption consumed.
package resilient

import (
	"errors"
	"fmt"
	"sort"

	"yhccl/internal/cluster"
	"yhccl/internal/fault"
	"yhccl/internal/sim"
)

const (
	// RecoveredRecompile: the schedule was recompiled over the surviving
	// nodes after a node crash and the re-run completed.
	RecoveredRecompile Outcome = "recovered-by-recompile"
	// RecoveredReroute: the inter phase was switched to a tree avoiding the
	// degraded lane, beating the degraded makespan.
	RecoveredReroute Outcome = "recovered-by-reroute"
	// RecoveredClusterRetry: a bounded re-run consumed a transient phase
	// corruption and completed clean.
	RecoveredClusterRetry Outcome = "recovered-by-retry"
	// DegradedPass: the run completed correct-but-slow under a degraded
	// lane or straggler node and no reroute could improve it; the
	// degradation is fully diagnosed in the report.
	DegradedPass Outcome = "degraded-pass"
	// RecoveredRejoin: after recompiling around a crash, a NodeHeal event
	// fired and the healed node was rejoined at a recovery point — fresh
	// cluster over the enlarged membership, epoch bump — and the full-size
	// re-run completed.
	RecoveredRejoin Outcome = "recovered-by-rejoin"
	// DegradedPassShrunk: the job completed on the shrunken membership while
	// a heal for an excluded node existed but was never taken — rejoin
	// disabled by policy, or the heal tick never arrived. Honest
	// classification: the pass is real but the cluster is still down nodes
	// it could have recovered.
	DegradedPassShrunk Outcome = "degraded-pass-shrunk"
)

// ClusterJob names one compiled collective to supervise.
type ClusterJob struct {
	Coll  string // cluster.CollAllreduce, CollBcast, CollAllgather
	Alg   cluster.Algorithm
	Elems int64
	Opts  cluster.ScheduleOptions
}

func (j ClusterJob) String() string {
	return fmt.Sprintf("%s/%s n=%d", j.Coll, j.Alg, j.Elems)
}

// ClusterPolicy bounds the cluster supervisor's recovery chain.
type ClusterPolicy struct {
	// MaxAttempts caps total armed runs (initial attempt included).
	MaxAttempts int
	// MaxRetries caps corruption-consuming re-runs.
	MaxRetries int
	// AllowRecompile enables recompiling the schedule around dead nodes.
	AllowRecompile bool
	// AllowReroute enables switching the inter phase to a lane-avoiding
	// tree when a degraded lane or straggler node fired.
	AllowReroute bool
	// AllowRejoin enables rejoining healed nodes (plan NodeHeal events) at
	// the recovery point after a successful post-recompile run. Disabled,
	// a pending heal downgrades the outcome to DegradedPassShrunk.
	AllowRejoin bool
	// MinNodes refuses recompiles that would leave fewer nodes than this.
	MinNodes int
}

// DefaultClusterPolicy returns the policy the cluster chaos sweep uses.
func DefaultClusterPolicy() ClusterPolicy {
	return ClusterPolicy{
		MaxAttempts:    6,
		MaxRetries:     2,
		AllowRecompile: true,
		AllowReroute:   true,
		AllowRejoin:    true,
		MinNodes:       2,
	}
}

// ClusterAttempt records one armed run.
type ClusterAttempt struct {
	// Action is what the supervisor did before this attempt: "initial",
	// "retry", "recompile", "reroute", "rejoin", or "link-heal".
	Action string
	// Nodes is the cluster size, Epoch the membership epoch, and Alg the
	// composition of this attempt.
	Nodes int
	Epoch int
	Alg   cluster.Algorithm
	// Makespan of a completed run in ticks (0 on halt).
	Makespan sim.Tick
	// Events are the injector events that fired during this attempt.
	Events []fault.ClusterEvent
	// Err is the run diagnosis (nil when the attempt completed clean).
	Err error
}

// ClusterReport is the cluster supervisor's verdict.
type ClusterReport struct {
	Job      ClusterJob
	Shape    fault.ClusterShape
	Outcome  Outcome
	Attempts []ClusterAttempt
	// ExcludedNodes lists the ORIGINAL node ids recompiled around, in
	// exclusion order (history — a later rejoin does not remove entries).
	ExcludedNodes []int
	// RejoinedNodes lists the ORIGINAL node ids healed back into the
	// membership, in rejoin order.
	RejoinedNodes []int
	// HealedLinks lists the ORIGINAL node ids whose degraded lanes a
	// LinkHeal restored (undoing a reroute).
	HealedLinks []int
	// FinalEpoch is the membership epoch of the final attempt: 0 when the
	// membership never changed, +1 per recompile or rejoin.
	FinalEpoch int
	// Makespan of the final successful attempt in ticks (0 if none).
	Makespan sim.Tick
	// DegradedMakespan is the completed-but-slow makespan a reroute was
	// measured against (0 when no reroute was attempted).
	DegradedMakespan sim.Tick
	// FinalAlg and FinalNodes describe the composition that produced the
	// final result.
	FinalAlg   cluster.Algorithm
	FinalNodes int
	// Err is the last diagnosis when the job did not recover.
	Err error
}

func (r ClusterReport) String() string {
	s := fmt.Sprintf("%s @%s: %s after %d attempt(s)", r.Job, r.Shape, r.Outcome, len(r.Attempts))
	if len(r.ExcludedNodes) > 0 {
		s += fmt.Sprintf(", excluded nodes %v", r.ExcludedNodes)
	}
	if len(r.RejoinedNodes) > 0 {
		s += fmt.Sprintf(", rejoined nodes %v (epoch %d)", r.RejoinedNodes, r.FinalEpoch)
	}
	if len(r.HealedLinks) > 0 {
		s += fmt.Sprintf(", healed links %v", r.HealedLinks)
	}
	if r.FinalAlg != "" && r.FinalAlg != r.Job.Alg {
		s += fmt.Sprintf(", rerouted to %s", r.FinalAlg)
	}
	return s
}

// rerouteAlg picks the composition that minimizes traffic over one node's
// lane: the binomial leader tree crosses any given lane O(log N) times where
// the rings cross it O(N). Returns the input when no lane-avoiding
// alternative exists for the collective (the tree compositions of bcast are
// already trees; allgather has no tree inter phase).
func rerouteAlg(coll string, alg cluster.Algorithm) cluster.Algorithm {
	if coll == cluster.CollAllreduce && alg != cluster.LeaderTree {
		return cluster.LeaderTree
	}
	if coll == cluster.CollBcast && alg == cluster.YHCCLHierarchical {
		return cluster.LeaderTree
	}
	return alg
}

// firedPersistent reports whether a degraded lane or straggler node was
// armed on the run (those faults fire by arming — they always affect every
// run under the plan).
func firedPersistent(events []fault.ClusterEvent) bool {
	for _, ev := range events {
		if ev.Kind == "link-degrade" || ev.Kind == "node-straggler" {
			return true
		}
	}
	return false
}

// membership is the supervisor's elastic-membership bookkeeping: which
// original nodes are in the current world, what the base plan has already
// spent, and how much supervised virtual time has accumulated (the clock
// heal ticks are measured against).
type membership struct {
	base     *fault.ClusterPlan
	perNode  int
	members  []int        // original node ids, in current cluster order
	excluded map[int]bool // original ids currently out of the membership

	consumedCrash   map[int]int     // orig id -> crash entries consumed
	consumedCorrupt map[[2]int]bool // (orig id, phase) corruption consumed
	healedLinks     map[int]bool    // orig id -> LinkDegrade healed away
	healsUsed       map[int]int     // orig id -> NodeHeal entries consumed
	cumTicks        int64           // virtual ticks across all attempts
}

func newMembership(base *fault.ClusterPlan, nodes, perNode int) *membership {
	st := &membership{
		base:            base,
		perNode:         perNode,
		members:         make([]int, nodes),
		excluded:        map[int]bool{},
		consumedCrash:   map[int]int{},
		consumedCorrupt: map[[2]int]bool{},
		healedLinks:     map[int]bool{},
		healsUsed:       map[int]int{},
	}
	for i := range st.members {
		st.members[i] = i
	}
	return st
}

// plan derives the fault plan for the current membership from the base
// plan: unconsumed faults of member nodes, renumbered to current ids.
// Heals are supervisor-level and never enter a derived plan. Crash entries
// are consumed individually, so a plan may schedule a second crash on a
// node that was healed back in.
func (st *membership) plan() *fault.ClusterPlan {
	if st.base.Empty() {
		return st.base
	}
	curID := make(map[int]int, len(st.members))
	for i, orig := range st.members {
		curID[orig] = i
	}
	out := &fault.ClusterPlan{Name: st.base.Name, Seed: st.base.Seed,
		Shape: fault.ClusterShape{Nodes: len(st.members), PerNode: st.perNode}}
	crashSeen := map[int]int{}
	for _, c := range st.base.Crashes {
		idx := crashSeen[c.Node]
		crashSeen[c.Node]++
		if cur, ok := curID[c.Node]; ok && idx >= st.consumedCrash[c.Node] {
			out.Crashes = append(out.Crashes, fault.NodeCrash{Node: cur, AtTick: c.AtTick})
		}
	}
	for _, d := range st.base.LinkDegrades {
		if cur, ok := curID[d.Node]; ok && !st.healedLinks[d.Node] {
			out.LinkDegrades = append(out.LinkDegrades, fault.LinkDegrade{Node: cur, Factor: d.Factor})
		}
	}
	for _, s := range st.base.Stragglers {
		if cur, ok := curID[s.Node]; ok {
			out.Stragglers = append(out.Stragglers, fault.NodeStraggler{Node: cur, Factor: s.Factor})
		}
	}
	for _, c := range st.base.Corruptions {
		if cur, ok := curID[c.Node]; ok && !st.consumedCorrupt[[2]int{c.Node, c.Phase}] {
			out.Corruptions = append(out.Corruptions, fault.PhaseCorrupt{Node: cur, Phase: c.Phase})
		}
	}
	return out
}

// healTicks returns the AtTicks of the base plan's NodeHeal entries for one
// original node, in plan order.
func (st *membership) healTicks(orig int) []int64 {
	var ticks []int64
	for _, h := range st.base.Heals {
		if h.Node == orig {
			ticks = append(ticks, h.AtTick)
		}
	}
	return ticks
}

// eligibleHeals returns the excluded original node ids whose next unused
// NodeHeal entry has matured (AtTick <= cumTicks), sorted ascending.
func (st *membership) eligibleHeals() []int {
	var out []int
	for orig := range st.excluded {
		ticks := st.healTicks(orig)
		used := st.healsUsed[orig]
		if used < len(ticks) && ticks[used] <= st.cumTicks {
			out = append(out, orig)
		}
	}
	sort.Ints(out)
	return out
}

// hasUnusedHeal reports whether any currently excluded node still has an
// unused NodeHeal entry — the honest-classification trigger: the plan
// offered the node back and the supervisor finished without it.
func (st *membership) hasUnusedHeal() bool {
	for orig := range st.excluded {
		if st.healsUsed[orig] < len(st.healTicks(orig)) {
			return true
		}
	}
	return false
}

// rejoin appends the healed nodes to the membership (in ascending original
// id, the node-level image of Grow's append-in-core-order) and consumes
// their heal entries.
func (st *membership) rejoin(healed []int) {
	for _, orig := range healed {
		st.members = append(st.members, orig)
		delete(st.excluded, orig)
		st.healsUsed[orig]++
	}
}

// exclude drops the dead current-id nodes from the membership, consuming
// one crash entry each, and returns their original ids.
func (st *membership) exclude(deadCur []int) []int {
	dead := make(map[int]bool, len(deadCur))
	origs := make([]int, 0, len(deadCur))
	for _, n := range deadCur {
		dead[n] = true
		orig := st.members[n]
		origs = append(origs, orig)
		st.excluded[orig] = true
		st.consumedCrash[orig]++
	}
	kept := st.members[:0]
	for n, orig := range st.members {
		if !dead[n] {
			kept = append(kept, orig)
		}
	}
	st.members = kept
	return origs
}

// consumeCorruptEvents marks every phase corruption an event log shows
// fired, keyed by original node id.
func (st *membership) consumeCorruptEvents(events []fault.ClusterEvent) {
	for _, ev := range events {
		if ev.Kind == "phase-corrupt" && ev.Node >= 0 && ev.Node < len(st.members) {
			st.consumedCorrupt[[2]int{st.members[ev.Node], ev.Phase}] = true
		}
	}
}

// eligibleLinkHeals returns the original ids of member nodes whose degraded
// lane has a matured LinkHeal, sorted ascending.
func (st *membership) eligibleLinkHeals() []int {
	member := make(map[int]bool, len(st.members))
	for _, orig := range st.members {
		member[orig] = true
	}
	degraded := map[int]bool{}
	for _, d := range st.base.LinkDegrades {
		degraded[d.Node] = true
	}
	var out []int
	for _, h := range st.base.LinkHeals {
		if member[h.Node] && degraded[h.Node] && !st.healedLinks[h.Node] && h.AtTick <= st.cumTicks {
			out = append(out, h.Node)
		}
	}
	sort.Ints(out)
	return out
}

// rejected classes an error that stopped a run before it started. A plan
// rejected for its shape or for a fault out of range — by Validate, or by
// RunArmed when it maps the plan onto the program (a corruption of a node
// that runs no step) — is diagnosed by construction: Unrecoverable, with
// the typed error. Any other such error is Undiagnosed.
func rejected(err error) Outcome {
	if errors.Is(err, fault.ErrPlanShape) || errors.Is(err, fault.ErrPlanRange) {
		return Unrecoverable
	}
	return Undiagnosed
}

// SuperviseCluster runs the compiled job under the plan until it completes
// (possibly on a recompiled, rerouted or re-grown schedule) or the policy
// is exhausted. With a nil/empty plan it is pass-through: one run, no
// wrapper, makespan bit-identical to the healthy event-engine path.
//
// The recovery ladder: a dead node is recompiled around (survivor
// renumbering); once a post-recompile run succeeds, any matured NodeHeal
// rejoins its node at that recovery point — a fresh cluster over the
// enlarged membership at a bumped epoch, re-verified by a full re-run
// (RecoveredRejoin). A heal that exists but is never taken (policy or
// tick) downgrades the pass to DegradedPassShrunk. A matured LinkHeal
// undoes a winning reroute: the degrade is dropped and the original
// algorithm recompiled and re-run instead of leaving the reroute permanent.
func SuperviseCluster(c *cluster.Cluster, job ClusterJob, plan *fault.ClusterPlan, pol ClusterPolicy) ClusterReport {
	shape := fault.ClusterShape{Nodes: c.Nodes, PerNode: c.PerNode}
	rep := ClusterReport{Job: job, Shape: shape, FinalAlg: job.Alg, FinalNodes: c.Nodes,
		FinalEpoch: c.Epoch}
	if err := plan.Validate(shape); err != nil {
		rep.Outcome, rep.Err = rejected(err), err
		return rep
	}
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = 1
	}

	cur := c
	alg := job.Alg
	st := newMembership(plan, c.Nodes, c.PerNode)
	action := "initial"
	retries := 0
	rerouted := false

	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		prog, err := cur.Compile(job.Coll, alg, job.Elems, job.Opts)
		if err != nil {
			rep.Outcome, rep.Err = Undiagnosed, err
			return rep
		}
		curPlan := st.plan()
		run, rerr := cluster.RunArmed(prog, curPlan, 0)
		at := ClusterAttempt{Action: action, Nodes: cur.Nodes, Epoch: cur.Epoch,
			Alg: alg, Events: run.Events, Err: rerr}
		if rerr == nil {
			at.Makespan = run.Res.Makespan
		}
		rep.Attempts = append(rep.Attempts, at)
		rep.FinalAlg, rep.FinalNodes, rep.FinalEpoch = alg, cur.Nodes, cur.Epoch

		if rerr == nil {
			st.cumTicks += int64(run.Res.Makespan)

			// Recovery point. Matured heals rejoin first: membership
			// restoration outranks route tuning, and the rejoined run is
			// re-verified by the next loop iteration.
			if pol.AllowRejoin {
				if healed := st.eligibleHeals(); len(healed) > 0 {
					st.rejoin(healed)
					rep.RejoinedNodes = append(rep.RejoinedNodes, healed...)
					cur = cluster.New(cur.Node, len(st.members), cur.PerNode, cur.Net)
					cur.Epoch = rep.FinalEpoch + 1
					action = "rejoin"
					continue
				}
			}

			// If a persistent lane/node degradation fired and a lane-avoiding
			// composition exists, try it once and keep the better schedule.
			if firedPersistent(run.Events) && !rerouted && pol.AllowReroute {
				if alt := rerouteAlg(job.Coll, alg); alt != alg {
					rerouted = true
					rep.DegradedMakespan = run.Res.Makespan
					altProg, err := cur.Compile(job.Coll, alt, job.Elems, job.Opts)
					if err == nil {
						altRun, altErr := cluster.RunArmed(altProg, curPlan, 0)
						altAt := ClusterAttempt{Action: "reroute", Nodes: cur.Nodes,
							Epoch: cur.Epoch, Alg: alt, Events: altRun.Events, Err: altErr}
						if altErr == nil {
							altAt.Makespan = altRun.Res.Makespan
						}
						rep.Attempts = append(rep.Attempts, altAt)
						if altErr == nil && altRun.Res.Makespan < run.Res.Makespan {
							st.cumTicks += int64(altRun.Res.Makespan)
							rep.FinalAlg = alt
							// A matured LinkHeal undoes the reroute: drop the
							// healed degrade and re-run the original algorithm.
							if healedLinks := st.eligibleLinkHeals(); len(healedLinks) > 0 {
								for _, orig := range healedLinks {
									st.healedLinks[orig] = true
								}
								rep.HealedLinks = append(rep.HealedLinks, healedLinks...)
								healProg, err := cur.Compile(job.Coll, alg, job.Elems, job.Opts)
								if err == nil {
									healRun, healErr := cluster.RunArmed(healProg, st.plan(), 0)
									healAt := ClusterAttempt{Action: "link-heal", Nodes: cur.Nodes,
										Epoch: cur.Epoch, Alg: alg, Events: healRun.Events, Err: healErr}
									if healErr == nil {
										healAt.Makespan = healRun.Res.Makespan
									}
									rep.Attempts = append(rep.Attempts, healAt)
									if healErr == nil {
										st.cumTicks += int64(healRun.Res.Makespan)
										rep.Outcome, rep.Makespan = RecoveredReroute, healRun.Res.Makespan
										rep.FinalAlg = alg
										return rep
									}
								}
							}
							rep.Outcome, rep.Makespan = RecoveredReroute, altRun.Res.Makespan
							return rep
						}
					}
				}
				// No improving reroute: the degraded run stands, diagnosed.
				if action == "initial" {
					rep.Outcome, rep.Makespan = DegradedPass, run.Res.Makespan
					return rep
				}
			}
			rep.Makespan = run.Res.Makespan
			switch action {
			case "initial":
				if firedPersistent(run.Events) {
					rep.Outcome = DegradedPass
				} else {
					rep.Outcome = CleanPass
				}
			case "retry":
				rep.Outcome = RecoveredClusterRetry
			case "recompile":
				rep.Outcome = RecoveredRecompile
			case "rejoin":
				rep.Outcome = RecoveredRejoin
			default:
				rep.Outcome = CleanPass
			}
			// Honest classification: finishing shrunk while the plan offered
			// the node back (rejoin disabled, or the heal never matured) is
			// not a full recovery.
			if (action == "recompile" || action == "retry") &&
				len(st.excluded) > 0 && st.hasUnusedHeal() {
				rep.Outcome = DegradedPassShrunk
			}
			return rep
		}

		var cerr *cluster.ClusterRunError
		if !errors.As(rerr, &cerr) {
			rep.Outcome, rep.Err = rejected(rerr), rerr
			return rep
		}

		switch {
		case len(cerr.DeadNodes) > 0:
			if !pol.AllowRecompile || cur.Nodes-len(cerr.DeadNodes) < pol.MinNodes {
				rep.Outcome, rep.Err = Unrecoverable, cerr
				return rep
			}
			st.cumTicks += int64(cerr.HaltTick)
			st.consumeCorruptEvents(run.Events)
			rep.ExcludedNodes = append(rep.ExcludedNodes, st.exclude(cerr.DeadNodes)...)
			// Survivor renumbering at the node level: a fresh compile over
			// the remaining nodes rebuilds every ring lane and leader tree
			// from the intra templates, one epoch up.
			cur = cluster.New(cur.Node, len(st.members), cur.PerNode, cur.Net)
			cur.Epoch = rep.FinalEpoch + 1
			action = "recompile"

		case cerr.CorruptNode >= 0:
			if retries >= pol.MaxRetries {
				rep.Outcome, rep.Err = Unrecoverable, cerr
				return rep
			}
			retries++
			// The corrupted run completed (wrong): its full makespan burned.
			st.cumTicks += int64(run.Res.Makespan)
			st.consumeCorruptEvents(run.Events)
			action = "retry"

		default:
			rep.Outcome, rep.Err = Undiagnosed, cerr
			return rep
		}
	}
	rep.Outcome = Unrecoverable
	if rep.Err == nil && len(rep.Attempts) > 0 {
		rep.Err = rep.Attempts[len(rep.Attempts)-1].Err
	}
	return rep
}
