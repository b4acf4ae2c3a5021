// Cluster-level fault plans. Rank-level plans (fault.go) target individual
// procs on one machine; at 4k-262k ranks the unit of failure is the *node*:
// a whole node crashes, its NIC lane degrades, its clock runs slow, or one
// phase of the compiled schedule emits a corrupted payload. A ClusterPlan is
// the same kind of plain, replayable data as a Plan — no wall-clock
// randomness, Validate before arming, and an event log of what actually
// fired — but its faults are keyed by node id and integer event-engine
// ticks instead of rank id and float virtual time.
package fault

import (
	"errors"
	"fmt"
	"sort"
)

var (
	// ErrPlanShape marks a plan applied to a world of a different shape than
	// the one it was generated for.
	ErrPlanShape = errors.New("fault: plan/shape mismatch")
	// ErrPlanRange marks a plan whose fault addresses a node, rank, tick or
	// phase outside the target world, or carries a factor outside its range.
	ErrPlanRange = errors.New("fault: plan fault out of range")
)

// ClusterShape describes the world a cluster plan targets: Nodes homogeneous
// nodes of PerNode ranks each. Plans are validated against a shape before
// they are armed so a saved plan cannot silently target the wrong sweep.
type ClusterShape struct {
	Nodes   int
	PerNode int
}

// Ranks returns the world size the shape describes.
func (sh ClusterShape) Ranks() int { return sh.Nodes * sh.PerNode }

func (sh ClusterShape) String() string {
	return fmt.Sprintf("%dx%d", sh.Nodes, sh.PerNode)
}

// NodeCrash poisons every state machine on one node at a virtual tick: steps
// that would complete at or after AtTick never complete, the calendar drains,
// and the run ends with a diagnosis naming the dead node.
type NodeCrash struct {
	Node   int
	AtTick int64
}

// LinkDegrade multiplies the cost of every inter-node hop that touches the
// node's NIC lane (hops executed by the node's ranks, or whose producer sits
// on the node) by Factor > 1 — a congested or renegotiated-down link.
type LinkDegrade struct {
	Node   int
	Factor float64
}

// NodeStraggler dilates virtual time for everything scheduled on one node:
// every step duration charged to the node's ranks is multiplied by Factor
// > 1. This is the node-level analogue of a rank Straggler (a thermally
// throttled or OS-jittered node).
type NodeStraggler struct {
	Node   int
	Factor float64
}

// PhaseCorrupt marks the payload a node contributes to one phase of the
// compiled schedule as transiently corrupted: the run completes but its
// result diverges at that node/phase. Phase indexes the canonical
// three-phase cluster composition: 0 = intra phase A (node-local reduce),
// 1 = inter phase (cross-node exchange), 2 = intra phase C (node-local
// bcast/gather). Like rank-level bit flips, the fault is transient — it is
// consumed by the run it fires in and a retry runs clean.
type PhaseCorrupt struct {
	Node  int
	Phase int
}

// ClusterPhases is the number of phases in the compiled cluster composition
// a PhaseCorrupt can target.
const ClusterPhases = 3

// NodeHeal returns a crashed node to service: once the supervised runs have
// accumulated AtTick of virtual time, the next recovery point rejoins the
// node to the membership (fresh cluster over the enlarged world, epoch bump)
// instead of leaving the cluster permanently shrunk. Heals are consumed by
// the supervisor between runs, never by the run itself — a heal alone
// injects nothing.
type NodeHeal struct {
	Node   int
	AtTick int64
}

// LinkHeal restores a degraded NIC lane: once the supervised runs have
// accumulated AtTick of virtual time, the lane's LinkDegrade stops applying
// and a reroute taken to dodge it is undone (the original algorithm is
// recompiled). Like NodeHeal, it is a supervisor-level event.
type LinkHeal struct {
	Node   int
	AtTick int64
}

// ClusterPhaseName names a PhaseCorrupt phase index for diagnostics.
func ClusterPhaseName(phase int) string {
	switch phase {
	case 0:
		return "intra-reduce"
	case 1:
		return "inter"
	case 2:
		return "intra-gather"
	}
	return fmt.Sprintf("phase%d", phase)
}

// ClusterPlan is a complete, replayable node-level fault scenario for one
// compiled-schedule run on the event engine.
type ClusterPlan struct {
	Name         string
	Seed         uint64 // seed the plan was generated from, 0 if hand-written
	Shape        ClusterShape
	Crashes      []NodeCrash
	LinkDegrades []LinkDegrade
	Stragglers   []NodeStraggler
	Corruptions  []PhaseCorrupt

	// Heals and LinkHeals are supervisor-level recovery events (see NodeHeal
	// and LinkHeal); they inject nothing into a run. Tagged omitempty so
	// heal-free plans keep the exact on-disk canonical body (and checksum)
	// they had before heals existed.
	Heals     []NodeHeal `json:"Heals,omitempty"`
	LinkHeals []LinkHeal `json:"LinkHeals,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (pl *ClusterPlan) Empty() bool {
	return pl == nil || (len(pl.Crashes) == 0 && len(pl.LinkDegrades) == 0 &&
		len(pl.Stragglers) == 0 && len(pl.Corruptions) == 0)
}

// String renders a compact human-readable summary of the plan.
func (pl *ClusterPlan) String() string {
	if pl.Empty() {
		return "fault: empty cluster plan"
	}
	s := fmt.Sprintf("cluster fault plan %q (%s):", pl.Name, pl.Shape)
	for _, c := range pl.Crashes {
		s += fmt.Sprintf(" node-crash(node%d at tick %d)", c.Node, c.AtTick)
	}
	for _, d := range pl.LinkDegrades {
		s += fmt.Sprintf(" link-degrade(node%d x%g)", d.Node, d.Factor)
	}
	for _, st := range pl.Stragglers {
		s += fmt.Sprintf(" node-straggler(node%d x%g)", st.Node, st.Factor)
	}
	for _, c := range pl.Corruptions {
		s += fmt.Sprintf(" phase-corrupt(node%d %s)", c.Node, ClusterPhaseName(c.Phase))
	}
	for _, h := range pl.Heals {
		s += fmt.Sprintf(" node-heal(node%d at tick %d)", h.Node, h.AtTick)
	}
	for _, h := range pl.LinkHeals {
		s += fmt.Sprintf(" link-heal(node%d at tick %d)", h.Node, h.AtTick)
	}
	return s
}

// maxClusterFactor caps LinkDegrade and NodeStraggler factors. An armed run
// multiplies integer tick durations by them, and the largest makespan any
// sweep compiles is about 1.5e12 ticks (the 64 MB leader-tree all-reduce on
// 4096x64 ranks), so even a node both degraded and straggling at the cap
// stays under a fifth of the int64 tick range. The sweeps' plans and
// generators use factors of at most 16.
const maxClusterFactor = 1000

// Validate checks the plan against a cluster shape, rejecting out-of-range
// nodes, invalid factors, and shape mismatches before they can confuse a run.
func (pl *ClusterPlan) Validate(shape ClusterShape) error {
	if pl == nil {
		return nil
	}
	if pl.Shape != (ClusterShape{}) && pl.Shape != shape {
		return fmt.Errorf("%w: cluster plan targets shape %s, world is %s", ErrPlanShape, pl.Shape, shape)
	}
	nodes := shape.Nodes
	for _, c := range pl.Crashes {
		if c.Node < 0 || c.Node >= nodes {
			return fmt.Errorf("%w: node-crash node %d outside cluster of %d nodes", ErrPlanRange, c.Node, nodes)
		}
		if c.AtTick < 0 {
			return fmt.Errorf("%w: node-crash node %d at negative tick %d", ErrPlanRange, c.Node, c.AtTick)
		}
	}
	for _, d := range pl.LinkDegrades {
		if d.Node < 0 || d.Node >= nodes {
			return fmt.Errorf("%w: link-degrade node %d outside cluster of %d nodes", ErrPlanRange, d.Node, nodes)
		}
		if !(d.Factor >= 1 && d.Factor <= maxClusterFactor) {
			return fmt.Errorf("%w: link-degrade node %d has invalid factor %v (want 1..%d)", ErrPlanRange, d.Node, d.Factor, maxClusterFactor)
		}
	}
	for _, st := range pl.Stragglers {
		if st.Node < 0 || st.Node >= nodes {
			return fmt.Errorf("%w: node-straggler node %d outside cluster of %d nodes", ErrPlanRange, st.Node, nodes)
		}
		if !(st.Factor >= 1 && st.Factor <= maxClusterFactor) {
			return fmt.Errorf("%w: node-straggler node %d has invalid factor %v (want 1..%d)", ErrPlanRange, st.Node, st.Factor, maxClusterFactor)
		}
	}
	for _, c := range pl.Corruptions {
		if c.Node < 0 || c.Node >= nodes {
			return fmt.Errorf("%w: phase-corrupt node %d outside cluster of %d nodes", ErrPlanRange, c.Node, nodes)
		}
		if c.Phase < 0 || c.Phase >= ClusterPhases {
			return fmt.Errorf("%w: phase-corrupt node %d targets phase %d (want 0..%d)", ErrPlanRange, c.Node, c.Phase, ClusterPhases-1)
		}
	}
	for _, h := range pl.Heals {
		if h.Node < 0 || h.Node >= nodes {
			return fmt.Errorf("%w: node-heal node %d outside cluster of %d nodes", ErrPlanRange, h.Node, nodes)
		}
		if h.AtTick < 0 {
			return fmt.Errorf("%w: node-heal node %d at negative tick %d", ErrPlanRange, h.Node, h.AtTick)
		}
	}
	for _, h := range pl.LinkHeals {
		if h.Node < 0 || h.Node >= nodes {
			return fmt.Errorf("%w: link-heal node %d outside cluster of %d nodes", ErrPlanRange, h.Node, nodes)
		}
		if h.AtTick < 0 {
			return fmt.Errorf("%w: link-heal node %d at negative tick %d", ErrPlanRange, h.Node, h.AtTick)
		}
	}
	return nil
}

// Class buckets a plan by the fault kinds it contains: "healthy" for an
// empty plan, one of "node-crash", "link-degrade", "node-straggler",
// "phase-corrupt" when a single kind is present, and "mixed" otherwise. The
// cluster recovery gate is keyed per class: node-crash and link-degrade must
// always be recoverable (recompile / reroute), phase-corrupt by bounded
// retry, while mixed seeded plans are only required to end diagnosed.
func (pl *ClusterPlan) Class() string {
	if pl.Empty() {
		return "healthy"
	}
	kinds := 0
	name := ""
	if len(pl.Crashes) > 0 {
		kinds, name = kinds+1, "node-crash"
	}
	if len(pl.LinkDegrades) > 0 {
		kinds, name = kinds+1, "link-degrade"
	}
	if len(pl.Stragglers) > 0 {
		kinds, name = kinds+1, "node-straggler"
	}
	if len(pl.Corruptions) > 0 {
		kinds, name = kinds+1, "phase-corrupt"
	}
	if kinds != 1 {
		return "mixed"
	}
	return name
}

// ClusterEvent records one cluster fault that actually fired (or was armed)
// during an event-engine run. Tick is the engine tick the event is pinned
// to: arming events carry tick 0, crashes the poison tick, corruptions the
// completion tick of the corrupted phase step.
type ClusterEvent struct {
	Kind   string // "node-crash", "link-degrade", "node-straggler", "phase-corrupt"
	Node   int
	Phase  int // phase-corrupt only; -1 otherwise
	Tick   int64
	Detail string
}

func (ev ClusterEvent) String() string {
	return fmt.Sprintf("%s node%d at tick %d: %s", ev.Kind, ev.Node, ev.Tick, ev.Detail)
}

// ClusterInjector applies one ClusterPlan to one event-engine run, keeping
// the fired-event log. Arming and firing are both fully deterministic, so
// two cold runs of the same plan produce byte-identical logs.
type ClusterInjector struct {
	plan   *ClusterPlan
	events []ClusterEvent
}

// NewClusterInjector builds an injector for the plan (which may be nil or
// empty: every hook then becomes a no-op).
func NewClusterInjector(plan *ClusterPlan) *ClusterInjector {
	return &ClusterInjector{plan: plan}
}

// Plan returns the plan the injector applies.
func (in *ClusterInjector) Plan() *ClusterPlan { return in.plan }

// BeginRun resets the per-run event log.
func (in *ClusterInjector) BeginRun() { in.events = in.events[:0] }

// LogArmed records that a persistent node fault (link-degrade or
// node-straggler) was armed on the run, mirroring how rank-level straggler
// arming is logged at spawn.
func (in *ClusterInjector) LogArmed(kind string, node int, factor float64) {
	in.log(ClusterEvent{Kind: kind, Node: node, Phase: -1,
		Detail: fmt.Sprintf("armed x%g", factor)})
}

// LogCrash records that a node's state machines were poisoned at tick.
func (in *ClusterInjector) LogCrash(node int, tick int64, ranksDead int) {
	in.log(ClusterEvent{Kind: "node-crash", Node: node, Phase: -1, Tick: tick,
		Detail: fmt.Sprintf("poisoned %d ranks", ranksDead)})
}

// LogCorrupt records that a node's phase payload was corrupted at the tick
// the phase step completed.
func (in *ClusterInjector) LogCorrupt(node, phase int, tick int64) {
	in.log(ClusterEvent{Kind: "phase-corrupt", Node: node, Phase: phase, Tick: tick,
		Detail: fmt.Sprintf("payload diverges in %s phase", ClusterPhaseName(phase))})
}

// Events returns what actually fired this run, in firing order.
func (in *ClusterInjector) Events() []ClusterEvent { return in.events }

func (in *ClusterInjector) log(ev ClusterEvent) { in.events = append(in.events, ev) }

// GenClusterPlan derives a replayable cluster fault plan from a seed for the
// given shape. The same (seed, shape, horizonTicks) always yields the same
// plan. Each seed picks one or two fault kinds with distinct victim nodes:
// crashes land uniformly inside the tick horizon, link degrades get factors
// in [2, 16), node stragglers in [1.5, 8), and phase corruptions pick a
// uniform phase of the three-phase composition.
func GenClusterPlan(seed uint64, shape ClusterShape, horizonTicks int64) *ClusterPlan {
	pl := &ClusterPlan{Name: fmt.Sprintf("cseed%d", seed), Seed: seed, Shape: shape}
	if shape.Nodes <= 0 {
		return pl
	}
	rng := splitmix64(seed)
	rng.next() // decorrelate consecutive seeds

	base := rng.intn(shape.Nodes) // base offset; kinds pick distinct offsets
	victim := func(k int) int { return (base + k) % shape.Nodes }

	kinds := 1 + rng.intn(2)
	for k := 0; k < kinds; k++ {
		switch rng.intn(4) {
		case 0:
			at := int64(0)
			if horizonTicks > 0 {
				at = int64(rng.float64() * float64(horizonTicks))
			}
			pl.Crashes = append(pl.Crashes, NodeCrash{Node: victim(k), AtTick: at})
		case 1:
			pl.LinkDegrades = append(pl.LinkDegrades, LinkDegrade{
				Node:   victim(k),
				Factor: 2 + 14*rng.float64(),
			})
		case 2:
			pl.Stragglers = append(pl.Stragglers, NodeStraggler{
				Node:   victim(k),
				Factor: 1.5 + 6.5*rng.float64(),
			})
		case 3:
			pl.Corruptions = append(pl.Corruptions, PhaseCorrupt{
				Node:  victim(k),
				Phase: rng.intn(ClusterPhases),
			})
		}
	}
	dedupeCluster(pl)
	return pl
}

// GenChurnPlan derives a replayable crash→heal churn scenario from a seed:
// one node crashes inside the first half of the tick horizon and is healed
// immediately (heal tick 0, so the first recovery point after the recompiled
// run rejoins it). The same (seed, shape, horizonTicks) always yields the
// same plan. Kept separate from GenClusterPlan so the existing seeded-plan
// corpus stays byte-reproducible.
func GenChurnPlan(seed uint64, shape ClusterShape, horizonTicks int64) *ClusterPlan {
	pl := &ClusterPlan{Name: fmt.Sprintf("churn%d", seed), Seed: seed, Shape: shape}
	if shape.Nodes <= 0 {
		return pl
	}
	rng := splitmix64(seed)
	rng.next() // decorrelate consecutive seeds, as GenClusterPlan does
	victim := rng.intn(shape.Nodes)
	at := int64(0)
	if horizonTicks > 0 {
		at = int64(rng.float64() * float64(horizonTicks) / 2)
	}
	pl.Crashes = append(pl.Crashes, NodeCrash{Node: victim, AtTick: at})
	pl.Heals = append(pl.Heals, NodeHeal{Node: victim, AtTick: 0})
	return pl
}

// dedupeCluster keeps at most one fault of each kind per node and orders
// faults by node so plan rendering is stable.
func dedupeCluster(pl *ClusterPlan) {
	seenC := map[int]bool{}
	cr := pl.Crashes[:0]
	for _, c := range pl.Crashes {
		if !seenC[c.Node] {
			seenC[c.Node] = true
			cr = append(cr, c)
		}
	}
	pl.Crashes = cr
	seenD := map[int]bool{}
	dg := pl.LinkDegrades[:0]
	for _, d := range pl.LinkDegrades {
		if !seenD[d.Node] {
			seenD[d.Node] = true
			dg = append(dg, d)
		}
	}
	pl.LinkDegrades = dg
	seenS := map[int]bool{}
	st := pl.Stragglers[:0]
	for _, s := range pl.Stragglers {
		if !seenS[s.Node] {
			seenS[s.Node] = true
			st = append(st, s)
		}
	}
	pl.Stragglers = st
	seenP := map[int]bool{}
	co := pl.Corruptions[:0]
	for _, c := range pl.Corruptions {
		if !seenP[c.Node] {
			seenP[c.Node] = true
			co = append(co, c)
		}
	}
	pl.Corruptions = co
	sort.Slice(pl.Crashes, func(i, j int) bool { return pl.Crashes[i].Node < pl.Crashes[j].Node })
	sort.Slice(pl.LinkDegrades, func(i, j int) bool { return pl.LinkDegrades[i].Node < pl.LinkDegrades[j].Node })
	sort.Slice(pl.Stragglers, func(i, j int) bool { return pl.Stragglers[i].Node < pl.Stragglers[j].Node })
	sort.Slice(pl.Corruptions, func(i, j int) bool { return pl.Corruptions[i].Node < pl.Corruptions[j].Node })
}
