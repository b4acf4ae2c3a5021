package mpi

import (
	"fmt"
	"sort"

	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// Machine binds a node topology, a memory cost model and a set of ranks
// pinned to cores. A Machine persists across Run invocations so that
// communicator resources (shared segments, flags) and cache residency carry
// over between iterations, as they do for a long-lived MPI job.
type Machine struct {
	// Node is the hardware description.
	Node *topo.Node
	// Model is the memory cost model (shared by all ranks).
	Model *memmodel.Model
	// RankCores[i] is the core rank i is pinned to.
	RankCores []int
	// Real selects whether buffers carry actual data (correctness mode) or
	// are model-only (timing mode for paper-scale sweeps).
	Real bool
	// Watchdog overrides the no-progress (livelock) threshold in scheduler
	// switches: 0 uses sim.DefaultWatchdogSwitches, negative disables
	// detection entirely.
	Watchdog int

	world    *Comm
	sockets  []*Comm
	privBufs map[int]map[string]*memmodel.Buffer
	inject   *fault.Injector
	rankOps  []string // op each rank last declared via SetOp, for diagnostics

	// epoch is the membership epoch: 0 at creation, bumped once per
	// membership change (Quarantine rebind, Shrink, Grow). Every communicator
	// is stamped with the epoch it was built under; operations through a
	// communicator from an earlier epoch panic with *EpochError. The check is
	// a single integer compare — zero cost on the healthy path.
	epoch int

	// spareCores are reserved cores no rank is bound to, available for
	// quarantine remaps. Consumed front-to-back by Quarantine.
	spareCores []int
	// slowCores maps a physical core to the straggler factor a fault plan
	// assigned it. Keyed by core — not rank — so that a rank remapped off a
	// slow core escapes the slowdown, exactly like moving a process off a
	// thermally-throttled core.
	slowCores map[int]float64
	// lastClocks holds each rank's final virtual clock from the most recent
	// successful Run, in rank order.
	lastClocks []float64

	// external[s] is the number of co-tenant ranks (other jobs) sharing
	// socket s's bandwidth and LLC (see memmodel.NewShared). Preserved
	// across rebind and Shrink so a quarantined or shrunk tenant stays
	// subject to the same neighbors. Nil for a solo machine.
	external []int

	// tuned is the machine's tuned-plan dispatch state, attached once at
	// creation by the facade (loaded from the plan cache) and consulted by
	// tuned collective calls. Held untyped so this low-level package does
	// not depend on the planning layers; internal/coll owns the concrete
	// type.
	tuned any
}

// NewMachine creates a machine with p ranks block-bound to cores 0..p-1
// (the paper's lscpu-checked compact binding). Real selects data mode.
func NewMachine(node *topo.Node, p int, real bool) *Machine {
	if p <= 0 || p > node.Cores() {
		panic(fmt.Sprintf("mpi: %d ranks do not fit on %s (%d cores)", p, node.Name, node.Cores()))
	}
	cores := make([]int, p)
	for i := range cores {
		cores[i] = i
	}
	return NewMachineWithBinding(node, cores, real)
}

// NewMachineWithBinding creates a machine with an explicit rank-to-core
// binding (for scatter/imbalance studies).
func NewMachineWithBinding(node *topo.Node, rankCores []int, real bool) *Machine {
	return NewMachineWithContention(node, rankCores, nil, real)
}

// NewMachineWithContention creates a machine whose ranks co-tenant a node
// with other jobs: externalPerSocket[s] foreign ranks share socket s's DRAM
// and L3 bandwidth and its LLC capacity (cores stay exclusively leased; see
// memmodel.NewShared). A nil or all-zero slice is exactly
// NewMachineWithBinding. The contention state survives rebind (Quarantine)
// and Shrink: a recovering tenant keeps paying for its neighbors.
func NewMachineWithContention(node *topo.Node, rankCores, externalPerSocket []int, real bool) *Machine {
	m := &Machine{
		Node:      node,
		Model:     memmodel.NewShared(node, rankCores, externalPerSocket),
		RankCores: rankCores,
		Real:      real,
	}
	if externalPerSocket != nil {
		m.external = append([]int(nil), externalPerSocket...)
	}
	m.initComms()
	return m
}

// NewMachineWithSpares creates a machine with p ranks block-bound to cores
// 0..p-1 plus `spares` reserved cores (p..p+spares-1) that carry no rank but
// can absorb one via Quarantine.
func NewMachineWithSpares(node *topo.Node, p, spares int, real bool) *Machine {
	if spares < 0 {
		panic("mpi: negative spare count")
	}
	if p+spares > node.Cores() {
		panic(fmt.Sprintf("mpi: %d ranks + %d spares do not fit on %s (%d cores)",
			p, spares, node.Name, node.Cores()))
	}
	m := NewMachine(node, p, real)
	m.spareCores = make([]int, spares)
	for i := range m.spareCores {
		m.spareCores[i] = p + i
	}
	return m
}

// initComms (re)builds the world and per-socket communicators and clears
// per-rank persistent buffers for the current Model/RankCores. Called at
// construction and again after a rebind, where the old Model's buffers and
// flags must not leak into the new cost model.
func (m *Machine) initComms() {
	m.privBufs = make(map[int]map[string]*memmodel.Buffer)
	// World communicator.
	all := make([]int, len(m.RankCores))
	for i := range all {
		all[i] = i
	}
	m.world = newComm(m, "world", all)
	// Per-socket communicators.
	bySocket := make(map[int][]int)
	for r, core := range m.RankCores {
		s := m.Node.SocketOf(core)
		bySocket[s] = append(bySocket[s], r)
	}
	m.sockets = make([]*Comm, m.Node.Sockets)
	for s := 0; s < m.Node.Sockets; s++ {
		if ranks := bySocket[s]; len(ranks) > 0 {
			m.sockets[s] = newComm(m, fmt.Sprintf("socket%d", s), ranks)
		}
	}
}

// rebind moves the machine onto a new rank-to-core binding: fresh cost model
// (bandwidth shares depend on the binding) and fresh communicator resources.
// Cache residency is deliberately dropped — a remapped process starts cold.
// The membership epoch advances, so communicators fetched before the rebind
// fail fast instead of silently carrying stale flags and segments.
func (m *Machine) rebind(rankCores []int) {
	m.RankCores = rankCores
	m.Model = memmodel.NewShared(m.Node, rankCores, m.external)
	m.epoch++
	m.initComms()
}

// Epoch returns the machine's current membership epoch: 0 at creation,
// incremented by every Quarantine, Shrink and Grow.
func (m *Machine) Epoch() int { return m.epoch }

// adoptEpoch advances a freshly constructed machine to the given epoch and
// restamps its communicators, so that a Shrink/Grow child reports a later
// epoch than its parent rather than resetting to zero.
func (m *Machine) adoptEpoch(e int) {
	m.epoch = e
	m.world.epoch = e
	for _, c := range m.sockets {
		if c != nil {
			c.epoch = e
		}
	}
}

// Spares returns how many spare cores remain available for Quarantine.
func (m *Machine) Spares() int { return len(m.spareCores) }

// Quarantine remaps rank onto the next spare core, retiring the rank's old
// core (it is NOT returned to the spare pool — it is suspect). The straggler
// slowdown armed for the old core stays with the core, so the remapped rank
// escapes it. Returns the core the rank now runs on.
//
// Communicator resources and cache residency are rebuilt from scratch, as a
// real respawn-on-spare would: the recovered run pays cold-cache costs.
func (m *Machine) Quarantine(rank int) (core int, err error) {
	if rank < 0 || rank >= m.Size() {
		return 0, fmt.Errorf("mpi: quarantine rank %d out of range [0,%d)", rank, m.Size())
	}
	if len(m.spareCores) == 0 {
		return 0, fmt.Errorf("mpi: no spare core left to quarantine rank %d", rank)
	}
	core = m.spareCores[0]
	m.spareCores = m.spareCores[1:]
	cores := make([]int, m.Size())
	copy(cores, m.RankCores)
	cores[rank] = core
	m.rebind(cores)
	return core, nil
}

// Shrink builds a new machine over the survivors after excluding the given
// ranks (ULFM MPI_Comm_shrink semantics): survivors keep their cores and are
// renumbered 0..n-1 in old-rank order. The returned slice maps new rank ->
// old rank. Spare cores carry over; the fault plan does not (re-arm a
// Restricted plan on the new machine if faults should persist). The old
// machine remains valid but shares no state with the new one.
func (m *Machine) Shrink(exclude []int) (*Machine, []int, error) {
	excl := make(map[int]bool, len(exclude))
	for _, r := range exclude {
		if r < 0 || r >= m.Size() {
			return nil, nil, fmt.Errorf("mpi: shrink: excluded rank %d out of range [0,%d)", r, m.Size())
		}
		excl[r] = true
	}
	var survivors, cores []int
	for r, core := range m.RankCores {
		if !excl[r] {
			survivors = append(survivors, r)
			cores = append(cores, core)
		}
	}
	if len(survivors) < 2 {
		return nil, nil, fmt.Errorf("mpi: shrink leaves %d rank(s); need at least 2", len(survivors))
	}
	nm := NewMachineWithContention(m.Node, cores, m.external, m.Real)
	nm.Watchdog = m.Watchdog
	nm.spareCores = append([]int(nil), m.spareCores...)
	nm.adoptEpoch(m.epoch + 1)
	return nm, survivors, nil
}

// Grow is the exact dual of Shrink: it builds a new machine whose membership
// is the current ranks plus one new rank per listed core. Existing ranks keep
// their cores and their numbering; the added cores are sorted ascending and
// become ranks n..n+k-1 (new ranks appended in core order), so growing back
// the cores a Shrink removed restores the original binding bit-for-bit. The
// returned slice maps new rank -> old rank, with -1 for the added ranks.
// Cores listed in the spare pool are consumed from it (hot-adding a spare);
// contention state and the watchdog carry over, and the new machine's epoch
// is the parent's plus one. The old machine remains valid but shares no
// state with the new one.
func (m *Machine) Grow(cores []int) (*Machine, []int, error) {
	if len(cores) == 0 {
		return nil, nil, fmt.Errorf("mpi: grow: no cores to add")
	}
	bound := make(map[int]bool, m.Size())
	for _, c := range m.RankCores {
		bound[c] = true
	}
	added := append([]int(nil), cores...)
	sort.Ints(added)
	for i, c := range added {
		switch {
		case c < 0 || c >= m.Node.Cores():
			return nil, nil, fmt.Errorf("mpi: grow: core %d out of range [0,%d)", c, m.Node.Cores())
		case bound[c]:
			return nil, nil, fmt.Errorf("mpi: grow: core %d already carries a rank", c)
		case i > 0 && added[i-1] == c:
			return nil, nil, fmt.Errorf("mpi: grow: core %d listed twice", c)
		}
	}
	newCores := make([]int, 0, m.Size()+len(added))
	newCores = append(newCores, m.RankCores...)
	newCores = append(newCores, added...)
	nm := NewMachineWithContention(m.Node, newCores, m.external, m.Real)
	nm.Watchdog = m.Watchdog
	grown := make(map[int]bool, len(added))
	for _, c := range added {
		grown[c] = true
	}
	for _, c := range m.spareCores {
		if !grown[c] {
			nm.spareCores = append(nm.spareCores, c)
		}
	}
	nm.adoptEpoch(m.epoch + 1)
	oldOf := make([]int, len(newCores))
	for i := range oldOf {
		if i < m.Size() {
			oldOf[i] = i
		} else {
			oldOf[i] = -1
		}
	}
	return nm, oldOf, nil
}

// External returns the per-socket co-tenant rank counts this machine was
// built with (nil for a solo machine).
func (m *Machine) External() []int {
	if m.external == nil {
		return nil
	}
	return append([]int(nil), m.external...)
}

// RankClocks returns each rank's final virtual clock from the most recent
// successful Run (nil if no run has completed). Useful as a per-rank
// progress snapshot: a straggling rank finishes a barrier-free section late.
func (m *Machine) RankClocks() []float64 {
	if m.lastClocks == nil {
		return nil
	}
	return append([]float64(nil), m.lastClocks...)
}

// SetTuning attaches tuned-plan dispatch state (a *coll.Planner) to the
// machine. Called once at machine creation — never per collective call.
func (m *Machine) SetTuning(t any) { m.tuned = t }

// Tuning returns the attached tuned-plan state, or nil when the machine
// runs on hand-tuned dispatch only.
func (m *Machine) Tuning() any { return m.tuned }

// Size returns the number of ranks.
func (m *Machine) Size() int { return len(m.RankCores) }

// World returns the communicator containing every rank.
func (m *Machine) World() *Comm { return m.world }

// SocketComm returns the communicator of ranks bound to socket s (nil if
// the binding placed no ranks there).
func (m *Machine) SocketComm(s int) *Comm { return m.sockets[s] }

// Sockets returns how many sockets have at least one rank.
func (m *Machine) Sockets() int {
	n := 0
	for _, c := range m.sockets {
		if c != nil {
			n++
		}
	}
	return n
}

// SetFaultPlan arms a fault plan for subsequent Run calls (nil or an empty
// plan disarms injection). The plan is validated against the world size so
// a misaddressed fault fails loudly here rather than silently never firing.
func (m *Machine) SetFaultPlan(pl *fault.Plan) error {
	if pl.Empty() {
		m.inject = nil
		m.slowCores = nil
		return nil
	}
	if err := pl.Validate(m.Size()); err != nil {
		return err
	}
	m.inject = fault.NewInjector(pl)
	m.slowCores = nil
	if len(pl.Stragglers) > 0 {
		// Pin each straggler factor to the PHYSICAL core the rank currently
		// occupies. A later Quarantine leaves this map untouched, so the
		// slowdown stays behind on the retired core.
		m.slowCores = make(map[int]float64, len(pl.Stragglers))
		for _, s := range pl.Stragglers {
			m.slowCores[m.RankCores[s.Rank]] = s.Factor
		}
	}
	return nil
}

// Injector returns the active fault injector (nil when no plan is armed).
func (m *Machine) Injector() *fault.Injector { return m.inject }

// Run executes body once per rank under the discrete-event engine and
// returns the simulated makespan (max clock over all ranks). Resources and
// cache residency persist across calls; counters are NOT reset (snapshot
// them around Run if needed).
//
// A failed run — deadlock, watchdog-detected livelock, or a panic in any
// rank's body (including injected crashes) — returns a *RunError carrying
// per-rank diagnostics and, when a fault plan is armed, the faults that
// fired. Run never hangs on a livelocked program and never lets a rank's
// panic escape unattributed.
func (m *Machine) Run(body func(r *Rank)) (makespan float64, err error) {
	e := sim.NewEngine()
	switch {
	case m.Watchdog > 0:
		e.SetWatchdog(m.Watchdog)
	case m.Watchdog == 0:
		e.SetWatchdog(sim.DefaultWatchdogSwitches)
	}
	m.rankOps = make([]string, m.Size())
	inj := m.inject
	if inj != nil {
		inj.BeginRun(m.Size())
	}
	procs := make([]*sim.Proc, m.Size())
	for i := range m.RankCores {
		i := i
		p := e.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			body(&Rank{proc: p, machine: m, id: i})
		})
		procs[i] = p
		if inj != nil {
			if f, ok := m.slowCores[m.RankCores[i]]; ok {
				p.SetSlowdown(f)
				inj.LogStraggler(i, f)
			}
			if s, ok := inj.StallFor(i); ok {
				reason := fmt.Sprintf("fault: injected stall (plan %q)", inj.Plan().Name)
				if s.Crash {
					reason = fmt.Sprintf("plan %q", inj.Plan().Name)
				}
				p.InjectStallAt(s.At, s.Crash, reason)
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			pp, ok := r.(*sim.ProcPanic)
			if !ok {
				panic(r) // not a proc failure: engine misuse, re-raise
			}
			makespan = 0
			err = m.wrapRunError(pp)
		}
	}()
	if rerr := e.Run(); rerr != nil {
		return 0, m.wrapRunError(rerr)
	}
	m.lastClocks = make([]float64, len(procs))
	for i, p := range procs {
		m.lastClocks[i] = p.Now()
	}
	return e.MaxClock(), nil
}

// MustRun is Run that panics on error (deadlocks are programming bugs).
func (m *Machine) MustRun(body func(r *Rank)) float64 {
	t, err := m.Run(body)
	if err != nil {
		panic(err)
	}
	return t
}
