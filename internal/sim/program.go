// Compiled step programs: the shared schedule representation both engines
// execute.
//
// A Program describes, per rank, an ordered sequence of steps; each step has
// an integer-tick duration and dependencies on other ranks' step
// completions. Step/chunk-structured collectives (MA chains, RG trees,
// socket-aware compositions, inter-node rings) compile to this form
// directly, with the step logic computed procedurally from (rank, step) so
// nothing proportional to ranks x steps is ever materialized. One Step call
// answers everything an interpreter needs about a step — whether it exists,
// its dependencies and its duration — so an implementation resolves where
// the step sits in its schedule once per call.
//
// The completion-time semantics are defined once, engine-independently:
//
//	C[r][s] = max(C[r][s-1], max over deps d of C[d]) + dur(r, s)
//
// Both interpreters realize exactly this recurrence with exact integer
// arithmetic — the event engine natively on ticks, the coroutine engine by
// advancing float clocks in whole-tick units (integers below 2^53 are exact
// in float64) — so a parity gate can demand tick-identical makespans.
package sim

import (
	"fmt"
	"strings"
)

// Program is a compiled step schedule over a set of ranks.
//
// Steps of one rank execute strictly in order. Implementations must be
// pure: the same (rank, step) always yields the same answer, and a call may
// be suspended inside visit (the coroutine interpreter blocks there) while
// other calls run.
type Program interface {
	// Ranks returns the number of ranks (state machines).
	Ranks() int
	// Step describes one step of a rank. ok is false once step is past the
	// rank's last step, and visit is then not called. Otherwise Step calls
	// visit for each dependency of (rank, step) in a fixed deterministic
	// order, stopping early when visit returns false, and returns the
	// step's integer-tick duration. A dependency with depStep < 0 means
	// "ready at time zero" and is skipped.
	Step(rank, step int, visit func(depRank, depStep int) bool) (dur Tick, ok bool)
}

// EngineKind selects the simulation core a program runs on.
type EngineKind int

const (
	// EngineCoroutine is the iter.Pull coroutine engine: one goroutine
	// stack per rank, the exact reference for intra-node runs.
	EngineCoroutine EngineKind = iota
	// EngineEvent is the event-calendar engine: flat O(1) memory per rank,
	// zero goroutines per rank, the scale substrate.
	EngineEvent
)

// ProgramResult reports one program execution.
type ProgramResult struct {
	// Makespan is the latest step completion tick.
	Makespan Tick
	// StepsRun is the total number of steps completed across all ranks.
	StepsRun uint64
	// Events is the number of calendar events dispatched (event engine
	// only; zero under the coroutine engine).
	Events uint64
}

// RunProgram executes a program on the selected engine.
func RunProgram(kind EngineKind, p Program) (ProgramResult, error) {
	switch kind {
	case EngineCoroutine:
		return RunProgramCoroutine(p)
	case EngineEvent:
		return RunProgramEvent(p)
	}
	return ProgramResult{}, fmt.Errorf("sim: unknown engine kind %d", int(kind))
}

// ProgramDeadlockError reports a program whose dependency graph cannot
// complete: some ranks remain waiting with an empty calendar.
type ProgramDeadlockError struct {
	Finished int
	Total    int
	// Waiting samples up to eight stuck ranks as "rank@step->dep".
	Waiting []string
}

func (e *ProgramDeadlockError) Error() string {
	return fmt.Sprintf("sim: program deadlock, %d of %d ranks finished; waiting: %s",
		e.Finished, e.Total, strings.Join(e.Waiting, ", "))
}

// programRunner is the event-engine interpreter state: a few words per rank
// and at most one calendar entry per rank. The waiter lists are intrusive
// (index-linked through waitNext), so steady-state execution allocates
// nothing.
type programRunner struct {
	prog     Program
	engine   *EventEngine
	done     []int32 // completed step count per rank
	waitHead []int32 // first rank waiting on this rank (-1 none)
	waitNext []int32 // next waiter in the list this rank is enqueued on
	waitNeed []int32 // done-count the waiting rank requires of its target
	finished int

	// attempt scratch, threaded through the pre-bound visit closure so the
	// per-step dependency scan allocates nothing.
	scanBlocked int32
	scanNeed    int32
	visitFn     func(depRank, depStep int) bool
	handleFn    func(now Tick, actor, data int32)
	makespan    Tick

	// Optional fault arming (program_fault.go). All nil/zero on the healthy
	// path, where the added branches are never taken — completion times are
	// bit-identical to an unarmed run.
	crash     []Tick // poison tick per rank, -1 = healthy
	dead      []bool // ranks whose state machine was poisoned
	deadCount int
	horizon   Tick // no-progress watchdog; 0 = none
	halted    bool
	haltNow   Tick
	notify    func(rank, step int32, now Tick)
	onDead    func(rank int32, at Tick)
}

// RunProgramEvent executes a program on the event-calendar engine: no
// goroutines, flat per-rank state (done counter + one intrusive wait link),
// one completion event in flight per rank.
func RunProgramEvent(p Program) (ProgramResult, error) {
	return runProgramEvent(p, nil)
}

func runProgramEvent(p Program, f *ProgramFaults) (ProgramResult, error) {
	R := p.Ranks()
	r := &programRunner{
		prog:     p,
		engine:   NewEventEngine(),
		done:     make([]int32, R),
		waitHead: make([]int32, R),
		waitNext: make([]int32, R),
		waitNeed: make([]int32, R),
	}
	for i := 0; i < R; i++ {
		r.waitHead[i] = -1
		r.waitNext[i] = -1
	}
	if f != nil {
		if f.CrashTick != nil {
			if len(f.CrashTick) != R {
				return ProgramResult{}, fmt.Errorf("sim: crash ticks for %d ranks, program has %d", len(f.CrashTick), R)
			}
			r.crash = f.CrashTick
			r.dead = make([]bool, R)
		}
		r.horizon = f.Horizon
		r.notify = f.OnComplete
		r.onDead = f.OnDead
	}
	r.visitFn = r.visit
	r.handleFn = r.handle
	for i := 0; i < R; i++ {
		r.attempt(int32(i), 0)
	}
	r.engine.Run(r.handleFn)
	if r.finished != R {
		if f != nil {
			return ProgramResult{}, r.halt()
		}
		return ProgramResult{}, r.deadlock()
	}
	return ProgramResult{
		Makespan: r.makespan,
		StepsRun: r.engine.Processed(),
		Events:   r.engine.Processed(),
	}, nil
}

// visit is the dependency-scan callback: it records the first unmet
// dependency and stops the enumeration there (the sequential-wait order the
// coroutine reference uses; by the max-recurrence this cannot change
// completion times, only the wake bookkeeping).
func (r *programRunner) visit(depRank, depStep int) bool {
	if depStep < 0 || r.done[depRank] > int32(depStep) {
		return true // met (or ready at time zero)
	}
	r.scanBlocked = int32(depRank)
	r.scanNeed = int32(depStep + 1)
	return false
}

// attempt tries to start rank's next step at the current tick with one
// Step call: if every dependency is complete the completion event is
// posted; otherwise the rank parks on the intrusive waiter list of the
// first unmet dependency.
func (r *programRunner) attempt(rank int32, now Tick) {
	r.scanBlocked = -1
	dur, ok := r.prog.Step(int(rank), int(r.done[rank]), r.visitFn)
	if !ok {
		r.finished++
		return
	}
	if q := r.scanBlocked; q >= 0 {
		r.waitNeed[rank] = r.scanNeed
		r.waitNext[rank] = r.waitHead[q]
		r.waitHead[q] = rank
		return
	}
	fin := now + dur
	if r.crash != nil {
		if t := r.crash[rank]; t >= 0 && fin >= t {
			// The rank's machine is poisoned before this step can complete:
			// the step vanishes in flight and the rank posts nothing more.
			if !r.dead[rank] {
				r.dead[rank] = true
				r.deadCount++
				if r.onDead != nil {
					r.onDead(rank, t)
				}
			}
			return
		}
	}
	r.engine.Post(fin, rank, 0)
}

// handle processes one step-completion event: bump the rank's done count,
// wake now-eligible waiters (each re-scans its remaining dependencies), and
// start the rank's own next step.
func (r *programRunner) handle(now Tick, actor, _ int32) {
	if r.halted {
		return // draining the calendar after the watchdog fired
	}
	if r.horizon > 0 && now > r.horizon {
		r.halted = true
		r.haltNow = now
		return
	}
	r.done[actor]++
	if r.notify != nil {
		r.notify(actor, r.done[actor]-1, now)
	}
	if now > r.makespan {
		r.makespan = now
	}
	// Detach the waiter list before waking: a woken rank may immediately
	// re-register on this same list (it needs a later step of this rank),
	// and mutating the live list mid-walk would corrupt it.
	w := r.waitHead[actor]
	r.waitHead[actor] = -1
	for w >= 0 {
		next := r.waitNext[w]
		r.waitNext[w] = -1
		if r.waitNeed[w] <= r.done[actor] {
			r.attempt(w, now)
		} else {
			r.waitNext[w] = r.waitHead[actor]
			r.waitHead[actor] = w
		}
		w = next
	}
	r.attempt(actor, now)
}

// deadlock builds the diagnostic for an unfinishable program.
func (r *programRunner) deadlock() error {
	return &ProgramDeadlockError{Finished: r.finished, Total: r.prog.Ranks(), Waiting: r.waiting()}
}

// waiting samples up to eight stuck ranks as "rank@step->rank@step", in
// the order of the ranks they wait on.
func (r *programRunner) waiting() []string {
	var out []string
	for q := range r.waitHead {
		for w := r.waitHead[q]; w >= 0; w = r.waitNext[w] {
			if len(out) == 8 {
				return out
			}
			out = append(out, fmt.Sprintf("rank%d@%d->rank%d@%d", w, r.done[w], q, r.waitNeed[w]-1))
		}
	}
	return out
}

// RunProgramCoroutine executes a program on the coroutine engine: one proc
// per rank interpreting its step sequence, with per-rank flags counting
// completed steps. This is the exact reference the event engine is gated
// against — both advance clocks in whole-tick units, and a flag release
// raises the waiter's clock to the setter's completion tick, realizing the
// same max-recurrence.
func RunProgramCoroutine(p Program) (ProgramResult, error) {
	R := p.Ranks()
	e := NewEngine()
	flags := make([]*Flag, R)
	for i := range flags {
		flags[i] = NewFlag(fmt.Sprintf("prog/rank%d", i))
	}
	var steps uint64
	for i := 0; i < R; i++ {
		rank := i
		e.Spawn(fmt.Sprintf("rank%d", rank), func(proc *Proc) {
			wait := func(depRank, depStep int) bool {
				if depStep >= 0 {
					proc.Wait(flags[depRank], uint64(depStep+1), 0)
				}
				return true
			}
			for s := 0; ; s++ {
				dur, ok := p.Step(rank, s, wait)
				if !ok {
					return
				}
				proc.Advance(float64(dur))
				proc.Incr(flags[rank])
				steps++
			}
		})
	}
	if err := e.Run(); err != nil {
		return ProgramResult{}, err
	}
	return ProgramResult{Makespan: Tick(e.MaxClock()), StepsRun: steps}, nil
}
