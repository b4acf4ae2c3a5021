// Package sim implements a deterministic discrete-event engine for simulating
// parallel processes with per-process virtual clocks.
//
// Each simulated process (Proc) runs as a coroutine (iter.Pull), and the
// engine enforces that exactly one process executes at a time and always
// resumes the runnable process with the smallest virtual clock. Events are
// therefore processed in simulated-time order, which makes runs fully
// deterministic: the same program produces the same clocks, the same
// cache-residency decisions and the same counter values on every run,
// regardless of the Go scheduler.
//
// Control transfers through the engine loop with coroutine switches: when a
// process parks, it suspends its coroutine back into the loop, which resumes
// the earliest runnable process. A coroutine switch (runtime.coroswitch) is a
// direct goroutine swap that never enters the Go scheduler, so the
// two-switch round trip through the loop costs a fraction of a single
// channel handoff (which must park, lock a run queue, and re-ready the
// goroutine, checking timers along the way). A process that is still the
// earliest runnable one skips parking entirely and keeps executing with zero
// switches. A fused operation of several sub-charges (Proc.Charge), a run
// of such operations, or a sequence of them with flag waits and sets
// between, resumes its coroutine at most once: after the proc parks or
// blocks inside it, the loop runs each remaining step itself when the proc
// reaches the front.
//
// The runnable procs wait in a tournament tree ordered by (clock, seq), with
// one leaf per proc. Parking or unparking a proc replays its leaf's path to
// the root, one branch-free comparison per level; a proc whose sub-charge
// the loop runs stays at its leaf, so re-parking it costs one replay.
//
// The engine is the substrate for the MPI-rank runtime in internal/mpi: a
// rank advances its clock when it performs (modelled) memory operations and
// blocks on flags/barriers when it synchronizes with other ranks.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"runtime/debug"
	"strings"
)

// State describes the lifecycle of a Proc.
type State int

const (
	// Ready means the proc can be scheduled.
	Ready State = iota
	// Running means the proc is the one currently executing.
	Running
	// Blocked means the proc is waiting on a flag or barrier.
	Blocked
	// Done means the proc body returned.
	Done
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// killSignal is panicked through a suspended proc's body when the engine
// tears the run down, so deferred functions still execute while the
// coroutine unwinds. The coroutine wrapper swallows it.
type killSignal struct{}

// Proc is a simulated process with a virtual clock.
type Proc struct {
	id     int
	name   string
	engine *Engine
	body   func(p *Proc)

	clock float64 // seconds of virtual time
	state State

	// next resumes the proc's coroutine (runs it until its next suspend or
	// until the body returns, when it reports false); stop tears the
	// coroutine down, unwinding a suspended body. Both are only called from
	// the engine loop's goroutine.
	next func() (struct{}, bool)
	stop func()

	// suspendTo yields the proc's coroutine back to the engine loop. It
	// reports false when the engine is tearing the run down.
	suspendTo func(struct{}) bool

	// blockedOn identifies what a Blocked proc is waiting for. The
	// human-readable description is built only if a deadlock is reported,
	// so the block hot path does no formatting or allocation.
	blockedOn blocker

	// fault carries injected fault state (nil in healthy runs, so the
	// Advance hot path pays a single pointer compare).
	fault *procFault

	// cont is the rest of a Charge the proc parked inside (nil otherwise).
	// The engine loop runs it when the proc reaches the front of the run
	// queue (see runCont).
	cont Charge
}

// procFault is the per-proc injected-fault state. Slowdown stretches every
// Advance; the stall/crash trigger fires once when the clock first reaches
// stallAt. All decisions are functions of virtual time only, so injected
// runs replay bit-identically.
type procFault struct {
	slowdown   float64 // multiplier applied to Advance durations (0 = none)
	stallArmed bool
	stallAt    float64
	crash      bool
	reason     string
}

// maybeFire triggers the armed stall or crash once the proc's clock has
// reached the programmed virtual time.
func (f *procFault) maybeFire(p *Proc) {
	if !f.stallArmed || p.clock < f.stallAt {
		return
	}
	f.stallArmed = false
	if f.crash {
		panic(&InjectedCrash{Reason: f.reason, Clock: p.clock})
	}
	p.block(stalledOn{reason: f.reason})
}

// stalledOn is the permanent blocker of a fault-injected stalled proc; the
// deadlock diagnosis renders its reason so the victim is named.
type stalledOn struct{ reason string }

func (s stalledOn) blockedReason(p *Proc) string {
	if s.reason == "" {
		return "fault: injected stall"
	}
	return s.reason
}

// InjectedCrash is the panic value of a fault-injected crash. It unwinds
// the victim's body like any real panic, so the engine's attribution and
// teardown paths are exercised identically.
type InjectedCrash struct {
	Reason string
	Clock  float64
}

func (c *InjectedCrash) Error() string {
	if c.Reason == "" {
		return fmt.Sprintf("fault: injected crash at t=%g", c.Clock)
	}
	return fmt.Sprintf("fault: injected crash at t=%g: %s", c.Clock, c.Reason)
}

// SetSlowdown makes every subsequent Advance of this proc take factor times
// as long in virtual time (a deterministic straggler). factor must be
// positive and finite; 1 restores full speed.
func (p *Proc) SetSlowdown(factor float64) {
	if !(factor > 0 && factor <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: proc %q slowdown factor %v must be positive and finite", p.name, factor))
	}
	if p.fault == nil {
		p.fault = &procFault{}
	}
	p.fault.slowdown = factor
}

// InjectStallAt arranges for the proc to stall (block forever, diagnosed by
// the deadlock report) or, with crash, to panic with an InjectedCrash, the
// first time its virtual clock reaches t.
func (p *Proc) InjectStallAt(t float64, crash bool, reason string) {
	if t < 0 || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: proc %q stall time %v must be non-negative", p.name, t))
	}
	if p.fault == nil {
		p.fault = &procFault{}
	}
	p.fault.stallArmed = true
	p.fault.stallAt = t
	p.fault.crash = crash
	p.fault.reason = reason
}

// ID returns the process id assigned at spawn time (dense, starting at 0).
func (p *Proc) ID() int { return p.id }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the process's current virtual time in seconds.
func (p *Proc) Now() float64 { return p.clock }

// Advance moves the process's virtual clock forward by dt seconds and yields
// to the engine so that other processes with earlier clocks may run.
// An injected slowdown stretches dt; an armed stall/crash fires here.
// A negative or non-finite dt (after the slowdown) panics: the cost model
// must never produce one.
func (p *Proc) Advance(dt float64) {
	if f := p.fault; f != nil {
		if f.slowdown > 0 {
			dt *= f.slowdown
		}
		p.advanceClock(dt)
		f.maybeFire(p)
	} else {
		p.advanceClock(dt)
	}
	p.yield()
}

// advanceClock adds dt to the clock. Every charged duration passes its
// check, on the proc's stack or in the engine loop: dt and the new clock
// must be finite and non-negative. A NaN clock would fire any armed stall
// at once, and a NaN, negative or infinite one would break the run queue's
// key order (see runKey) and poison MaxClock.
func (p *Proc) advanceClock(dt float64) {
	if !(dt >= 0 && p.clock+dt <= math.MaxFloat64) {
		p.invalidTime("dt", dt)
	}
	p.clock += dt
}

// checkTime is the validity check of every time and duration the engine
// is handed (a latency, a release time, an AdvanceTo target): t
// must be finite and non-negative, so that every clock stays so.
func (p *Proc) checkTime(what string, t float64) {
	if !(t >= 0 && t <= math.MaxFloat64) {
		p.invalidTime(what, t)
	}
}

// invalidTime is kept out of line so that advanceClock and checkTime
// inline.
//
//go:noinline
func (p *Proc) invalidTime(what string, t float64) {
	panic(fmt.Sprintf("sim: proc %q at t=%g: invalid %s %v", p.name, p.clock, what, t))
}

// Charge is an operation made of an ordered list of steps. Most steps
// are sub-charges, each of which updates shared model state and then takes
// virtual time (a fused memory op: load, store, arithmetic floor). A
// charge may span many such ops — a run of them, or a sequence that also
// waits on flags before ops and sets flags after them — and then also does
// each op's own work as the op's first sub-charge runs. Next performs the
// next step and returns its duration and whether it was the last one;
// a non-nil flag op makes the step a Wait, whose latency dt is, or a Set,
// which takes no time (the engine performs both). The engine may call
// Next from its own loop while the proc is parked or blocked, so Next must
// not block, Advance, touch another proc or sync itself, and must not panic
// on anything that could have been validated before the charge began.
type Charge interface {
	Next(p *Proc) (dt float64, last bool, f *FlagOp)
}

// FlagOp is a charge's flag step: Set(Flag, Val) when Set, otherwise
// Wait(Flag, Val, dt), which is a sub-charge of the latency dt when the
// flag is met at its turn and blocks the proc until a Set releases it
// when not.
type FlagOp struct {
	Set  bool
	Flag *Flag
	Val  uint64
}

// Charge runs c's steps in order with exactly the schedule of one Advance
// per sub-charge, one Wait per wait and one Set per set, while resuming
// the proc's coroutine at most once. Steps run on the proc's own stack
// while its clock stays within the run-ahead horizon. When a sub-charge
// (or a met wait's latency) leaves the clock past the horizon, the proc
// parks, as Advance would, and when a wait is unmet it blocks on the flag,
// as Wait would; either way the remaining steps are its continuation. The
// engine loop runs them when it pops the proc, which is exactly when the
// resumed proc would have run them (see runCont), and a releasing Set
// requeues a blocked proc as it would any waiter. The coroutine is resumed
// after the last step. A proc with a fault armed drives every step through
// Advance, Wait and Set instead, so slowdowns stretch, and stalls and
// crashes fire between, the same steps as before.
func (p *Proc) Charge(c Charge) {
	e := p.engine
	for p.fault == nil {
		dt, last, f := c.Next(p)
		if f != nil {
			if f.Set {
				p.Set(f.Flag, f.Val)
				if last {
					return
				}
				continue
			}
			if !p.await(f.Flag, f.Val, dt) {
				if last {
					p.suspendBlocked()
					return
				}
				p.cont = c
				p.suspendBlocked()
				if p.cont == nil {
					return // the engine ran the remaining steps
				}
				p.cont = nil // a fault was armed meanwhile: finish through Advance
				continue
			}
		}
		p.advanceClock(dt)
		if last {
			p.yield()
			return
		}
		if p.clock > e.horizon {
			p.cont = c
			e.requeue(p)
			p.suspend()
			if p.cont == nil {
				return // the engine ran the remaining steps
			}
			p.cont = nil // a fault was armed meanwhile: finish through Advance
		}
	}
	for {
		dt, last, f := c.Next(p)
		switch {
		case f == nil:
			p.Advance(dt)
		case f.Set:
			p.Set(f.Flag, f.Val)
		default:
			p.Wait(f.Flag, f.Val, dt)
		}
		if last {
			return
		}
	}
}

// AdvanceTo moves the clock forward to at least t (no-op if already past).
// A negative or non-finite t panics.
func (p *Proc) AdvanceTo(t float64) {
	p.checkTime("time", t)
	if t > p.clock {
		p.clock = t
	}
	if f := p.fault; f != nil {
		f.maybeFire(p)
	}
	p.yield()
}

// State returns the proc's lifecycle state (diagnostics).
func (p *Proc) State() State { return p.state }

// BlockedReason renders what a Blocked proc is waiting for ("" otherwise).
func (p *Proc) BlockedReason() string {
	if p.state == Blocked && p.blockedOn != nil {
		return p.blockedOn.blockedReason(p)
	}
	return ""
}

// Yield gives other processes a chance to run without advancing the clock.
func (p *Proc) Yield() { p.yield() }

// yield relinquishes control — unless this proc is still running ahead of
// every runnable proc, in which case parking would only buy an immediate
// resume. The run-ahead test compares against e.horizon, the cached clock
// of the earliest runnable proc: within the window the op completes with a
// single float comparison — no run-queue access, no coroutine switch. The
// cache cannot go stale inside the window because exactly one proc executes
// at a time, so the run queue only changes through this proc's own actions
// (which refresh it). Skipping the switch preserves virtual-time order
// exactly: we only keep running while no runnable proc has an earlier
// clock. When one does, this proc re-enters the run queue and suspends to
// the engine loop, which resumes the front of the queue: the proc that led
// it before, since p cannot lead a queue whose front has an earlier clock.
func (p *Proc) yield() {
	e := p.engine
	if p.clock <= e.horizon {
		return
	}
	e.requeue(p)
	p.suspend()
}

// requeue parks p on the run queue with a fresh tie-break sequence number:
// its leaf takes the key (clock, seq), one replay places it, and the
// horizon is refreshed. Clock ties therefore break FIFO by park order.
func (e *Engine) requeue(p *Proc) {
	p.state = Ready
	e.seqGen++
	e.runq.set(p.id, p.clock, e.seqGen)
	e.updateHorizon()
}

// blocker is something a proc can block on; it renders the proc's wait
// condition lazily, only when blockedSummary diagnoses a deadlock.
type blocker interface {
	blockedReason(p *Proc) string
}

// block parks the proc in the Blocked state; it will not be scheduled until
// some other proc calls unblock on it. Control suspends to the engine loop,
// which resumes the earliest runnable proc or diagnoses the deadlock if
// nothing is runnable.
func (p *Proc) block(on blocker) {
	p.state = Blocked
	p.blockedOn = on
	p.suspendBlocked()
}

// suspendBlocked suspends a proc already marked Blocked until a release
// resumes it.
func (p *Proc) suspendBlocked() {
	p.suspend()
	p.blockedOn = nil
}

// suspend returns control to the engine loop until this proc is resumed. If
// the engine tore the run down while the proc was suspended, the body is
// unwound instead (deferred functions still run; the coroutine wrapper
// swallows the signal).
func (p *Proc) suspend() {
	if !p.suspendTo(struct{}{}) {
		panic(killSignal{})
	}
	p.state = Running
}

// unblock marks a blocked proc runnable, raising its clock to at least t
// (a release time: a flag's set time plus the waiter's latency, or a
// barrier's release). Must be called from the currently running proc.
func (p *Proc) unblock(t float64) {
	if p.state != Blocked {
		panic(fmt.Sprintf("sim: unblock of proc %q in state %s", p.name, p.state))
	}
	p.checkTime("release time", t)
	if t > p.clock {
		p.clock = t
	}
	p.state = Ready
	p.blockedOn = nil
	p.engine.makeRunnable(p)
}

// DefaultWatchdogSwitches is the no-progress watchdog threshold used by
// callers that enable livelock detection without tuning it: the number of
// consecutive scheduler switches without the minimum virtual clock
// advancing after which the run is diagnosed as livelocked. Healthy runs
// stay orders of magnitude below it (same-instant wake storms are bounded
// by the proc count), so enabling the watchdog never perturbs them.
const DefaultWatchdogSwitches = 2 << 20

// Engine owns a set of Procs and schedules them in virtual-time order.
type Engine struct {
	procs    []*Proc
	runq     runQueue
	started  bool
	finished int
	seqGen   uint64

	// horizon caches the clock of the run queue's front (+Inf when the
	// queue is empty): the virtual time up to which the running proc may
	// advance without yielding. Every run-queue mutation refreshes it via
	// updateHorizon, so the per-op yield check is one comparison.
	horizon float64

	// watchdog is the no-progress threshold (0 disables detection);
	// idleSwitches counts scheduler switches since lastMin last advanced.
	watchdog     int
	idleSwitches int
	lastMin      float64

	counts Counts
}

// Counts are an engine's work counters. Each is one increment on a path
// the scheduling loop takes anyway, so counting costs nothing measurable
// and changes no schedule.
type Counts struct {
	// Pops is the number of times the loop took the front of the run
	// queue: to resume its coroutine or to run its charge's next
	// sub-charges.
	Pops uint64
	// Resumes is the number of times the loop resumed a proc's coroutine.
	Resumes uint64
}

// Counts returns the engine's work counters so far.
func (e *Engine) Counts() Counts { return e.counts }

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{horizon: math.Inf(1), lastMin: math.Inf(-1)}
}

// SetWatchdog enables no-progress (livelock) detection: if the minimum
// virtual clock fails to advance across n consecutive scheduler switches,
// Run returns a *LivelockError diagnosing every proc instead of spinning
// forever. n <= 0 disables the watchdog. The count is of discrete scheduler
// events, not wall time, so detection is deterministic.
func (e *Engine) SetWatchdog(n int) {
	if n < 0 {
		n = 0
	}
	e.watchdog = n
}

// updateHorizon re-derives the run-ahead horizon from the run queue's
// front. Called after every run-queue mutation.
func (e *Engine) updateHorizon() {
	_, e.horizon = e.runq.top()
}

// Spawn registers a new process with the given body. It must be called
// before Run. The body runs as a coroutine under engine control.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	if e.started {
		panic("sim: Spawn after Run")
	}
	p := &Proc{
		id:     len(e.procs),
		name:   name,
		engine: e,
		body:   body,
		state:  Ready,
	}
	e.procs = append(e.procs, p)
	return p
}

// start materializes p's coroutine. The iterator function does not run
// until the engine first resumes the proc; a teardown before that simply
// never starts the body (stop on an unstarted iterator is a no-op on it).
//
// A body panic is re-raised through iter.Pull inside the engine's next(),
// where the raw stack no longer says which simulated proc died; it is
// therefore wrapped in a *ProcPanic carrying the proc's name, virtual
// clock and the original value plus stack before re-raising.
func (p *Proc) start() {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.suspendTo = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); ok {
					return // teardown unwind: the engine owns all state
				}
				panic(p.panicked(r))
			}
		}()
		p.body(p)
	})
}

// panicked attributes a panic value raised while p was running. Called
// from a deferred recover, so the captured stack still shows the panic.
func (p *Proc) panicked(r any) *ProcPanic {
	return &ProcPanic{
		ProcID:   p.id,
		ProcName: p.name,
		Clock:    p.clock,
		Value:    r,
		Stack:    debug.Stack(),
	}
}

// Procs returns all spawned processes.
func (e *Engine) Procs() []*Proc { return e.procs }

// makeRunnable queues p with a fresh tie-break sequence number. Pushing a
// proc that is already queued would lose its key, so it is rejected
// loudly.
func (e *Engine) makeRunnable(p *Proc) {
	if e.runq.queued(p.id) {
		panic(fmt.Sprintf("sim: proc %q pushed onto the run queue twice", p.name))
	}
	e.requeue(p)
}

// Run executes all processes to completion in virtual-time order.
// It returns a *DeadlockError if the simulation deadlocks (some processes
// remain blocked with nothing runnable) and a *LivelockError if the
// watchdog detects no virtual-time progress. A process panic is re-raised
// to the caller wrapped in a *ProcPanic attributing the failing proc.
// Either way, no proc coroutine outlives Run: teardown unwinds every
// suspended proc.
func (e *Engine) Run() error {
	if e.started {
		return fmt.Errorf("sim: engine already ran")
	}
	e.started = true
	e.runq.reset(len(e.procs))
	for _, p := range e.procs {
		p.start()
		e.makeRunnable(p)
	}
	// The scheduling loop: always resume the earliest runnable proc. A
	// proc's panic propagates out of next() onto this goroutine; snapshot
	// the other procs' states for attribution, tear the coroutines down,
	// then re-raise it to the caller. A panic in a sub-charge the loop ran
	// for a parked proc (charging) is attributed to that proc the same way.
	var charging *Proc
	defer func() {
		if r := recover(); r != nil {
			if charging != nil {
				r = charging.panicked(r)
			}
			if pp, ok := r.(*ProcPanic); ok && pp.Snapshot == nil {
				pp.Snapshot = e.snapshot()
			}
			e.terminate()
			panic(r)
		}
	}()
	for {
		leaf, front := e.runq.top()
		if !e.runq.queued(leaf) {
			break
		}
		if e.watchdog > 0 {
			if front > e.lastMin {
				e.lastMin = front
				e.idleSwitches = 0
			} else if e.idleSwitches++; e.idleSwitches >= e.watchdog {
				err := &LivelockError{
					Switches: e.idleSwitches,
					Clock:    e.lastMin,
					Procs:    e.snapshot(),
				}
				e.terminate()
				return err
			}
		}
		e.counts.Pops++
		p := e.procs[leaf]
		p.state = Running
		if p.cont != nil {
			charging = p
			resume := e.runCont(p)
			charging = nil
			if !resume {
				continue
			}
		} else {
			e.dequeue(p)
		}
		e.counts.Resumes++
		if _, alive := p.next(); !alive {
			p.state = Done
			e.finished++
		}
	}
	if e.finished != len(e.procs) {
		err := &DeadlockError{Total: len(e.procs), Blocked: e.blockedStatuses()}
		e.terminate()
		return err
	}
	return nil
}

// dequeue takes p, the front of the run queue, off the queue to run it.
func (e *Engine) dequeue(p *Proc) {
	e.runq.remove(p.id)
	e.updateHorizon()
}

// runCont runs the remaining steps of the charge p parked or blocked
// inside, one after another, exactly as p would run them once resumed
// here: each sub-charge (and each met wait's latency) passes the same
// clock check and, when it leaves the clock past the horizon, parks p
// again with a fresh seq, as yield would; a set is Proc.Set at p's clock;
// an unmet wait blocks p on its flag, off the run queue, keeping the rest
// of the charge as its continuation.
//
// p stays at its leaf meanwhile. After each timed step one replay re-keys
// the leaf with p's new clock and the seq a re-park would give it, and the
// horizon is re-derived from the new front. When another proc leads, its
// key precedes p's, so its clock is the others' earliest and at most p's:
// p continues only on a tie. When p still leads, the horizon is its own
// clock and it continues. Either way that is yield's test against the
// queue without p.
// Past the horizon the seq is committed and p is already parked; within
// it the seq stays unused. A set may requeue waiters, each with the next
// seq, while p's leaf still holds the seq it did not use; the next timed
// step re-keys p past them, and a set that ends the charge takes p off the
// queue.
//
// runCont reports whether p's coroutine must be resumed now, p then being
// off the queue: after the last step when the clock stays within the
// horizon, or at once when a fault has been armed on p since it parked
// (Charge then finishes through Advance, Wait and Set). After a last step
// that parks or blocks p, p waits with no continuation, and its next turn
// resumes the coroutine.
func (e *Engine) runCont(p *Proc) bool {
	for p.fault == nil {
		dt, last, f := p.cont.Next(p)
		if f != nil {
			if f.Set {
				p.Set(f.Flag, f.Val)
				if !last {
					continue
				}
				p.cont = nil
				e.dequeue(p)
				return true
			}
			if !p.await(f.Flag, f.Val, dt) {
				if last {
					p.cont = nil
				}
				e.dequeue(p)
				return false
			}
		}
		p.advanceClock(dt)
		if last {
			p.cont = nil
		}
		e.runq.set(p.id, p.clock, e.seqGen+1)
		e.updateHorizon()
		if p.clock > e.horizon {
			e.seqGen++
			p.state = Ready
			return false
		}
		if last {
			break
		}
	}
	e.dequeue(p)
	return true
}

// terminate unwinds every unfinished proc coroutine (running its deferred
// functions) so that failed runs do not leak suspended coroutines. stop
// blocks until the coroutine has fully unwound.
func (e *Engine) terminate() {
	for _, p := range e.procs {
		if p.state == Done || p.stop == nil {
			continue
		}
		p.stop()
		p.state = Done
	}
}

// ProcStatus is the diagnostic snapshot of one proc: identity, lifecycle
// state, virtual clock, and (for blocked procs) what it is waiting on.
type ProcStatus struct {
	ID     int
	Name   string
	State  State
	Clock  float64
	Reason string
}

// String renders "name(reason)" for blocked procs and "name[state]"
// otherwise.
func (s ProcStatus) String() string {
	if s.Reason != "" {
		return fmt.Sprintf("%s(%s)", s.Name, s.Reason)
	}
	return fmt.Sprintf("%s[%s]", s.Name, s.State)
}

// snapshot captures every proc's status in spawn (id) order — a
// deterministic ordering independent of name formatting or map iteration.
func (e *Engine) snapshot() []ProcStatus {
	out := make([]ProcStatus, 0, len(e.procs))
	for _, p := range e.procs {
		st := ProcStatus{ID: p.id, Name: p.name, State: p.state, Clock: p.clock}
		if p.state == Blocked && p.blockedOn != nil {
			st.Reason = p.blockedOn.blockedReason(p)
		}
		out = append(out, st)
	}
	return out
}

// blockedStatuses captures only the blocked procs, in spawn order.
func (e *Engine) blockedStatuses() []ProcStatus {
	var out []ProcStatus
	for _, s := range e.snapshot() {
		if s.State == Blocked {
			if s.Reason == "" {
				s.Reason = "unknown"
			}
			out = append(out, s)
		}
	}
	return out
}

// DeadlockError reports a run in which some procs remained blocked with
// nothing runnable. Blocked is ordered by proc spawn id, so the message is
// stable across runs (golden-file friendly).
type DeadlockError struct {
	Total   int
	Blocked []ProcStatus
}

func (e *DeadlockError) Error() string {
	parts := make([]string, len(e.Blocked))
	for i, s := range e.Blocked {
		parts[i] = fmt.Sprintf("%s(%s)", s.Name, s.Reason)
	}
	return fmt.Sprintf("sim: deadlock, %d of %d procs blocked: %s",
		len(e.Blocked), e.Total, strings.Join(parts, ", "))
}

// LivelockError reports a run the watchdog diagnosed as making no
// virtual-time progress (procs kept switching without the minimum clock
// advancing — a livelock rather than a full deadlock).
type LivelockError struct {
	Switches int
	Clock    float64
	Procs    []ProcStatus
}

func (e *LivelockError) Error() string {
	var parts []string
	for _, s := range e.Procs {
		if s.State != Done {
			parts = append(parts, s.String())
		}
	}
	return fmt.Sprintf("sim: livelock, no virtual-time progress in %d scheduler switches at t=%g: %s",
		e.Switches, e.Clock, strings.Join(parts, ", "))
}

// ProcPanic attributes a proc body's panic: which proc died, at what
// virtual time, the original panic value and stack, and (once Run's
// recovery handler sees it) a snapshot of every other proc's state.
type ProcPanic struct {
	ProcID   int
	ProcName string
	Clock    float64
	Value    any
	Stack    []byte
	Snapshot []ProcStatus
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked at t=%g: %v", pp.ProcName, pp.Clock, pp.Value)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As reach through the attribution layer.
func (pp *ProcPanic) Unwrap() error {
	if err, ok := pp.Value.(error); ok {
		return err
	}
	return nil
}

// MaxClock returns the largest clock across all processes; after Run this is
// the simulated makespan.
func (e *Engine) MaxClock() float64 {
	max := 0.0
	for _, p := range e.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// runQueue holds the runnable procs: a tournament (winner) tree ordered by
// (clock, seq). Leaf i is proc i; it holds the proc's key while the proc is
// queued and idleKey otherwise. Node j (1 <= j < len(keys)) holds the leaf
// that wins the subtree below it, and node len(keys)+i is leaf i itself, so
// the root, node 1, is the earliest runnable proc. A key change replays
// one leaf's path to the root with one comparison against the sibling
// subtree's winner per level: 6 levels for 64 procs, 10 for 1024. The key
// is a strict total order among queued procs (seq values are unique), so
// the front is fully determined by the queued keys, never by the tree's
// history. The tree is sized once, when the run starts.
type runQueue struct {
	keys []runKey // by leaf; a power of two long, leaves past the last proc idle
	win  []uint32 // winning leaf by node; win[0] is unused
}

// runKey is a proc's scheduling key. The clock is stored as its IEEE-754
// bits: every clock the engine holds is finite and non-negative (clocks
// start at +0 and only grow, by durations and to times that advanceClock
// and checkTime have accepted), and on such values the bits, read as an
// unsigned integer, order exactly as the floats do. So one 128-bit integer
// comparison orders (clock, seq), and the +Inf clock no proc can hold
// marks an idle leaf that every queued key precedes.
type runKey struct{ clock, seq uint64 }

var (
	idleClock = math.Float64bits(math.Inf(1))
	idleKey   = runKey{clock: idleClock, seq: math.MaxUint64}
)

// reset sizes the tree for n procs, all idle.
func (q *runQueue) reset(n int) {
	size := 1
	for size < n {
		size *= 2
	}
	q.keys = make([]runKey, size)
	q.win = make([]uint32, 2*size)
	for i := range q.keys {
		q.keys[i] = idleKey
		q.win[size+i] = uint32(i)
	}
	for j := size - 1; j > 0; j-- {
		q.win[j] = q.win[2*j]
	}
}

// top returns the leaf at the front of the queue and its clock, which is
// +Inf when nothing is queued.
func (q *runQueue) top() (leaf int, clock float64) {
	w := q.win[1]
	return int(w), math.Float64frombits(q.keys[w].clock)
}

// queued reports whether leaf i's proc is in the queue.
func (q *runQueue) queued(i int) bool { return q.keys[i].clock != idleClock }

// set queues leaf i's proc with key (clock, seq), or re-keys it.
func (q *runQueue) set(i int, clock float64, seq uint64) {
	q.keys[i] = runKey{clock: math.Float64bits(clock), seq: seq}
	q.replay(i)
}

// remove takes leaf i's proc off the queue.
func (q *runQueue) remove(i int) {
	q.keys[i] = idleKey
	q.replay(i)
}

// replay recomputes the winners on leaf i's path to the root. Each level
// compares the path's winner so far with the sibling subtree's winner
// without a branch: the borrow out of the 128-bit subtraction
// (clock, seq) - (clock', seq') is 1 exactly when the first key is
// smaller, and its negation is the mask that selects the winner's leaf
// and key.
func (q *runQueue) replay(i int) {
	keys, win := q.keys, q.win
	w, k := uint64(i), keys[i]
	for n := len(keys) + i; n > 1; n >>= 1 {
		o := uint64(win[n^1])
		ko := keys[o]
		_, b := bits.Sub64(k.seq, ko.seq, 0)
		_, b = bits.Sub64(k.clock, ko.clock, b)
		m := -b
		w = o ^ (w^o)&m
		k.clock = ko.clock ^ (k.clock^ko.clock)&m
		k.seq = ko.seq ^ (k.seq^ko.seq)&m
		win[n>>1] = uint32(w)
	}
}
