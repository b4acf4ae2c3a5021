// Fault arming for the event-engine program interpreter. The healthy
// interpreter (program.go) assumes every posted step eventually completes;
// an armed run relaxes exactly that: per-rank poison ticks make steps vanish
// in flight (a crashed node's state machines stop posting), a horizon
// watchdog bounds virtual time, and completion hooks let the caller observe
// step completions (for deterministic corruption firing) without touching
// the interpreter's hot path. All hooks are nil-guarded: RunProgramEvent
// passes no faults and stays bit-identical to the pre-fault interpreter.
package sim

import (
	"fmt"
	"strings"
)

// ProgramFaults arms deterministic faults on one event-engine program run.
// The zero value (or nil) arms nothing.
type ProgramFaults struct {
	// CrashTick poisons rank r's state machine at CrashTick[r]: a step whose
	// completion would land at or after that tick never completes, and the
	// rank posts nothing more. Entries < 0 mean healthy. When non-nil the
	// slice length must equal the program's rank count.
	CrashTick []Tick
	// Horizon is the no-progress watchdog: the run halts deterministically
	// if virtual time passes this tick (0 = no horizon). A halted run drains
	// the calendar without acting and reports HorizonHit.
	Horizon Tick
	// OnComplete, when non-nil, observes every step completion at its exact
	// completion tick (used to fire phase corruptions deterministically).
	OnComplete func(rank, step int32, now Tick)
	// OnDead, when non-nil, observes the first poisoned step of each rank,
	// reported at the rank's poison tick.
	OnDead func(rank int32, at Tick)
}

// ProgramHaltError reports an armed program run that could not finish:
// ranks died at their poison ticks, the watchdog horizon was exceeded, or
// survivors ended up waiting forever on dead producers.
type ProgramHaltError struct {
	Finished int
	Total    int
	// DeadCount is how many ranks' state machines were poisoned; Dead is
	// the per-rank poisoned flag (nil when no crash faults were armed).
	DeadCount int
	Dead      []bool
	// HorizonHit reports the watchdog fired, at tick Now.
	HorizonHit bool
	Now        Tick
	// Waiting samples up to eight stuck ranks as "rank@step->rank@step".
	Waiting []string
}

func (e *ProgramHaltError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: armed program halted, %d of %d ranks finished", e.Finished, e.Total)
	if e.DeadCount > 0 {
		fmt.Fprintf(&b, "; %d ranks poisoned", e.DeadCount)
	}
	if e.HorizonHit {
		fmt.Fprintf(&b, "; watchdog horizon exceeded at tick %d", e.Now)
	}
	if len(e.Waiting) > 0 {
		fmt.Fprintf(&b, "; waiting: %s", strings.Join(e.Waiting, ", "))
	}
	return b.String()
}

// RunProgramEventArmed executes a program on the event-calendar engine with
// fault arming. With a nil or zero ProgramFaults it behaves exactly like
// RunProgramEvent except that an unfinishable run reports *ProgramHaltError
// instead of *ProgramDeadlockError.
func RunProgramEventArmed(p Program, f *ProgramFaults) (ProgramResult, error) {
	if f == nil {
		f = &ProgramFaults{}
	}
	return runProgramEvent(p, f)
}

// halt builds the structured diagnostic for an unfinishable armed run.
func (r *programRunner) halt() error {
	return &ProgramHaltError{
		Finished:   r.finished,
		Total:      r.prog.Ranks(),
		DeadCount:  r.deadCount,
		Dead:       r.dead,
		HorizonHit: r.halted,
		Now:        r.haltNow,
		Waiting:    r.waiting(),
	}
}
