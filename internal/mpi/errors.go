package mpi

import (
	"errors"
	"fmt"
	"strings"

	"yhccl/internal/fault"
	"yhccl/internal/sim"
)

// RankStatus is the diagnostic snapshot of one rank at the moment a run
// failed: where it was pinned, what operation it had declared via SetOp,
// its lifecycle state and virtual clock, and — when blocked — what it was
// waiting on.
type RankStatus struct {
	Rank    int
	Core    int
	Op      string
	State   string
	Clock   float64
	Blocked string
}

func (s RankStatus) String() string {
	b := fmt.Sprintf("rank%d@core%d", s.Rank, s.Core)
	if s.Op != "" {
		b += " in " + s.Op
	}
	b += fmt.Sprintf(" [%s t=%g]", s.State, s.Clock)
	if s.Blocked != "" {
		b += " waiting on " + s.Blocked
	}
	return b
}

// RunError is the failure report of a Machine.Run: the underlying simulator
// diagnosis (deadlock, livelock, or an attributed proc panic), the per-rank
// status snapshot taken at failure time, and — when a fault plan was active —
// the plan name and every fault the injector actually fired. The underlying
// error is reachable through Unwrap, so errors.As finds *sim.DeadlockError,
// *sim.LivelockError, *sim.ProcPanic, or *sim.InjectedCrash beneath it.
type RunError struct {
	Err    error
	Plan   string
	Ranks  []RankStatus
	Faults []fault.Event
}

func (e *RunError) Error() string {
	msg := fmt.Sprintf("mpi: run failed: %v", e.Err)
	if e.Plan != "" {
		msg += fmt.Sprintf(" [fault plan %q]", e.Plan)
	}
	return msg
}

func (e *RunError) Unwrap() error { return e.Err }

// Diagnose renders the full multi-line post-mortem: the failure, every
// rank's status, and the faults that fired.
func (e *RunError) Diagnose() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", e.Error())
	for _, rs := range e.Ranks {
		fmt.Fprintf(&b, "  %s\n", rs)
	}
	for _, ev := range e.Faults {
		fmt.Fprintf(&b, "  fired: %s\n", ev)
	}
	return strings.TrimRight(b.String(), "\n")
}

// EpochError reports an operation issued through a communicator that was
// built under an earlier membership epoch than the machine's current one —
// after a Quarantine, Shrink or Grow its flags, segments and pipes belong to
// a membership that no longer exists. Raised as a panic from the stale
// communicator's resource accessors; inside Machine.Run it surfaces through
// the usual *RunError attribution.
type EpochError struct {
	Comm    string // communicator label
	Stale   int    // epoch the communicator was built under
	Current int    // machine's current membership epoch
}

func (e *EpochError) Error() string {
	return fmt.Sprintf("mpi: stale communicator %q: built at epoch %d, machine is at epoch %d (membership changed; re-acquire communicators from the machine)",
		e.Comm, e.Stale, e.Current)
}

// wrapRunError converts a simulator failure into a RunError carrying the
// machine-level context: rank/core/op attribution for every proc in the
// failure snapshot, plus the active fault plan's fired events.
func (m *Machine) wrapRunError(cause error) *RunError {
	re := &RunError{Err: cause}
	if m.inject != nil {
		re.Plan = m.inject.Plan().Name
		re.Faults = append([]fault.Event(nil), m.inject.Events()...)
	}
	var sts []sim.ProcStatus
	var pp *sim.ProcPanic
	var dl *sim.DeadlockError
	var ll *sim.LivelockError
	switch {
	case errors.As(cause, &pp):
		sts = pp.Snapshot
	case errors.As(cause, &dl):
		sts = dl.Blocked
	case errors.As(cause, &ll):
		sts = ll.Procs
	}
	for _, st := range sts {
		rs := RankStatus{
			Rank:    st.ID,
			State:   st.State.String(),
			Clock:   st.Clock,
			Blocked: st.Reason,
		}
		if st.ID >= 0 && st.ID < len(m.RankCores) {
			rs.Core = m.RankCores[st.ID]
		}
		if st.ID >= 0 && st.ID < len(m.rankOps) {
			rs.Op = m.rankOps[st.ID]
		}
		re.Ranks = append(re.Ranks, rs)
	}
	return re
}
