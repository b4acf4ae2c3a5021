package sim

import "fmt"

// Flag is a monotonically increasing synchronization cell, modelling the
// atomic "flag held by each process" that shared-memory collectives use to
// signal between reduction steps (paper §3.3). A waiter blocks until the
// flag value reaches a threshold; when released, its clock is raised to the
// setter's clock plus the signal latency, modelling the cache-coherence
// propagation delay of the flag line.
type Flag struct {
	name    string
	val     uint64
	setTime float64
	waiters []flagWaiter
}

type flagWaiter struct {
	p         *Proc
	threshold uint64
	latency   float64
}

// NewFlag returns a flag with value 0.
func NewFlag(name string) *Flag {
	return &Flag{name: name}
}

// Value returns the current flag value.
func (f *Flag) Value() uint64 { return f.val }

// Set raises the flag to v (panics if v would decrease it) and wakes any
// waiters whose threshold is now satisfied.
func (p *Proc) Set(f *Flag, v uint64) {
	if v < f.val {
		panic(fmt.Sprintf("sim: flag %q set backwards %d -> %d", f.name, f.val, v))
	}
	f.val = v
	f.setTime = p.clock
	remaining := f.waiters[:0]
	for _, w := range f.waiters {
		if f.val >= w.threshold {
			w.p.unblock(f.setTime + w.latency)
		} else {
			remaining = append(remaining, w)
		}
	}
	f.waiters = remaining
}

// Incr increments the flag by one.
func (p *Proc) Incr(f *Flag) { p.Set(f, f.val+1) }

// Wait blocks p until the flag reaches at least v. The latency parameter is
// the one-way signal propagation cost charged to the waiter when it observes
// the flag (0 if the flag was already set — the waiter still pays latency,
// modelling the load of the remote flag line). A wait on an already
// satisfied flag never parks: it costs one Advance, which inside the
// engine's run-ahead window is a single comparison. A negative or
// non-finite latency panics.
func (p *Proc) Wait(f *Flag, v uint64, latency float64) {
	if p.await(f, v, latency) {
		// Flag already set: pay only the flag-line load.
		p.Advance(latency)
		return
	}
	p.suspendBlocked()
}

// await is Wait up to the suspend, shared by Wait and a charge's wait
// step: it reports a met wait, whose caller then charges the latency, or
// registers p as a waiter and marks it Blocked on f, whose caller then
// suspends it (Wait, Proc.Charge) or takes it off the run queue
// (Engine.runCont).
func (p *Proc) await(f *Flag, v uint64, latency float64) bool {
	p.checkTime("flag latency", latency)
	if f.val >= v {
		return true
	}
	f.waiters = append(f.waiters, flagWaiter{p: p, threshold: v, latency: latency})
	p.state = Blocked
	p.blockedOn = f
	return false
}

// blockedReason renders a waiter's condition for deadlock diagnostics.
func (f *Flag) blockedReason(p *Proc) string {
	for _, w := range f.waiters {
		if w.p == p {
			return fmt.Sprintf("flag %q >= %d (now %d)", f.name, w.threshold, f.val)
		}
	}
	return fmt.Sprintf("flag %q (now %d)", f.name, f.val)
}

// Barrier is a reusable sense-reversing barrier over a fixed set of
// participants. Arrival order is resolved in virtual-time order by the
// engine; all participants leave with clock = max(arrival clocks) + latency.
type Barrier struct {
	name    string
	parties int
	arrived int
	maxTime float64
	waiting []*Proc
	epoch   uint64
}

// NewBarrier returns a barrier for the given number of participants.
func NewBarrier(name string, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier needs at least one party")
	}
	return &Barrier{name: name, parties: parties}
}

// Parties returns the number of participants.
func (b *Barrier) Parties() int { return b.parties }

// Epoch returns how many times the barrier has completed.
func (b *Barrier) Epoch() uint64 { return b.epoch }

// Arrive blocks p until all parties have arrived. Every participant leaves
// with its clock set to max(arrival clocks) + latency, modelling a
// tree/flag-based barrier whose cost is folded into latency by the caller.
// A negative or non-finite latency panics.
func (p *Proc) Arrive(b *Barrier, latency float64) {
	p.checkTime("barrier latency", latency)
	if p.clock > b.maxTime {
		b.maxTime = p.clock
	}
	b.arrived++
	if b.arrived < b.parties {
		b.waiting = append(b.waiting, p)
		p.block(b)
		return
	}
	// Last arrival releases everyone.
	release := b.maxTime + latency
	for _, w := range b.waiting {
		w.unblock(release)
	}
	b.waiting = b.waiting[:0]
	b.arrived = 0
	b.maxTime = 0
	b.epoch++
	p.AdvanceTo(release)
}

// blockedReason renders a waiter's condition for deadlock diagnostics.
func (b *Barrier) blockedReason(p *Proc) string {
	return fmt.Sprintf("barrier %q (%d/%d arrived)", b.name, b.arrived, b.parties)
}
