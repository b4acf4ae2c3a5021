package sim

import (
	"math"
	"testing"
)

// TestSyncRejectsInvalidTimes: a latency, AdvanceTo target or sum of
// durations that is negative, NaN or infinite panics at the call. Each used
// to be accepted: infinite latencies made MaxClock +Inf, and a NaN or
// negative latency resumed the waiter before the set that woke it.
func TestSyncRejectsInvalidTimes(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		want string
		body func(p *Proc, f *Flag, b *Barrier)
	}{
		{"wait +Inf latency", "invalid flag latency +Inf",
			func(p *Proc, f *Flag, _ *Barrier) { p.Wait(f, 1, inf) }},
		{"wait NaN latency", "invalid flag latency NaN",
			func(p *Proc, f *Flag, _ *Barrier) { p.Wait(f, 1, nan) }},
		{"wait negative latency", "invalid flag latency -5",
			func(p *Proc, f *Flag, _ *Barrier) { p.Wait(f, 1, -5) }},
		{"arrive +Inf latency", "invalid barrier latency +Inf",
			func(p *Proc, _ *Flag, b *Barrier) { p.Arrive(b, inf) }},
		{"advance-to +Inf", "invalid time +Inf",
			func(p *Proc, _ *Flag, _ *Barrier) { p.AdvanceTo(inf) }},
		{"advance-to NaN", "invalid time NaN",
			func(p *Proc, _ *Flag, _ *Barrier) { p.AdvanceTo(nan) }},
		{"advance-to negative", "invalid time -1",
			func(p *Proc, _ *Flag, _ *Barrier) { p.AdvanceTo(-1) }},
		{"advance past the float range", "invalid dt 1.7976931348623157e+308",
			func(p *Proc, _ *Flag, _ *Barrier) {
				p.Advance(math.MaxFloat64)
				p.Advance(math.MaxFloat64)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			f := NewFlag("f")
			b := NewBarrier("b", 1)
			e.Spawn("waiter", func(p *Proc) { tc.body(p, f, b) })
			e.Spawn("setter", func(p *Proc) {
				p.Advance(1)
				p.Set(f, 1)
			})
			mustPanic(t, tc.want, func() { _ = e.Run() })
		})
	}
}

// TestReleaseTimeOverflowPanics: a flag set so late that the waiter's
// latency carries its release time past the float range panics instead of
// resuming the waiter at +Inf.
func TestReleaseTimeOverflowPanics(t *testing.T) {
	e := NewEngine()
	f := NewFlag("f")
	e.Spawn("waiter", func(p *Proc) { p.Wait(f, 1, math.MaxFloat64) })
	e.Spawn("setter", func(p *Proc) {
		p.Advance(math.MaxFloat64)
		p.Set(f, 1)
	})
	mustPanic(t, "invalid release time +Inf", func() { _ = e.Run() })
}
