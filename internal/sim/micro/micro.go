// Package micro holds the engine micro-benchmark bodies. Each body lives
// here once: internal/sim's Benchmark functions (go test -bench, make
// bench) and cmd/simbench (BENCH_sim.json) both run it.
package micro

import (
	"math/rand"
	"testing"

	"yhccl/internal/sim"
)

// run reports allocations, starts the clock and runs e to completion.
func run(b *testing.B, e *sim.Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// EngineYield measures the cost of one Advance that forces a control
// transfer to another proc: two procs advance in a strictly alternating
// pattern, so every operation makes the other proc the earliest runnable
// one.
func EngineYield(b *testing.B) {
	e := sim.NewEngine()
	n := b.N
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(2) // clocks 2, 4, 6, ...
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		p.Advance(1) // offset to 1, then 3, 5, ...
		for i := 0; i < n; i++ {
			p.Advance(2)
		}
	})
	run(b, e)
}

// EngineYieldFast measures the skip-yield fast path: a single proc
// advancing repeatedly never needs a handoff.
func EngineYieldFast(b *testing.B) {
	e := sim.NewEngine()
	n := b.N
	e.Spawn("solo", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
		}
	})
	run(b, e)
}

// EngineFlagWait measures a two-proc flag ping-pong: each round is one Set,
// one Wait-release and the associated control transfers.
func EngineFlagWait(b *testing.B) {
	e := sim.NewEngine()
	fa, fb := sim.NewFlag("a"), sim.NewFlag("b")
	n := b.N
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(0.001)
			p.Incr(fa)
			p.Wait(fb, uint64(i+1), 0.001)
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Wait(fa, uint64(i+1), 0.001)
			p.Advance(0.001)
			p.Incr(fb)
		}
	})
	run(b, e)
}

// EngineBarrier measures an 8-party barrier round trip.
func EngineBarrier(b *testing.B) {
	const parties = 8
	e := sim.NewEngine()
	bar := sim.NewBarrier("bench", parties)
	n := b.N
	for i := 0; i < parties; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Advance(float64(i+1) * 0.001)
				p.Arrive(bar, 0.001)
			}
		})
	}
	run(b, e)
}

// EngineMixed measures a randomized mix of advances and flag
// synchronization across 16 procs — closer to a collective's control flow.
func EngineMixed(b *testing.B) {
	const procs = 16
	e := sim.NewEngine()
	f := sim.NewFlag("f")
	bar := sim.NewBarrier("bar", procs)
	durs := seededDurations(1024, 0.01)
	n := b.N
	for i := 0; i < procs; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Advance(durs[(i*131+j)%len(durs)])
				if i == 0 {
					p.Set(f, uint64(j+1))
				} else {
					p.Wait(f, uint64(j+1), 0.0001)
				}
				p.Arrive(bar, 0.0001)
			}
		})
	}
	run(b, e)
}

// EngineLockstep64 measures the run queue in node-large's pattern without
// the memory model: 64 procs each Advance by seeded random durations, so
// nearly every op leaves its proc behind another one's clock, the proc
// parks, and the loop replaces the front of the queue. One op is one
// Advance of one proc.
func EngineLockstep64(b *testing.B) {
	const procs = 64
	e := sim.NewEngine()
	durs := seededDurations(4096, 1e-6)
	for i := 0; i < procs; i++ {
		n := b.N / procs
		if i < b.N%procs {
			n++
		}
		e.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				p.Advance(durs[(i*131+j)%len(durs)])
			}
		})
	}
	run(b, e)
}

// seededDurations returns n durations drawn uniformly from [0, scale) with
// seed 42.
func seededDurations(n int, scale float64) []float64 {
	rng := rand.New(rand.NewSource(42))
	durs := make([]float64, n)
	for i := range durs {
		durs[i] = rng.Float64() * scale
	}
	return durs
}

// EventLockstep drives the event calendar in the cluster-scale shape:
// 16384 actors in four contiguous groups step in lockstep, each dispatched
// event re-posting its actor one group-specific step later, so the pending
// events share a few ticks and the calendar pops them from same-tick
// buckets.
func EventLockstep(b *testing.B) {
	const actors = 1 << 14
	e := sim.NewEventEngine()
	for i := 0; i < actors; i++ {
		e.Post(0, int32(i), 0)
	}
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(func(now sim.Tick, actor, _ int32) {
		if n > 0 {
			n--
			e.Post(now+sim.Tick(100+10*(actor>>12)), actor, 0)
		}
	})
}
