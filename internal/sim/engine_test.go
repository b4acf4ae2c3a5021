package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSingleProcAdvance(t *testing.T) {
	e := NewEngine()
	var end float64
	e.Spawn("p0", func(p *Proc) {
		p.Advance(1.5)
		p.Advance(2.5)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4.0 {
		t.Fatalf("clock = %v, want 4.0", end)
	}
	if e.MaxClock() != 4.0 {
		t.Fatalf("MaxClock = %v, want 4.0", e.MaxClock())
	}
}

func TestVirtualTimeOrdering(t *testing.T) {
	// The proc with the smaller clock must always run first, regardless of
	// spawn order. We record the interleaving of "ticks".
	e := NewEngine()
	var order []string
	e.Spawn("slow", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10)
			order = append(order, "slow")
		}
	})
	e.Spawn("fast", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(1)
			order = append(order, "fast")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, ",")
	want := "fast,fast,fast,slow,slow,slow"
	if got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) { p.Advance(-1) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	_ = e.Run()
}

func TestFlagSignalRaisesWaiterClock(t *testing.T) {
	e := NewEngine()
	f := NewFlag("f")
	var waiterTime float64
	e.Spawn("setter", func(p *Proc) {
		p.Advance(5)
		p.Set(f, 1)
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Wait(f, 1, 0.25)
		waiterTime = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waiterTime != 5.25 {
		t.Fatalf("waiter released at %v, want 5.25", waiterTime)
	}
}

func TestFlagAlreadySetChargesOnlyLatency(t *testing.T) {
	e := NewEngine()
	f := NewFlag("f")
	var waiterTime float64
	e.Spawn("setter", func(p *Proc) {
		p.Set(f, 3)
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Advance(10)
		p.Wait(f, 2, 0.5)
		waiterTime = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waiterTime != 10.5 {
		t.Fatalf("waiter time = %v, want 10.5", waiterTime)
	}
}

func TestFlagMultipleWaitersDifferentThresholds(t *testing.T) {
	e := NewEngine()
	f := NewFlag("f")
	released := map[uint64]float64{}
	for _, thr := range []uint64{1, 2, 3} {
		thr := thr
		e.Spawn("w", func(p *Proc) {
			p.Wait(f, thr, 0)
			released[thr] = p.Now()
		})
	}
	e.Spawn("setter", func(p *Proc) {
		p.Advance(1)
		p.Set(f, 1)
		p.Advance(1)
		p.Set(f, 2)
		p.Advance(1)
		p.Set(f, 3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for thr, want := range map[uint64]float64{1: 1, 2: 2, 3: 3} {
		if released[thr] != want {
			t.Errorf("waiter(>=%d) released at %v, want %v", thr, released[thr], want)
		}
	}
}

func TestFlagBackwardsSetPanics(t *testing.T) {
	e := NewEngine()
	f := NewFlag("f")
	e.Spawn("p", func(p *Proc) {
		p.Set(f, 2)
		p.Set(f, 1)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards flag set")
		}
	}()
	_ = e.Run()
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	e := NewEngine()
	b := NewBarrier("b", 3)
	times := make([]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Advance(float64(i + 1)) // arrive at 1, 2, 3
			p.Arrive(b, 0.5)
			times[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ti := range times {
		if ti != 3.5 {
			t.Errorf("proc %d left barrier at %v, want 3.5", i, ti)
		}
	}
	if b.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", b.Epoch())
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	b := NewBarrier("b", 2)
	var last float64
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Advance(1)
				p.Arrive(b, 0)
			}
			last = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if last != 5 {
		t.Fatalf("final clock = %v, want 5", last)
	}
	if b.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", b.Epoch())
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	f := NewFlag("never")
	e.Spawn("stuck", func(p *Proc) {
		p.Wait(f, 1, 0)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("unhelpful deadlock error: %v", err)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	// Two identical runs must produce the identical event trace.
	run := func() []int {
		e := NewEngine()
		var trace []int
		f := NewFlag("f")
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Advance(float64(i%3) * 0.1)
				trace = append(trace, i)
				p.Set(f, f.Value()+1)
				p.Wait(f, 8, 0)
				trace = append(trace, 100+i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Advance(1)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate to Run caller")
		}
	}()
	_ = e.Run()
}

func TestOnlyOneProcRunsAtATime(t *testing.T) {
	e := NewEngine()
	var running int32
	for i := 0; i < 16; i++ {
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 50; j++ {
				if atomic.AddInt32(&running, 1) != 1 {
					t.Error("two procs running concurrently")
				}
				atomic.AddInt32(&running, -1)
				p.Advance(0.001)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestYieldSkipPreservesVirtualTimeOrder(t *testing.T) {
	// The skip-yield fast path must never let a proc execute an event
	// while another runnable proc has a strictly earlier clock. We record
	// (clock, id) event pairs and verify a proc only ran while being the
	// minimum.
	e := NewEngine()
	type ev struct {
		id    int
		clock float64
	}
	var events []ev
	clocks := make([]float64, 4)
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < 50; j++ {
				p.Advance(float64((i*7+j*3)%5+1) * 0.01)
				events = append(events, ev{i, p.Now()})
				clocks[i] = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Replay: simulate per-proc event queues and check each event's clock
	// was <= every other proc's NEXT event clock at that moment.
	next := make([]int, 4)
	perProc := make([][]float64, 4)
	for _, v := range events {
		perProc[v.id] = append(perProc[v.id], v.clock)
	}
	for _, v := range events {
		for other := 0; other < 4; other++ {
			if other == v.id || next[other] >= len(perProc[other]) {
				continue
			}
			// The other proc's next event must not be earlier than the
			// event that just ran (else ordering was violated).
			if perProc[other][next[other]] < v.clock-1e-12 {
				t.Fatalf("proc %d ran at %.4f while proc %d's next event was %.4f",
					v.id, v.clock, other, perProc[other][next[other]])
			}
		}
		next[v.id]++
	}
}

func TestMaxClockIsMakespanProperty(t *testing.T) {
	// Property: for any set of per-proc advance sequences, MaxClock equals
	// the max of the per-proc sums.
	f := func(durs [][]uint8) bool {
		if len(durs) == 0 || len(durs) > 8 {
			return true
		}
		e := NewEngine()
		want := 0.0
		for _, ds := range durs {
			if len(ds) > 32 {
				ds = ds[:32]
			}
			sum := 0.0
			for _, d := range ds {
				sum += float64(d) / 255.0
			}
			if sum > want {
				want = sum
			}
			ds := ds
			e.Spawn("p", func(p *Proc) {
				for _, d := range ds {
					p.Advance(float64(d) / 255.0)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		got := e.MaxClock()
		return got > want-1e-9 && got < want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestProcPanicLeavesNoGoroutines(t *testing.T) {
	// A panicking proc must not strand the other procs' coroutine
	// goroutines in their suspended state: Run's teardown unwinds all of
	// them before re-raising.
	runtime.GC()
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		e := NewEngine()
		f := NewFlag("never")
		for i := 0; i < 8; i++ {
			e.Spawn("blocked", func(p *Proc) { p.Wait(f, 1, 0) })
		}
		for i := 0; i < 8; i++ {
			e.Spawn("looping", func(p *Proc) {
				for j := 0; j < 100; j++ {
					p.Advance(0.5)
				}
			})
		}
		e.Spawn("bad", func(p *Proc) {
			p.Advance(1)
			panic("boom")
		})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic to propagate")
				}
			}()
			_ = e.Run()
		}()
	}
	waitForGoroutines(t, before)
}

func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	// Likewise a deadlocked run must unwind its permanently blocked procs.
	runtime.GC()
	before := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		e := NewEngine()
		f := NewFlag("never")
		for i := 0; i < 8; i++ {
			e.Spawn("stuck", func(p *Proc) {
				p.Advance(float64(i))
				p.Wait(f, 1, 0)
			})
		}
		if err := e.Run(); err == nil {
			t.Fatal("expected deadlock error")
		}
	}
	waitForGoroutines(t, before)
}

func TestKilledProcsRunDeferredFunctions(t *testing.T) {
	// Teardown unwinds proc goroutines via Goexit, so body defers (resource
	// cleanup in rank code) still execute.
	var cleanups int32
	e := NewEngine()
	f := NewFlag("never")
	for i := 0; i < 4; i++ {
		e.Spawn("stuck", func(p *Proc) {
			defer atomic.AddInt32(&cleanups, 1)
			p.Wait(f, 1, 0)
		})
	}
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt32(&cleanups) != 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := atomic.LoadInt32(&cleanups); got != 4 {
		t.Fatalf("%d of 4 deferred cleanups ran on teardown", got)
	}
}

// waitForGoroutines polls until the goroutine count returns to the baseline
// (teardown waits for proc goroutines, but the final runtime exit of a
// goroutine is asynchronous to the WaitGroup).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), baseline)
}

// TestRemovedProcMayBePushedAgain: a proc taken off the run queue is off
// it, so pushing it again is allowed, while pushing a proc that is still
// queued panics.
func TestRemovedProcMayBePushedAgain(t *testing.T) {
	e := NewEngine()
	ps := make([]*Proc, 5)
	for i := range ps {
		ps[i] = e.Spawn(fmt.Sprintf("p%d", i), func(*Proc) {})
		ps[i].clock = float64(5 - i)
	}
	e.runq.reset(len(ps))
	for _, p := range ps {
		e.makeRunnable(p)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		leaf, _ := e.runq.top()
		if p := e.procs[leaf]; p != ps[i] {
			t.Fatalf("front is %q, want %q", p.name, ps[i].name)
		}
		e.dequeue(ps[i])
		if e.runq.queued(ps[i].id) {
			t.Fatalf("removed proc %q is still queued", ps[i].name)
		}
		for _, q := range ps[:i] {
			mustPanic(t, "twice", func() { e.makeRunnable(q) })
		}
	}
	for _, p := range ps {
		e.makeRunnable(p)
		if !e.runq.queued(p.id) {
			t.Fatalf("re-pushed proc %q is not queued", p.name)
		}
	}
}

func TestDoublePushPanics(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("p", func(*Proc) {})
	e.runq.reset(1)
	e.makeRunnable(p)
	mustPanic(t, "pushed onto the run queue twice", func() { e.makeRunnable(p) })
}
