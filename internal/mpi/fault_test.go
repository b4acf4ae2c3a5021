package mpi

import (
	"errors"
	"strings"
	"testing"

	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// ringShift is a minimal multi-rank workload for fault tests: every rank
// sends a block to its right neighbour and receives from its left.
func ringShift(n int64) func(r *Rank) {
	return func(r *Rank) {
		r.SetOp("ringshift")
		w := r.World()
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()*1000))
		p := r.Size()
		r.SendRecv(w, (r.ID()+1)%p, sb, 0, n, (r.ID()+p-1)%p, rb, 0, n, memmodel.Temporal)
	}
}

func TestStragglerSlowsMakespanDeterministically(t *testing.T) {
	base := NewMachine(topo.NodeA(), 4, true)
	t0 := base.MustRun(ringShift(4096))
	run := func() float64 {
		m := NewMachine(topo.NodeA(), 4, true)
		if err := m.SetFaultPlan(&fault.Plan{
			Name:       "slow1",
			Stragglers: []fault.Straggler{{Rank: 1, Factor: 10}},
		}); err != nil {
			t.Fatal(err)
		}
		return m.MustRun(ringShift(4096))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("straggler runs diverged: %x vs %x", a, b)
	}
	if a <= t0 {
		t.Errorf("straggler makespan %g not above healthy %g", a, t0)
	}
}

func TestStallDiagnosedWithVictimRank(t *testing.T) {
	m := NewMachine(topo.NodeA(), 4, true)
	if err := m.SetFaultPlan(&fault.Plan{
		Name:   "stall1",
		Stalls: []fault.Stall{{Rank: 1, At: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run(ringShift(4096))
	if err == nil {
		t.Fatal("expected diagnosed failure")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError", err)
	}
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("cause is %T, want *sim.DeadlockError underneath", re.Err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank1") || !strings.Contains(msg, "injected stall") {
		t.Errorf("victim not named: %v", msg)
	}
	if !strings.Contains(msg, `plan "stall1"`) {
		t.Errorf("plan not named: %v", msg)
	}
	// The per-rank snapshot must attribute the op each victim was inside.
	found := false
	for _, rs := range re.Ranks {
		if rs.Rank == 1 {
			found = true
			if rs.Op != "ringshift" {
				t.Errorf("rank1 op = %q, want ringshift", rs.Op)
			}
			if rs.Core != 1 {
				t.Errorf("rank1 core = %d, want 1", rs.Core)
			}
		}
	}
	if !found {
		t.Errorf("rank1 missing from diagnostics: %v", re.Diagnose())
	}
	if len(re.Faults) == 0 {
		t.Error("fired-fault log empty")
	}
}

func TestCrashReturnsAttributedError(t *testing.T) {
	m := NewMachine(topo.NodeA(), 4, true)
	if err := m.SetFaultPlan(&fault.Plan{
		Name:   "crash3",
		Stalls: []fault.Stall{{Rank: 3, At: 0, Crash: true}},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run(ringShift(4096))
	if err == nil {
		t.Fatal("expected crash to surface as an error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError (crash must not escape as a panic)", err)
	}
	var ic *sim.InjectedCrash
	if !errors.As(err, &ic) {
		t.Fatalf("cause chain misses *sim.InjectedCrash: %v", err)
	}
	if !strings.Contains(err.Error(), `"rank3"`) || !strings.Contains(err.Error(), "injected crash") {
		t.Errorf("victim not named: %v", err)
	}
}

func TestCorruptionFlipsSharedWrite(t *testing.T) {
	const n = 256
	run := func(plan *fault.Plan) []float64 {
		m := NewMachine(topo.NodeA(), 2, true)
		if err := m.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		m.MustRun(func(r *Rank) {
			w := r.World()
			buf := r.NewBuffer("buf", n)
			if r.ID() == 0 {
				r.FillPattern(buf, 1000)
				r.Send(w, 1, buf, 0, n) // copy-in: rank0's shared write
			} else {
				r.Recv(w, 0, buf, 0, n, memmodel.Temporal)
				copy(out, buf.Slice(0, n))
			}
		})
		return out
	}
	clean := run(nil)
	dirty := run(&fault.Plan{Name: "flip", Corruptions: []fault.Corruption{
		{Rank: 0, SharedWrite: 0, Elem: 17, Bit: 63},
	}})
	diffs := 0
	for i := range clean {
		if clean[i] != dirty[i] {
			diffs++
			if i != 17 {
				t.Errorf("flip landed on elem %d, want 17", i)
			}
		}
	}
	if diffs != 1 {
		t.Errorf("%d elements differ, want exactly 1", diffs)
	}
	if dirty[17] != -clean[17] { // bit 63 is the sign bit
		t.Errorf("elem 17: %v -> %v, want sign flip", clean[17], dirty[17])
	}
}

func TestFaultPlanValidatedAgainstWorld(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, true)
	err := m.SetFaultPlan(&fault.Plan{Stalls: []fault.Stall{{Rank: 7}}})
	if err == nil || !strings.Contains(err.Error(), "outside world") {
		t.Errorf("got %v, want out-of-world rejection", err)
	}
	if m.Injector() != nil {
		t.Error("rejected plan left an injector armed")
	}
	if err := m.SetFaultPlan(nil); err != nil {
		t.Errorf("nil plan should disarm cleanly: %v", err)
	}
}

func TestWatchdogCatchesLivelockedRun(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, false)
	m.Watchdog = 50_000
	// Raw zero-latency sim flags: shm flags charge coherence latency, which
	// is progress; a livelock needs switches with no virtual-time advance.
	fa, fb := sim.NewFlag("a"), sim.NewFlag("b")
	_, err := m.Run(func(r *Rank) {
		p := r.Proc()
		for i := uint64(1); ; i++ {
			if r.ID() == 0 {
				p.Set(fa, i)
				p.Wait(fb, i, 0)
			} else {
				p.Wait(fa, i, 0)
				p.Set(fb, i)
			}
		}
	})
	if err == nil {
		t.Fatal("expected livelock diagnosis")
	}
	var ll *sim.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("error is %T (%v), want *sim.LivelockError underneath", err, err)
	}
}

// expectProcPanic runs body on a fresh machine and asserts the rank's
// precondition panic surfaces as a RunError whose message contains want —
// pinning both the conversion path and the message text (satellite:
// error-message refactors can't silently change behavior).
func expectProcPanic(t *testing.T, p int, want string, body func(r *Rank)) {
	t.Helper()
	m := NewMachine(topo.NodeA(), p, true)
	_, err := m.Run(body)
	if err == nil {
		t.Fatalf("expected %q failure", want)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the precondition %q", err.Error(), want)
	}
}

func TestPreconditionSendToSelf(t *testing.T) {
	expectProcPanic(t, 2, "send to self", func(r *Rank) {
		if r.ID() == 0 {
			buf := r.NewBuffer("b", 8)
			r.Send(r.World(), 0, buf, 0, 8)
		}
	})
}

func TestPreconditionRecvFromSelf(t *testing.T) {
	expectProcPanic(t, 2, "recv from self", func(r *Rank) {
		if r.ID() == 0 {
			buf := r.NewBuffer("b", 8)
			r.Recv(r.World(), 0, buf, 0, 8, memmodel.Temporal)
		}
	})
}

func TestPreconditionBadSendLength(t *testing.T) {
	expectProcPanic(t, 2, "non-positive length", func(r *Rank) {
		if r.ID() == 0 {
			buf := r.NewBuffer("b", 8)
			r.Send(r.World(), 1, buf, 0, 0)
		}
	})
}

func TestPreconditionRankNotInComm(t *testing.T) {
	expectProcPanic(t, 64, "not in comm", func(r *Rank) {
		if r.ID() == 0 {
			// Rank 0 lives on socket 0; using socket1's comm is a bug.
			c := r.Machine().SocketComm(1)
			buf := r.NewBuffer("b", 8)
			r.Send(c, 1, buf, 0, 8)
		}
	})
}

func TestPreconditionPanicNamesRank(t *testing.T) {
	m := NewMachine(topo.NodeA(), 4, true)
	_, err := m.Run(func(r *Rank) {
		if r.ID() == 2 {
			buf := r.NewBuffer("b", 8)
			r.Send(r.World(), 2, buf, 0, 8)
		}
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), `"rank2"`) {
		t.Errorf("failing rank not named: %v", err)
	}
	var pp *sim.ProcPanic
	if !errors.As(err, &pp) {
		t.Fatalf("cause is not a *sim.ProcPanic: %v", err)
	}
	if pp.ProcName != "rank2" {
		t.Errorf("attributed to %q", pp.ProcName)
	}
}

func TestHealthyRunUnaffectedByDisarmedInjector(t *testing.T) {
	runOnce := func(arm bool) float64 {
		m := NewMachine(topo.NodeA(), 8, true)
		if arm {
			if err := m.SetFaultPlan(&fault.Plan{
				Name:   "armed-elsewhere",
				Stalls: []fault.Stall{{Rank: 7, At: 1e9}}, // far past the run
			}); err != nil {
				t.Fatal(err)
			}
		}
		return m.MustRun(ringShift(4096))
	}
	clean, armed := runOnce(false), runOnce(true)
	if clean != armed {
		t.Errorf("stall armed beyond the horizon changed the makespan: %x vs %x", clean, armed)
	}
}
