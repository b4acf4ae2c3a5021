package resilient

import (
	"testing"

	"yhccl/internal/coll"
	"yhccl/internal/fault"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/topo"
)

// allreduceJob builds the canonical supervised job: a self-validating
// allreduce over the resilient dispatch chain, the same shape the chaos
// recovery sweep uses.
func allreduceJob(primary string, n int64) Job {
	return Job{
		Name:     "allreduce/" + primary,
		MaxDepth: coll.MaxFallbackDepth("allreduce", primary),
		Bind: func(m *mpi.Machine, depth, salt int) (func(*mpi.Rank), func() error, error) {
			p := m.Size()
			bases := coll.SumBasesSalted(p, salt)
			call := coll.Call{Coll: "allreduce", Params: plan.Params{Family: primary}, Resilient: true,
				N: n, Options: coll.Options{FallbackDepth: depth}}
			name, alg, err := call.Bind(p)
			if err != nil {
				return nil, nil, err
			}
			var verr error
			body := func(r *mpi.Rank) {
				sb := r.NewBuffer("sb", n)
				rb := r.NewBuffer("rb", n)
				r.FillPattern(sb, bases[r.ID()])
				alg(r, r.World(), sb, rb)
				if err := coll.ValidateAllreduceSum("allreduce/"+name, r.ID(), rb, n, bases); err != nil && verr == nil {
					verr = err
				}
			}
			return body, func() error { return verr }, nil
		},
	}
}

func TestCleanPassMatchesDirectRun(t *testing.T) {
	const p, n = 4, 4096
	// Direct run, no supervisor.
	direct := mpi.NewMachine(topo.NodeA(), p, true)
	bases := coll.SumBases(p)
	want := direct.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, bases[r.ID()])
		r.SetOp("allreduce/yhccl")
		coll.AllreduceAlgos["yhccl"](r, r.World(), sb, rb, n, mpi.Sum, coll.Options{})
	})
	// Supervised run on a fresh identical machine with no plan armed.
	m := mpi.NewMachine(topo.NodeA(), p, true)
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != CleanPass {
		t.Fatalf("outcome = %s (%v)", rep.Outcome, rep.Err)
	}
	if len(rep.Attempts) != 1 {
		t.Fatalf("%d attempts on the clean path", len(rep.Attempts))
	}
	if rep.Makespan != want {
		t.Errorf("supervised makespan %g != direct %g: supervisor charged the clean path",
			rep.Makespan, want)
	}
}

func TestBitFlipRecoversAfterRetry(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	pl := &fault.Plan{Name: "flip", Corruptions: []fault.Corruption{
		{Rank: 2, SharedWrite: 0, Elem: 13, Bit: 51}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != RecoveredRetry {
		t.Fatalf("outcome = %s (%v)\nattempts: %+v", rep.Outcome, rep.Err, rep.Attempts)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("%d attempts, want 2", len(rep.Attempts))
	}
	if rep.Attempts[0].Err == nil {
		t.Error("first attempt should have failed validation")
	}
	if rep.Attempts[1].Salt != 1 {
		t.Errorf("retry salt = %d, want a fresh fill pattern", rep.Attempts[1].Salt)
	}
	if rep.Makespan <= 0 {
		t.Error("no makespan for the recovered run")
	}
}

func TestStragglerRecoversByRemap(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachineWithSpares(topo.NodeA(), p, 2, true)
	pl := &fault.Plan{Name: "straggle", Stragglers: []fault.Straggler{{Rank: 1, Factor: 32}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != RecoveredRemap {
		t.Fatalf("outcome = %s (%v)\nattempts: %+v", rep.Outcome, rep.Err, rep.Attempts)
	}
	if core, ok := rep.Remapped[1]; !ok || core != p {
		t.Errorf("remapped = %v, want rank 1 on spare core %d", rep.Remapped, p)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("%d attempts, want 2", len(rep.Attempts))
	}
	if rep.Attempts[1].Makespan >= rep.Attempts[0].Makespan {
		t.Errorf("remap did not help: %g -> %g",
			rep.Attempts[0].Makespan, rep.Attempts[1].Makespan)
	}
}

func TestStragglerWithoutSparesFallsBack(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true) // no spares
	pl := &fault.Plan{Name: "straggle", Stragglers: []fault.Straggler{{Rank: 1, Factor: 32}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != RecoveredFallback {
		t.Fatalf("outcome = %s (%v)", rep.Outcome, rep.Err)
	}
	if rep.Depth != 1 {
		t.Errorf("fallback depth = %d, want 1 (two-level)", rep.Depth)
	}
}

func TestCrashRecoversByShrink(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	pl := &fault.Plan{Name: "crash", Stalls: []fault.Stall{{Rank: p - 1, At: 0, Crash: true}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != RecoveredShrink {
		t.Fatalf("outcome = %s (%v)\nattempts: %+v", rep.Outcome, rep.Err, rep.Attempts)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != p-1 {
		t.Errorf("excluded = %v, want [%d]", rep.Excluded, p-1)
	}
	if rep.Final.Size() != p-1 {
		t.Errorf("final world size = %d, want %d", rep.Final.Size(), p-1)
	}
}

func TestStallRecoversByShrink(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	pl := &fault.Plan{Name: "stall", Stalls: []fault.Stall{{Rank: 1, At: 0}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != RecoveredShrink {
		t.Fatalf("outcome = %s (%v)\nattempts: %+v", rep.Outcome, rep.Err, rep.Attempts)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != 1 {
		t.Errorf("excluded = %v, want [1]", rep.Excluded)
	}
}

func TestCrashWithShrinkDisabledIsUnrecoverable(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	pl := &fault.Plan{Name: "crash", Stalls: []fault.Stall{{Rank: 0, At: 0, Crash: true}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	pol := DefaultPolicy()
	pol.AllowShrink = false
	rep := Supervise(m, allreduceJob("yhccl", n), pol)
	if rep.Outcome != Unrecoverable {
		t.Fatalf("outcome = %s", rep.Outcome)
	}
	if rep.Err == nil {
		t.Error("unrecoverable report carries no diagnosis")
	}
}

func TestShrinkRespectsMinSurvivors(t *testing.T) {
	const n = 4096
	m := mpi.NewMachine(topo.NodeA(), 2, true)
	pl := &fault.Plan{Name: "crash", Stalls: []fault.Stall{{Rank: 1, At: 0, Crash: true}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != Unrecoverable {
		t.Fatalf("outcome = %s, want unrecoverable (1 survivor < MinSurvivors)", rep.Outcome)
	}
}

func TestWrongAnswerWithNoFaultIsUndiagnosed(t *testing.T) {
	m := mpi.NewMachine(topo.NodeA(), 2, true)
	job := Job{
		Name: "broken",
		Bind: func(m *mpi.Machine, depth, salt int) (func(*mpi.Rank), func() error, error) {
			body := func(r *mpi.Rank) { r.Compute(1e-6) }
			validate := func() error {
				return &coll.ValidationError{Op: "broken", Rank: 0}
			}
			return body, validate, nil
		},
	}
	rep := Supervise(m, job, DefaultPolicy())
	if rep.Outcome != Undiagnosed {
		t.Fatalf("outcome = %s, want UNDIAGNOSED (no fault to blame)", rep.Outcome)
	}
}

func TestSupervisionIsDeterministic(t *testing.T) {
	const p, n = 4, 4096
	run := func() Report {
		m := mpi.NewMachineWithSpares(topo.NodeA(), p, 2, true)
		pl := fault.GenPlan(3, p, 2e-4)
		if err := m.SetFaultPlan(pl); err != nil {
			t.Fatal(err)
		}
		return Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	}
	a, b := run(), run()
	if a.Outcome != b.Outcome {
		t.Fatalf("outcomes differ: %s vs %s", a.Outcome, b.Outcome)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("makespans differ: %g vs %g", a.Makespan, b.Makespan)
	}
	if len(a.Attempts) != len(b.Attempts) {
		t.Fatalf("attempt counts differ: %d vs %d", len(a.Attempts), len(b.Attempts))
	}
	for i := range a.Attempts {
		if a.Attempts[i].Makespan != b.Attempts[i].Makespan ||
			a.Attempts[i].Action != b.Attempts[i].Action {
			t.Errorf("attempt %d differs: %+v vs %+v", i, a.Attempts[i], b.Attempts[i])
		}
	}
}

// Regression: a fault scheduled to fire only after the first recovery
// point must still fire on the rebuilt machine and be recovered — the
// supervisor re-arms the RESTRICTED plan after a shrink, so a transient
// flip on a survivor lands during the post-shrink re-run and is then
// consumed by a retry.
func TestSecondFaultAfterShrinkFiresAndRecovers(t *testing.T) {
	const p, n = 6, 4096
	m := mpi.NewMachine(topo.NodeA(), p, true)
	pl := &fault.Plan{Name: "crash-then-flip",
		Stalls:      []fault.Stall{{Rank: 0, At: 0, Crash: true}},
		Corruptions: []fault.Corruption{{Rank: 3, SharedWrite: 6, Elem: 13, Bit: 51}},
	}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != RecoveredRetry {
		t.Fatalf("outcome = %s (%v)\nattempts: %+v", rep.Outcome, rep.Err, rep.Attempts)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != 0 {
		t.Fatalf("excluded = %v, want [0]", rep.Excluded)
	}
	// The flip must have fired on an attempt AFTER the shrink (the rebuilt
	// machine), under the survivor numbering (old rank 3 -> new rank 2).
	flipAttempt := -1
	for i, at := range rep.Attempts {
		for _, ev := range at.Faults {
			if ev.Kind == "bitflip" {
				flipAttempt = i
				if at.Action != "shrink" {
					t.Fatalf("flip fired on action %q, want the post-shrink re-run", at.Action)
				}
				if ev.Rank != 2 {
					t.Fatalf("flip fired on rank %d, want renumbered rank 2", ev.Rank)
				}
			}
		}
	}
	if flipAttempt < 0 {
		t.Fatalf("second fault never fired after the shrink:\nattempts: %+v", rep.Attempts)
	}
}

// Regression: after a quarantine remaps the first straggler, the re-armed
// plan must keep the second straggler firing so it is quarantined too.
func TestSecondStragglerAfterQuarantineFiresAndRecovers(t *testing.T) {
	const p, n = 4, 4096
	m := mpi.NewMachineWithSpares(topo.NodeA(), p, 2, true)
	pl := &fault.Plan{Name: "two-stragglers", Stragglers: []fault.Straggler{
		{Rank: 1, Factor: 32}, {Rank: 2, Factor: 32}}}
	if err := m.SetFaultPlan(pl); err != nil {
		t.Fatal(err)
	}
	rep := Supervise(m, allreduceJob("yhccl", n), DefaultPolicy())
	if rep.Outcome != RecoveredRemap {
		t.Fatalf("outcome = %s (%v)\nattempts: %+v", rep.Outcome, rep.Err, rep.Attempts)
	}
	if len(rep.Remapped) != 2 {
		t.Fatalf("remapped = %v, want both stragglers on spares", rep.Remapped)
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("%d attempts, want 3 (initial, remap, remap)", len(rep.Attempts))
	}
}
