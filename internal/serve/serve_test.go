package serve

import (
	"strings"
	"testing"

	"yhccl/internal/resilient"
	"yhccl/internal/topo"
)

// testMix is a scaled-down DefaultMix keeping sim-backed tests fast.
func testMix() []JobSpec {
	return []JobSpec{
		{Name: "dnn-storm", Collective: "allreduce", MsgBytes: 1 << 20, Calls: 2, Ranks: 8, Placement: PlaceAuto, Weight: 1},
		{Name: "miniamr-halo", Collective: "alltoall", MsgBytes: 16 << 10, Calls: 2, Ranks: 4, Placement: PlaceAuto, Weight: 1},
		{Name: "osu-micro", Collective: "allreduce", MsgBytes: 8 << 10, Calls: 1, Ranks: 2, Placement: PlacePack, Weight: 2},
	}
}

// TestSchedulerDeterminism pins the seed-replayable contract: two cold
// runs of the same seeded stream produce byte-identical event logs.
func TestSchedulerDeterminism(t *testing.T) {
	node := topo.NodeA()
	cfg := StreamConfig{Seed: 42, Mix: testMix(), Jobs: 12, Rate: 50}
	run := func() string {
		lp, err := RunLoad(node, PlaceAuto, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(lp.EventLog, "\n")
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("cold runs diverge:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "arrive") || !strings.Contains(a, "admit") || !strings.Contains(a, "complete") {
		t.Fatalf("event log missing expected events:\n%s", a)
	}
}

// TestGenStreamDeterminism pins the arrival law: same config, same
// stream; weights actually steer the class draw.
func TestGenStreamDeterminism(t *testing.T) {
	cfg := StreamConfig{Seed: 7, Mix: testMix(), Jobs: 200, Rate: 10}
	a, err := GenStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenStream(cfg)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	counts := make(map[string]int)
	for i := range a {
		if a[i].At != b[i].At || a[i].Spec.Name != b[i].Spec.Name {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		counts[a[i].Spec.Name]++
	}
	for _, spec := range testMix() {
		if counts[spec.Name] == 0 {
			t.Errorf("class %s never drawn in %d jobs", spec.Name, cfg.Jobs)
		}
	}
	// osu-micro has twice the weight of dnn-storm: it must be drawn more.
	if counts["osu-micro"] <= counts["dnn-storm"] {
		t.Errorf("weight-2 class drawn %d times, weight-1 class %d times",
			counts["osu-micro"], counts["dnn-storm"])
	}
}

// TestCoTenancySlower proves contention reaches the schedule: the same job
// finishes strictly later when a neighbor shares its socket than solo.
func TestCoTenancySlower(t *testing.T) {
	node := topo.NodeA()
	spec := JobSpec{Name: "a", Collective: "allreduce", MsgBytes: 2 << 20, Calls: 2, Ranks: 8, Placement: PlacePack, Weight: 1}
	neighbor := JobSpec{Name: "b", Collective: "alltoall", MsgBytes: 2 << 20, Calls: 4, Ranks: 8, Placement: PlacePack, Weight: 1}

	solo := NewScheduler(node, PlaceAuto)
	rs, err := solo.Run([]Arrival{{At: 0, Spec: spec}})
	if err != nil {
		t.Fatal(err)
	}
	co := NewScheduler(node, PlaceAuto)
	rc, err := co.Run([]Arrival{{At: 0, Spec: spec}, {At: 0, Spec: neighbor}})
	if err != nil {
		t.Fatal(err)
	}
	var coA JobResult
	for _, r := range rc {
		if r.ID == 0 {
			coA = r
		}
	}
	if !(rs[0].Makespan() < coA.Makespan()) {
		t.Errorf("co-tenant makespan %v not strictly above solo %v", coA.Makespan(), rs[0].Makespan())
	}
	if coA.Wait() != 0 {
		t.Errorf("job a queued %v despite free cores", coA.Wait())
	}
}

// TestPackVsSpreadDiffer proves the placement override changes the
// schedule: the same stream under pack and spread yields different leases
// and different makespans.
func TestPackVsSpreadDiffer(t *testing.T) {
	node := topo.NodeA()
	spec := JobSpec{Name: "wide", Collective: "allreduce", MsgBytes: 4 << 20, Calls: 2, Ranks: 8, Placement: PlaceAuto, Weight: 1}
	run := func(p Placement) (JobResult, string) {
		s := NewScheduler(node, p)
		rs, err := s.Run([]Arrival{{At: 0, Spec: spec}})
		if err != nil {
			t.Fatal(err)
		}
		return rs[0], strings.Join(s.EventLog(), "\n")
	}
	pack, plog := run(PlacePack)
	spread, slog := run(PlaceSpread)
	if plog == slog {
		t.Errorf("pack and spread produced identical event logs:\n%s", plog)
	}
	if pack.Makespan() == spread.Makespan() {
		t.Errorf("pack and spread makespans identical: %v", pack.Makespan())
	}
	if !strings.Contains(plog, "sockets=[8 0]") {
		t.Errorf("pack log missing single-socket lease:\n%s", plog)
	}
	if !strings.Contains(slog, "sockets=[4 4]") {
		t.Errorf("spread log missing balanced lease:\n%s", slog)
	}
}

// TestQueueingUnderLoad proves admission control works: when a job cannot
// fit it queues (head-of-line) and is admitted at a completion.
func TestQueueingUnderLoad(t *testing.T) {
	node := topo.NodeB() // 48 cores
	// Each job wants 32 cores: the second must wait for the first.
	spec := JobSpec{Name: "big", Collective: "allreduce", MsgBytes: 64 << 10, Calls: 1, Ranks: 32, Placement: PlaceSpread, Weight: 1}
	s := NewScheduler(node, PlaceAuto)
	rs, err := s.Run([]Arrival{{At: 0, Spec: spec}, {At: 0, Spec: spec}})
	if err != nil {
		t.Fatal(err)
	}
	var first, second JobResult
	for _, r := range rs {
		if r.ID == 0 {
			first = r
		} else {
			second = r
		}
	}
	if first.Wait() != 0 {
		t.Errorf("first job waited %v on an empty machine", first.Wait())
	}
	if second.Wait() <= 0 {
		t.Errorf("second job did not queue: wait %v", second.Wait())
	}
	if second.Admit != first.Done {
		t.Errorf("second job admitted at %v, want first completion %v", second.Admit, first.Done)
	}
}

// TestFaultIsolation proves one tenant's injected faults recover without
// perturbing its neighbor's schedule: the neighbor's event-log lines are
// byte-identical whether or not the long-running co-tenant is faulty.
func TestFaultIsolation(t *testing.T) {
	node := topo.NodeA()
	faulty := JobSpec{Name: "chaos", Collective: "allreduce", MsgBytes: 256 << 10, Calls: 4, Ranks: 4, Placement: PlacePack, Weight: 1, FaultSeed: 3}
	neighbor := JobSpec{Name: "calm", Collective: "allreduce", MsgBytes: 32 << 10, Calls: 1, Ranks: 2, Placement: PlacePack, Weight: 1}

	run := func(seed uint64) ([]JobResult, []string) {
		f := faulty
		f.FaultSeed = seed
		s := NewScheduler(node, PlaceAuto)
		rs, err := s.Run([]Arrival{{At: 0, Spec: f}, {At: 0, Spec: neighbor}})
		if err != nil {
			t.Fatal(err)
		}
		return rs, s.EventLog()
	}
	faultRes, faultLog := run(3)
	cleanRes, cleanLog := run(0)

	neighborLines := func(log []string) []string {
		var out []string
		for _, l := range log {
			if strings.Contains(l, "job=1") {
				out = append(out, l)
			}
		}
		return out
	}
	fn, cn := neighborLines(faultLog), neighborLines(cleanLog)
	if strings.Join(fn, "\n") != strings.Join(cn, "\n") {
		t.Errorf("neighbor schedule perturbed by co-tenant faults:\nfaulty run:\n%s\nclean run:\n%s",
			strings.Join(fn, "\n"), strings.Join(cn, "\n"))
	}

	byID := func(rs []JobResult, id int) JobResult {
		for _, r := range rs {
			if r.ID == id {
				return r
			}
		}
		t.Fatalf("job %d missing from results", id)
		return JobResult{}
	}
	fj, cj := byID(faultRes, 0), byID(cleanRes, 0)
	if fj.Outcome == resilient.Undiagnosed {
		t.Errorf("faulty tenant UNDIAGNOSED (outcome %s)", fj.Outcome)
	}
	if fj.Outcome == resilient.CleanPass {
		t.Errorf("fault seed 3 injected nothing (outcome %s)", fj.Outcome)
	}
	if !(cj.Makespan() < fj.Makespan()) {
		t.Errorf("faulty run %v not slower than clean run %v", fj.Makespan(), cj.Makespan())
	}
	// The faulty tenant must outlive the neighbor so the neighbor's whole
	// schedule ran under identical co-tenancy in both runs.
	if !(byID(cleanRes, 1).Done < cj.Done) {
		t.Errorf("test premise broken: neighbor outlived the long-running tenant")
	}
}

// TestSweepAndGate runs the harness at three offered loads with a pure
// oracle and checks the aggregate metrics and the gate.
func TestSweepAndGate(t *testing.T) {
	node := topo.NodeA()
	// Service scales with ranks and contention: enough structure for
	// queueing at high load.
	oracle := func(spec JobSpec, perSocket, ext []int) float64 {
		s := 1e-3 * float64(spec.Ranks) * float64(spec.Calls)
		for sk := range perSocket {
			if perSocket[sk] > 0 && ext[sk] > 0 {
				s *= 1 + 0.1*float64(ext[sk])
			}
		}
		return s
	}
	rates := []float64{5, 20, 80}
	points, err := Sweep(node, PlaceAuto, testMix(), 42, 30, rates, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d load points, want 3", len(points))
	}
	for i, lp := range points {
		if lp.Jobs != 30 {
			t.Errorf("point %d completed %d jobs, want 30", i, lp.Jobs)
		}
		if lp.Throughput <= 0 || lp.P50 <= 0 || lp.P99 < lp.P50 {
			t.Errorf("point %d has degenerate stats: %+v", i, lp)
		}
		if len(lp.Classes) != 3 {
			t.Errorf("point %d has %d classes, want 3", i, len(lp.Classes))
		}
	}
	// Higher offered load cannot lower p99 on the same stream seed.
	if points[2].P99 < points[0].P99 {
		t.Errorf("p99 fell with load: %v at rate %v vs %v at rate %v",
			points[2].P99, rates[2], points[0].P99, rates[0])
	}
	if v := Gate(points, 0); len(v) != 0 {
		t.Errorf("gate without budget reported violations: %v", v)
	}
	if v := Gate(points, 1e-12); len(v) == 0 {
		t.Errorf("gate with impossible budget passed")
	}
	if out := Render(points); !strings.Contains(out, "tput(j/s)") || !strings.Contains(out, "dnn-storm") {
		t.Errorf("render output malformed:\n%s", out)
	}
}

// TestValidateRejectsUnrunnableSpecs pins the submission checks that keep
// the scheduler from admitting a job it cannot run: an unknown algorithm,
// healthy or fault-seeded, and a fault seed on a collective outside the
// paper's five (the resilient supervisor has no fallback chain for it).
// RunLoad reports each as an error; none may reach a service-time
// measurement. Every committed mix still validates.
func TestValidateRejectsUnrunnableSpecs(t *testing.T) {
	base := JobSpec{Name: "bad", Collective: "allreduce", MsgBytes: 8 << 10, Calls: 1, Ranks: 2, Weight: 1}
	for _, c := range []struct {
		name string
		edit func(*JobSpec)
		want string
	}{
		{"unknown-alg", func(j *JobSpec) { j.Alg = "nope" }, `unknown algorithm "nope"`},
		{"unknown-alg-fault-seeded", func(j *JobSpec) { j.Alg, j.FaultSeed = "nope", 3 }, `unknown algorithm "nope"`},
		{"fault-seeded-alltoall", func(j *JobSpec) { j.Collective, j.FaultSeed = "alltoall", 3 }, "FaultSeed covers only the paper collectives"},
		{"unknown-collective", func(j *JobSpec) { j.Collective = "allsum" }, `unknown collective "allsum"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := base
			c.edit(&spec)
			if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate = %v, want an error containing %q", err, c.want)
			}
			cfg := StreamConfig{Seed: 1, Mix: []JobSpec{spec}, Jobs: 3, Rate: 50}
			if _, err := RunLoad(topo.NodeA(), PlaceAuto, cfg, nil); err == nil {
				t.Error("RunLoad accepted the spec")
			}
		})
	}
	for _, mix := range [][]JobSpec{DefaultMix(), OverloadMix(), testMix()} {
		for _, spec := range mix {
			if err := spec.Validate(); err != nil {
				t.Errorf("committed spec %q: %v", spec.Name, err)
			}
		}
	}
}
