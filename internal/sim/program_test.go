package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// tableProgram is an explicit-table Program for tests.
type tableProgram struct {
	durs [][]Tick     // [rank][step]
	deps [][][][2]int // [rank][step] -> list of (depRank, depStep)
}

func (p *tableProgram) Ranks() int { return len(p.durs) }
func (p *tableProgram) Step(r, s int, visit func(int, int) bool) (Tick, bool) {
	if s >= len(p.durs[r]) {
		return 0, false
	}
	for _, d := range p.deps[r][s] {
		if !visit(d[0], d[1]) {
			break
		}
	}
	return p.durs[r][s], true
}

func bothEngines(t *testing.T, p Program) (ProgramResult, ProgramResult) {
	t.Helper()
	ev, err := RunProgram(EngineEvent, p)
	if err != nil {
		t.Fatalf("event engine: %v", err)
	}
	co, err := RunProgram(EngineCoroutine, p)
	if err != nil {
		t.Fatalf("coroutine engine: %v", err)
	}
	return ev, co
}

// TestProgramChainGolden: two ranks, rank 1's steps chase rank 0's.
// C0 = [10, 30]; rank1 step0 waits C0[1]=30, +5 => 35; step1 +7 => 42.
func TestProgramChainGolden(t *testing.T) {
	p := &tableProgram{
		durs: [][]Tick{{10, 20}, {5, 7}},
		deps: [][][][2]int{
			{{}, {}},
			{{{0, 1}}, {}},
		},
	}
	ev, co := bothEngines(t, p)
	if ev.Makespan != 42 || co.Makespan != 42 {
		t.Fatalf("makespans event=%d coroutine=%d, want 42", ev.Makespan, co.Makespan)
	}
	if ev.StepsRun != 4 || ev.Events != 4 {
		t.Fatalf("event stats %+v, want 4 steps/events", ev)
	}
}

// TestProgramDiamondGolden: rank 3 joins on ranks 1 and 2, which both wait
// on rank 0. C0=[8]; C1 = 8+3 = 11; C2 = 8+9 = 17; C3 = max(11,17)+1 = 18.
func TestProgramDiamondGolden(t *testing.T) {
	p := &tableProgram{
		durs: [][]Tick{{8}, {3}, {9}, {1}},
		deps: [][][][2]int{
			{{}},
			{{{0, 0}}},
			{{{0, 0}}},
			{{{1, 0}, {2, 0}}},
		},
	}
	ev, co := bothEngines(t, p)
	if ev.Makespan != 18 || co.Makespan != 18 {
		t.Fatalf("makespans event=%d coroutine=%d, want 18", ev.Makespan, co.Makespan)
	}
}

// TestProgramZeroStepRanks: ranks with no steps finish at time zero and
// must not deadlock either engine.
func TestProgramZeroStepRanks(t *testing.T) {
	p := &tableProgram{
		durs: [][]Tick{{}, {4}, {}},
		deps: [][][][2]int{{}, {{}}, {}},
	}
	ev, co := bothEngines(t, p)
	if ev.Makespan != 4 || co.Makespan != 4 {
		t.Fatalf("makespans event=%d coroutine=%d, want 4", ev.Makespan, co.Makespan)
	}
}

// TestProgramNegativeDepStep: depStep < 0 means ready at time zero.
func TestProgramNegativeDepStep(t *testing.T) {
	p := &tableProgram{
		durs: [][]Tick{{6}, {2}},
		deps: [][][][2]int{
			{{{1, -1}}},
			{{}},
		},
	}
	ev, co := bothEngines(t, p)
	if ev.Makespan != 6 || co.Makespan != 6 {
		t.Fatalf("makespans event=%d coroutine=%d, want 6", ev.Makespan, co.Makespan)
	}
}

// randomProgram builds a seeded acyclic program: step s may depend only on
// steps with strictly smaller index (of any rank), so the DAG is layered.
func randomProgram(seed uint64, ranks, maxSteps int) *tableProgram {
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	p := &tableProgram{
		durs: make([][]Tick, ranks),
		deps: make([][][][2]int, ranks),
	}
	for r := 0; r < ranks; r++ {
		steps := next(maxSteps + 1)
		p.durs[r] = make([]Tick, steps)
		p.deps[r] = make([][][2]int, steps)
		for s := 0; s < steps; s++ {
			p.durs[r][s] = Tick(1 + next(1000))
			for d := next(4); d > 0 && s > 0; d-- {
				// Acyclic by construction: deps only reach strictly earlier
				// step indices (clamped to existing targets below).
				p.deps[r][s] = append(p.deps[r][s], [2]int{next(ranks), next(s)})
			}
		}
	}
	// Clamp dep steps to targets that exist; redirect the rest to "ready".
	for r := range p.deps {
		for s := range p.deps[r] {
			for i, d := range p.deps[r][s] {
				if d[1] >= len(p.durs[d[0]]) {
					p.deps[r][s][i][1] = len(p.durs[d[0]]) - 1
				}
			}
		}
	}
	return p
}

// TestProgramRandomParity: exact tick equality on randomized layered DAGs.
func TestProgramRandomParity(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		p := randomProgram(seed, 3+int(seed%13), 6)
		ev, co := bothEngines(t, p)
		if ev.Makespan != co.Makespan {
			t.Fatalf("seed %d: event %d != coroutine %d ticks", seed, ev.Makespan, co.Makespan)
		}
		ev2, err := RunProgramEvent(p)
		if err != nil || ev2.Makespan != ev.Makespan || ev2.Events != ev.Events {
			t.Fatalf("seed %d: event rerun diverged (%v)", seed, err)
		}
	}
}

// TestProgramDeadlock: a dependency cycle is reported, not hung.
func TestProgramDeadlock(t *testing.T) {
	p := &tableProgram{
		durs: [][]Tick{{1}, {1}},
		deps: [][][][2]int{
			{{{1, 0}}},
			{{{0, 0}}},
		},
	}
	_, err := RunProgramEvent(p)
	var dl *ProgramDeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("event engine: got %v, want ProgramDeadlockError", err)
	}
	if dl.Finished != 0 || dl.Total != 2 || len(dl.Waiting) == 0 {
		t.Fatalf("deadlock detail %+v", dl)
	}
	if _, err := RunProgramCoroutine(p); err == nil {
		t.Fatal("coroutine engine did not report the cycle")
	}
}

// TestProgramStuckRankSample: both diagnostics of an unfinishable run
// sample the same first eight stuck ranks, walking the waiter lists in
// rank order. Rank 0 waits on rank 1 and every other rank waits on rank 0,
// so rank 0's list (newest waiter first) fills the sample.
func TestProgramStuckRankSample(t *testing.T) {
	const ranks = 12
	p := &tableProgram{durs: make([][]Tick, ranks), deps: make([][][][2]int, ranks)}
	for r := range ranks {
		dep := [2]int{0, 0}
		if r == 0 {
			dep = [2]int{1, 0}
		}
		p.durs[r] = []Tick{1}
		p.deps[r] = [][][2]int{{dep}}
	}
	var want []string
	for r := ranks - 1; r >= 4; r-- {
		want = append(want, fmt.Sprintf("rank%d@0->rank0@0", r))
	}
	_, err := RunProgramEvent(p)
	var dl *ProgramDeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want ProgramDeadlockError", err)
	}
	if !slices.Equal(dl.Waiting, want) {
		t.Fatalf("deadlock sample %q, want %q", dl.Waiting, want)
	}
	_, err = RunProgramEventArmed(p, nil)
	var he *ProgramHaltError
	if !errors.As(err, &he) {
		t.Fatalf("armed run: got %v, want ProgramHaltError", err)
	}
	if !slices.Equal(he.Waiting, want) {
		t.Fatalf("halt sample %q, want %q", he.Waiting, want)
	}
}

// TestProgramFlatMemory: a wide program on the event engine creates no
// per-rank goroutines.
func TestProgramFlatMemory(t *testing.T) {
	const ranks = 100000
	p := &chainProgram{ranks: ranks}
	before := runtime.NumGoroutine()
	res, err := RunProgramEvent(p)
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew %d -> %d under the event engine", before, after)
	}
	if res.StepsRun != ranks {
		t.Fatalf("steps run %d, want %d", res.StepsRun, ranks)
	}
	if res.Makespan != ranks {
		t.Fatalf("makespan %d, want %d", res.Makespan, ranks)
	}
}

// chainProgram: rank r runs one unit step after rank r-1 — a maximally
// serial dependency chain, procedurally generated (no tables).
type chainProgram struct{ ranks int }

func (p *chainProgram) Ranks() int { return p.ranks }
func (p *chainProgram) Step(rank, step int, visit func(int, int) bool) (Tick, bool) {
	if step > 0 {
		return 0, false
	}
	if rank > 0 {
		visit(rank-1, 0)
	}
	return 1, true
}

func BenchmarkProgramEvent(b *testing.B) {
	p := &chainProgram{ranks: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunProgramEvent(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProgramCoroutine(b *testing.B) {
	p := &chainProgram{ranks: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunProgramCoroutine(p); err != nil {
			b.Fatal(err)
		}
	}
}
