package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// chargeLog records every executed sub-charge and program op in execution
// order. shared stands in for a residency tracker: sub-charges read and
// update it, so any reordering also changes durations.
type chargeLog struct {
	entries []logEntry
	shared  uint64
	// engineSteps counts sub-charges the engine loop ran for a parked proc
	// (p.cont is set only while runCont drives it); engineBlocks counts
	// the waits among them that found their flag unmet.
	engineSteps, engineBlocks int
}

type logEntry struct {
	proc, op, step int
	clock          float64
}

// testCharge is a fused op of 1-4 sub-charges with fixed base durations.
// A stateful sub-charge scales its duration by the shared state it reads.
type testCharge struct {
	log      *chargeLog
	op       int
	durs     []float64
	stateful []bool
	i        int
}

func (c *testCharge) Next(p *Proc) (float64, bool, *FlagOp) {
	if p.cont != nil {
		c.log.engineSteps++
	}
	c.log.entries = append(c.log.entries, logEntry{p.id, c.op, c.i, p.clock})
	dt := c.durs[c.i]
	if c.stateful[c.i] {
		dt *= 1 + float64(c.log.shared%3)/4
	}
	c.log.shared = c.log.shared*31 + uint64(p.id) + 1
	c.i++
	return dt, c.i == len(c.durs), nil
}

// runPerStep is the reference form of a charge: one Advance per sub-charge.
func runPerStep(p *Proc, c Charge) {
	for {
		dt, last, f := c.Next(p)
		switch {
		case f == nil:
			p.Advance(dt)
		case f.Set:
			p.Set(f.Flag, f.Val)
		default:
			p.Wait(f.Flag, f.Val, dt)
		}
		if last {
			return
		}
	}
}

type opKind int

const (
	opCharge opKind = iota
	opAdvance
	opSet
	opWait
	opSleep // AdvanceTo now+timeout: stays parked while others are mid-charge
	opArrive
	opPingPong // zero-latency flag ping-pong with the partner proc, forever
	opSeq      // a sequence charge of sub-charges, waits and sets
	opSeqPingPong
)

type progOp struct {
	kind     opKind
	durs     []float64
	stateful []bool
	flag     int
	val      uint64
	lat      float64
	timeout  float64
	seq      []seqStep
}

// chargeProgram is a generated multi-proc program: per-proc op lists over
// shared flags and one barrier.
type chargeProgram struct {
	ops       [][]progOp
	flags     int
	straggler int // proc with a slowdown set before Run, -1 for none
	watchdog  int
}

// randDur draws a duration that is zero, tied with other draws, distinct,
// or small enough that a whole charge fits inside the run-ahead window.
func randDur(rng *rand.Rand) float64 {
	switch x := rng.Float64(); {
	case x < 0.15:
		return 0
	case x < 0.5:
		return []float64{0.25, 0.5, 1}[rng.Intn(3)]
	case x < 0.85:
		return rng.Float64()
	default:
		return rng.Float64() * 1e-6
	}
}

func randCharge(rng *rand.Rand) progOp {
	n := 1 + rng.Intn(4)
	op := progOp{kind: opCharge, durs: make([]float64, n), stateful: make([]bool, n)}
	for i := range op.durs {
		op.durs[i] = randDur(rng)
		op.stateful[i] = rng.Intn(2) == 0
	}
	return op
}

// withRuns inserts into each proc's op list, at a random position, a charge
// as long as a run of 2-100 fused ops (up to 400 sub-charges), as memmodel
// charges a run. It draws from its own rng, so the program's other ops are
// genChargeProgram's.
func withRuns(pr chargeProgram, rng *rand.Rand) chargeProgram {
	for i, ops := range pr.ops {
		run := progOp{kind: opCharge}
		for k := 2 + rng.Intn(99); k > 0; k-- {
			op := randCharge(rng)
			run.durs = append(run.durs, op.durs...)
			run.stateful = append(run.stateful, op.stateful...)
		}
		at := rng.Intn(len(ops) + 1)
		pr.ops[i] = append(ops[:at:at], append([]progOp{run}, ops[at:]...)...)
	}
	return pr
}

// genChargeProgram builds a deadlock-free program of 2-64 procs in rounds:
// random charges and advances, then each proc sets its own flag, may wait
// on its neighbour's (set before any wait of that round) or sleep to a time
// that comes while other procs are mid-charge, and all procs meet at the
// barrier.
func genChargeProgram(seed int64) chargeProgram {
	rng := rand.New(rand.NewSource(seed))
	return genChargeProgramN(rng, 2+rng.Intn(63))
}

// genChargeProgramN is genChargeProgram with n procs.
func genChargeProgramN(rng *rand.Rand, n int) chargeProgram {
	pr := chargeProgram{ops: make([][]progOp, n), flags: n, straggler: -1}
	if rng.Intn(2) == 0 {
		pr.straggler = rng.Intn(n)
	}
	rounds := 1 + rng.Intn(3)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			var ops []progOp
			for k := rng.Intn(6); k > 0; k-- {
				if rng.Intn(4) == 0 {
					ops = append(ops, progOp{kind: opAdvance, durs: []float64{randDur(rng)}})
				} else {
					ops = append(ops, randCharge(rng))
				}
			}
			ops = append(ops, progOp{kind: opSet, flag: i, val: uint64(r + 1)})
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, progOp{kind: opWait, flag: (i + 1) % n, val: uint64(r + 1), lat: randDur(rng)})
			case 1:
				// lat is drawn but unused, so every generated program keeps
				// its RNG stream.
				ops = append(ops, progOp{kind: opSleep, lat: randDur(rng), timeout: 2 * rng.Float64()})
			}
			ops = append(ops, randCharge(rng), progOp{kind: opArrive, lat: randDur(rng)})
			pr.ops[i] = append(pr.ops[i], ops...)
		}
	}
	return pr
}

// genLivelockProgram has procs 0 and 1 run charges and then ping-pong a
// flag pair at zero latency forever, while the others park ahead of them
// inside charges with long sub-charges.
func genLivelockProgram(seed int64) chargeProgram {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(8)
	pr := chargeProgram{ops: make([][]progOp, n), flags: 2, straggler: -1, watchdog: 5000}
	for i := 0; i < n; i++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			pr.ops[i] = append(pr.ops[i], randCharge(rng))
		}
		if i < 2 {
			pr.ops[i] = append(pr.ops[i], progOp{kind: opPingPong, flag: i})
			continue
		}
		long := randCharge(rng)
		for j := range long.durs {
			long.durs[j] += 10
		}
		pr.ops[i] = append(pr.ops[i], long, randCharge(rng))
	}
	return pr
}

type chargeRun struct {
	log    chargeLog
	clocks []float64
	err    error
	counts Counts
}

// run executes the program with each charge driven by drive.
func (pr chargeProgram) run(drive func(p *Proc, c Charge)) chargeRun {
	var out chargeRun
	e := NewEngine()
	e.SetWatchdog(pr.watchdog)
	flags := make([]*Flag, pr.flags)
	for i := range flags {
		flags[i] = NewFlag(fmt.Sprintf("f%d", i))
	}
	bar := NewBarrier("bar", len(pr.ops))
	procs := make([]*Proc, len(pr.ops))
	for i, ops := range pr.ops {
		procs[i] = e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k, op := range ops {
				switch op.kind {
				case opCharge:
					drive(p, &testCharge{log: &out.log, op: k, durs: op.durs, stateful: op.stateful})
				case opAdvance:
					p.Advance(op.durs[0])
				case opSet:
					p.Set(flags[op.flag], op.val)
				case opWait:
					p.Wait(flags[op.flag], op.val, op.lat)
				case opSleep:
					p.AdvanceTo(p.Now() + op.timeout)
				case opArrive:
					p.Arrive(bar, op.lat)
				case opSeq:
					drive(p, &seqCharge{log: &out.log, op: k, steps: op.seq, flags: flags})
				case opSeqPingPong:
					for v := uint64(1); ; v++ {
						drive(p, &seqCharge{log: &out.log, op: k, steps: pingPongSeq(op.flag, v), flags: flags})
					}
				case opPingPong:
					mine, theirs := flags[op.flag], flags[1-op.flag]
					for v := uint64(1); ; v++ {
						if op.flag == 0 {
							p.Set(mine, v)
							p.Wait(theirs, v, 0)
						} else {
							p.Wait(theirs, v, 0)
							p.Set(mine, v)
						}
					}
				}
				out.log.entries = append(out.log.entries, logEntry{p.id, k, -1, p.clock})
			}
		})
	}
	if pr.straggler >= 0 {
		procs[pr.straggler].SetSlowdown(1.5)
	}
	out.err = e.Run()
	out.counts = e.Counts()
	for _, p := range procs {
		out.clocks = append(out.clocks, p.clock)
	}
	return out
}

// diffRuns reports the first difference between two runs, or "".
func diffRuns(got, want chargeRun) string {
	for i := 0; i < min(len(got.log.entries), len(want.log.entries)); i++ {
		if g, w := got.log.entries[i], want.log.entries[i]; g != w {
			return fmt.Sprintf("entry %d: got %+v, want %+v", i, g, w)
		}
	}
	if len(got.log.entries) != len(want.log.entries) {
		return fmt.Sprintf("%d entries, want %d", len(got.log.entries), len(want.log.entries))
	}
	for i := range want.clocks {
		if math.Float64bits(got.clocks[i]) != math.Float64bits(want.clocks[i]) {
			return fmt.Sprintf("proc %d final clock %x, want %x", i, got.clocks[i], want.clocks[i])
		}
	}
	if !reflect.DeepEqual(got.err, want.err) {
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	}
	if got.counts.Pops != want.counts.Pops || got.counts.Resumes > want.counts.Resumes {
		return fmt.Sprintf("counts %+v, want %d pops and at most %d resumes", got.counts, want.counts.Pops, want.counts.Resumes)
	}
	return ""
}

// TestChargeMatchesPerStepAdvance runs seeded random programs twice: with
// each fused op as one Charge (continuations) and as one Advance per
// sub-charge. Every executed sub-charge and op, in order and with its
// clock, every final clock and the run-queue pop count must match bit for
// bit, with no more coroutine resumes. Odd seeds add a charge of a whole
// run of ops to every proc.
func TestChargeMatchesPerStepAdvance(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	engineSteps := 0
	var resumes, perStepResumes uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		pr := genChargeProgram(seed)
		if seed%2 == 1 {
			pr = withRuns(pr, rand.New(rand.NewSource(-seed)))
		}
		got := pr.run((*Proc).Charge)
		want := pr.run(runPerStep)
		resumes += got.counts.Resumes
		perStepResumes += want.counts.Resumes
		if got.err != nil {
			t.Fatalf("seed %d: %v", seed, got.err)
		}
		if d := diffRuns(got, want); d != "" {
			t.Fatalf("seed %d (%d procs): continuations diverged from per-sub-charge Advance: %s", seed, len(pr.ops), d)
		}
		if want.log.engineSteps != 0 {
			t.Fatalf("seed %d: reference form ran %d sub-charges in the engine loop", seed, want.log.engineSteps)
		}
		engineSteps += got.log.engineSteps
	}
	if engineSteps == 0 || resumes >= perStepResumes {
		t.Fatalf("%d sub-charges ran in the engine loop and %d resumes were made (%d per step): the continuation path went untested",
			engineSteps, resumes, perStepResumes)
	}
}

// TestChargeLivelockMatchesPerStepAdvance checks that the watchdog sees the
// same scheduler switches in both forms: the same LivelockError, snapshot
// included, after the same executed sub-charges.
func TestChargeLivelockMatchesPerStepAdvance(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pr := genLivelockProgram(seed)
		got := pr.run((*Proc).Charge)
		want := pr.run(runPerStep)
		var ll *LivelockError
		if !errors.As(got.err, &ll) {
			t.Fatalf("seed %d: error %v, want *LivelockError", seed, got.err)
		}
		if d := diffRuns(got, want); d != "" {
			t.Fatalf("seed %d: livelocked runs diverged: %s", seed, d)
		}
		if wl := want.err.(*LivelockError); ll.Switches != wl.Switches {
			t.Fatalf("seed %d: Switches %d, want %d", seed, ll.Switches, wl.Switches)
		}
	}
}

// TestChargeFaultArmedWhileParked arms a slowdown on a proc parked inside a
// charge: its remaining sub-charges must be stretched exactly as the
// per-sub-charge Advances would be.
func TestChargeFaultArmedWhileParked(t *testing.T) {
	run := func(drive func(p *Proc, c Charge)) chargeRun {
		var out chargeRun
		e := NewEngine()
		victim := e.Spawn("victim", func(p *Proc) {
			drive(p, &testCharge{log: &out.log, durs: []float64{2, 1, 1}, stateful: make([]bool, 3)})
		})
		e.Spawn("armer", func(p *Proc) {
			p.Advance(1)
			victim.SetSlowdown(3)
			p.Advance(10)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		out.clocks = []float64{victim.Now()}
		return out
	}
	got, want := run((*Proc).Charge), run(runPerStep)
	if d := diffRuns(got, want); d != "" {
		t.Fatalf("diverged: %s", d)
	}
	if want.clocks[0] != 8 {
		t.Fatalf("victim ended at %v, want 8 (2 + 3x(1+1))", want.clocks[0])
	}
}

// panicCharge panics in its second sub-charge, which runs in the engine
// loop because the first leaves the proc parked.
type panicCharge struct{ i int }

func (c *panicCharge) Next(p *Proc) (float64, bool, *FlagOp) {
	c.i++
	if c.i == 2 {
		panic("boom in sub-charge")
	}
	return 5, false, nil
}

// runPanicCharge runs rank3, whose charge panics in a sub-charge the engine
// loop runs for it, beside another proc, and returns the *ProcPanic Run
// raised and whether rank3's coroutine was unwound.
func runPanicCharge(t *testing.T) (pp *ProcPanic, unwound bool) {
	t.Helper()
	e := NewEngine()
	e.Spawn("rank3", func(p *Proc) {
		defer func() { unwound = true }()
		p.Charge(&panicCharge{})
	})
	e.Spawn("other", func(p *Proc) {
		p.Advance(1)
		p.Advance(10)
	})
	defer func() {
		var ok bool
		if pp, ok = recover().(*ProcPanic); !ok {
			t.Fatal("expected a *ProcPanic")
		}
	}()
	_ = e.Run()
	return nil, false
}

// TestChargePanicInEngineAttributed: a sub-charge that panics while the
// engine runs it for a parked proc is reported as a *ProcPanic attributed
// to that proc, and the proc's coroutine is still unwound.
func TestChargePanicInEngineAttributed(t *testing.T) {
	pp, unwound := runPanicCharge(t)
	if pp.ProcName != "rank3" || pp.Clock != 5 || pp.Value != "boom in sub-charge" {
		t.Errorf("attribution = %q t=%v value=%v, want rank3 t=5 boom in sub-charge", pp.ProcName, pp.Clock, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "panicCharge") {
		t.Errorf("stack does not show the sub-charge:\n%s", pp.Stack)
	}
	if len(pp.Snapshot) != 2 {
		t.Errorf("snapshot has %d procs, want 2", len(pp.Snapshot))
	}
	if !unwound {
		t.Error("the parked proc's coroutine was not unwound")
	}
}

// TestChargePanicSnapshotShowsRunning: the proc whose sub-charge the loop
// was running when it panicked is the running proc in the snapshot, though
// it never left its run-queue leaf.
func TestChargePanicSnapshotShowsRunning(t *testing.T) {
	pp, _ := runPanicCharge(t)
	want := []State{Running, Ready}
	for i, st := range pp.Snapshot {
		if st.State != want[i] {
			t.Errorf("snapshot %s state %s, want %s", st.Name, st.State, want[i])
		}
	}
}

// infCharge returns an infinite duration from its second sub-charge.
type infCharge struct{ i int }

func (c *infCharge) Next(p *Proc) (float64, bool, *FlagOp) {
	c.i++
	if c.i == 2 {
		return math.Inf(1), true, nil
	}
	return 5, false, nil
}

// TestChargeRejectsInfiniteDtInEngine: the engine loop applies the same dt
// check as Advance.
func TestChargeRejectsInfiniteDtInEngine(t *testing.T) {
	e := NewEngine()
	e.Spawn("rank1", func(p *Proc) { p.Charge(&infCharge{}) })
	e.Spawn("other", func(p *Proc) {
		p.Advance(1)
		p.Advance(10)
	})
	defer func() {
		pp, ok := recover().(*ProcPanic)
		if !ok || pp.ProcName != "rank1" || !strings.Contains(fmt.Sprint(pp.Value), "invalid dt +Inf") {
			t.Fatalf("got %v, want a *ProcPanic of rank1 for invalid dt +Inf", pp)
		}
	}()
	_ = e.Run()
}

// mustPanic runs f and reports whether it panicked with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if pp, ok := r.(*ProcPanic); ok {
			r = pp.Value
		}
		if !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestSetSlowdownRejectsNonFinite: an infinite factor used to be accepted,
// and Advance(0) then set the clock to NaN (0·Inf).
func TestSetSlowdownRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1} {
		e := NewEngine()
		p := e.Spawn("p", func(*Proc) {})
		mustPanic(t, "must be positive and finite", func() { p.SetSlowdown(f) })
	}
}

// TestAdvanceRejectsNonFiniteDt: an infinite dt used to be accepted and
// gave an infinite MaxClock; a finite dt stretched past the float range by
// a slowdown likewise.
func TestAdvanceRejectsNonFiniteDt(t *testing.T) {
	cases := []struct {
		name     string
		slowdown float64
		dt       float64
	}{
		{"inf", 0, math.Inf(1)},
		{"nan", 0, math.NaN()},
		{"negative", 0, -1},
		{"overflow after slowdown", 1e300, 1e10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			p := e.Spawn("p", func(p *Proc) { p.Advance(tc.dt) })
			if tc.slowdown > 0 {
				p.SetSlowdown(tc.slowdown)
			}
			mustPanic(t, "invalid dt", func() { _ = e.Run() })
		})
	}
}
