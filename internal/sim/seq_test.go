package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// seqStep is one step of a generated sequence charge: a sub-charge of dur
// (scaled by the shared state when stateful), or a wait for flag to reach
// val with latency lat (wait) or a set of flag to val (set).
type seqStep struct {
	wait, set bool
	dur       float64
	stateful  bool
	flag      int
	val       uint64
	lat       float64
}

// seqCharge is a charge of sub-charges, waits and sets. Every step is
// logged when Next hands it out, which is when the proc reaches it.
type seqCharge struct {
	log   *chargeLog
	op    int
	steps []seqStep
	flags []*Flag
	i     int
	f     FlagOp
}

func (c *seqCharge) Next(p *Proc) (float64, bool, *FlagOp) {
	if p.cont != nil {
		c.log.engineSteps++
	}
	s := c.steps[c.i]
	c.log.entries = append(c.log.entries, logEntry{p.id, c.op, c.i, p.clock})
	c.i++
	last := c.i == len(c.steps)
	if s.wait || s.set {
		if s.wait && p.cont != nil && c.flags[s.flag].val < s.val {
			c.log.engineBlocks++
		}
		c.f = FlagOp{Set: s.set, Flag: c.flags[s.flag], Val: s.val}
		return s.lat, last, &c.f
	}
	dt := s.dur
	if s.stateful {
		dt *= 1 + float64(c.log.shared%3)/4
	}
	c.log.shared = c.log.shared*31 + uint64(p.id) + 1
	return dt, last, nil
}

// randSubCharges appends 0 to max-1 random sub-charges to steps.
func randSubCharges(rng *rand.Rand, steps []seqStep, max int) []seqStep {
	for k := rng.Intn(max); k > 0; k-- {
		steps = append(steps, seqStep{dur: randDur(rng), stateful: rng.Intn(2) == 0})
	}
	return steps
}

// genSeqProgram builds a program of 2-64 procs whose charges are
// sequences mixing sub-charges with flag waits and sets, in rounds that
// end at the barrier. A round is one of two deadlock-free patterns, drawn
// for all procs alike:
//   - each proc's sequence sets its own flag to the round, then waits for
//     one or two other procs' flags to reach it;
//   - an MA chain: in each of 1-4 steps a proc waits for its neighbour's
//     chain flag to reach the step, charges, and sets its own chain flag
//     to the next one.
//
// Either way some waits are met at their turn and others block, on the
// proc's stack or in the engine loop. With stuck, one proc's last
// sequence also waits, mid-sequence or as its last step, for a value no
// proc ever sets.
func genSeqProgram(seed int64, stuck bool) chargeProgram {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(63)
	pr := chargeProgram{ops: make([][]progOp, n), flags: 2 * n, straggler: -1}
	if rng.Intn(2) == 0 {
		pr.straggler = rng.Intn(n)
	}
	chained := uint64(0) // chain flag value every proc reached so far
	rounds := 1 + rng.Intn(3)
	for r := 0; r < rounds; r++ {
		chain, links := rng.Intn(2) == 0, 1+rng.Intn(4)
		for i := 0; i < n; i++ {
			var ops []progOp
			for k := rng.Intn(3); k > 0; k-- {
				ops = append(ops, randCharge(rng))
			}
			steps := randSubCharges(rng, nil, 4)
			if chain {
				for j := 0; j < links; j++ {
					steps = append(steps, seqStep{wait: true, flag: n + (i+1)%n, val: chained + uint64(j), lat: randDur(rng)})
					steps = randSubCharges(rng, steps, 4)
					steps = append(steps, seqStep{set: true, flag: n + i, val: chained + uint64(j) + 1})
				}
			} else {
				steps = append(steps, seqStep{set: true, flag: i, val: uint64(r + 1)})
				for k := 1 + rng.Intn(2); k > 0; k-- {
					steps = randSubCharges(rng, steps, 3)
					steps = append(steps, seqStep{wait: true, flag: (i + 1 + rng.Intn(n-1)) % n, val: uint64(r + 1), lat: randDur(rng)})
				}
			}
			steps = randSubCharges(rng, steps, 3)
			ops = append(ops, progOp{kind: opSeq, seq: steps}, randCharge(rng), progOp{kind: opArrive, lat: randDur(rng)})
			pr.ops[i] = append(pr.ops[i], ops...)
		}
		if chain {
			chained += uint64(links)
		}
	}
	if stuck {
		i := rng.Intn(n)
		ops := pr.ops[i]
		seq := &ops[len(ops)-3] // the last round's sequence
		wait := seqStep{wait: true, flag: rng.Intn(n), val: 1 << 40, lat: randDur(rng)}
		at := len(seq.seq)
		if rng.Intn(2) == 0 {
			at = rng.Intn(at + 1)
		}
		seq.seq = append(seq.seq[:at:at], append([]seqStep{wait}, seq.seq[at:]...)...)
	}
	return pr
}

// genSeqLivelockProgram has procs 0 and 1 ping-pong a flag pair at zero
// latency forever, each exchange one sequence charge with sub-charges of
// no duration around it, while the others park ahead of them inside
// charges with long sub-charges.
func genSeqLivelockProgram(seed int64) chargeProgram {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(8)
	pr := chargeProgram{ops: make([][]progOp, n), flags: 2, straggler: -1, watchdog: 5000}
	for i := 0; i < n; i++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			pr.ops[i] = append(pr.ops[i], randCharge(rng))
		}
		if i < 2 {
			pr.ops[i] = append(pr.ops[i], progOp{kind: opSeqPingPong, flag: i})
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

// pingPongSeq is one exchange of the sequence ping-pong for the proc
// owning flag mine (0 or 1): proc 0 sets then waits, proc 1 waits then
// sets.
func pingPongSeq(mine int, v uint64) []seqStep {
	set := seqStep{set: true, flag: mine, val: v}
	wait := seqStep{wait: true, flag: 1 - mine, val: v}
	zero := seqStep{}
	if mine == 0 {
		return []seqStep{zero, set, zero, wait, zero}
	}
	return []seqStep{zero, wait, zero, set, zero}
}

// TestSequenceChargeMatchesPerStep runs seeded programs whose charges
// mix sub-charges, met and unmet waits and sets across procs twice: each
// sequence as one Charge and as the same steps issued one by one with
// Advance, Wait and Set. Every executed step, in order and with its clock,
// every final clock and the run-queue pop count must match bit for bit,
// with no more coroutine resumes; odd seeds end with a wait nobody
// satisfies, and both forms must then report the same DeadlockError.
func TestSequenceChargeMatchesPerStep(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	var engineSteps, engineBlocks int
	var resumes, perStepResumes uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		stuck := seed%2 == 1
		pr := genSeqProgram(seed, stuck)
		got := pr.run((*Proc).Charge)
		want := pr.run(runPerStep)
		resumes += got.counts.Resumes
		perStepResumes += want.counts.Resumes
		var dl *DeadlockError
		if stuck != errors.As(got.err, &dl) {
			t.Fatalf("seed %d (stuck=%v): error %v", seed, stuck, got.err)
		}
		if stuck && !strings.Contains(dl.Error(), ">= 1099511627776") {
			t.Fatalf("seed %d: deadlock report %q does not name the stuck wait", seed, dl)
		}
		if d := diffRuns(got, want); d != "" {
			t.Fatalf("seed %d (%d procs): sequences diverged from per-step Advance, Wait and Set: %s", seed, len(pr.ops), d)
		}
		if want.log.engineSteps != 0 {
			t.Fatalf("seed %d: reference form ran %d steps in the engine loop", seed, want.log.engineSteps)
		}
		engineSteps += got.log.engineSteps
		engineBlocks += got.log.engineBlocks
	}
	if engineSteps == 0 || engineBlocks == 0 || resumes >= perStepResumes {
		t.Fatalf("%d steps (%d unmet waits) ran in the engine loop and %d resumes were made (%d per step): the continuation path went untested",
			engineSteps, engineBlocks, resumes, perStepResumes)
	}
}

// TestSequenceLivelockMatchesPerStep checks that the watchdog sees the
// same scheduler switches when a ping-pong's sets and waits are sequence
// steps: the same LivelockError, snapshot included, after the same
// executed steps.
func TestSequenceLivelockMatchesPerStep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pr := genSeqLivelockProgram(seed)
		got := pr.run((*Proc).Charge)
		want := pr.run(runPerStep)
		var ll *LivelockError
		if !errors.As(got.err, &ll) {
			t.Fatalf("seed %d: error %v, want *LivelockError", seed, got.err)
		}
		if d := diffRuns(got, want); d != "" {
			t.Fatalf("seed %d: livelocked runs diverged: %s", seed, d)
		}
		if wl := want.err.(*LivelockError); ll.Switches != wl.Switches || !reflect.DeepEqual(ll.Procs, wl.Procs) {
			t.Fatalf("seed %d: %v, want %v", seed, ll, wl)
		}
	}
}

// TestSequenceStuckWaitNamesFlag: a sequence wait nobody satisfies leaves
// its proc blocked on the flag, and the deadlock report names the flag and
// the value it waits for, whether the wait blocks on the proc's stack or
// in the engine loop and whether it is the charge's last step or not.
func TestSequenceStuckWaitNamesFlag(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []seqStep
	}{
		{"first and last step", []seqStep{{wait: true, flag: 0, val: 7}}},
		{"mid-sequence after a park", []seqStep{{dur: 5}, {wait: true, flag: 0, val: 7}, {dur: 1}}},
		{"last step after a park", []seqStep{{dur: 5}, {set: true, flag: 1, val: 1}, {wait: true, flag: 0, val: 7}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log chargeLog
			e := NewEngine()
			flags := []*Flag{NewFlag("stuck"), NewFlag("other")}
			e.Spawn("waiter", func(p *Proc) {
				p.Charge(&seqCharge{log: &log, steps: tc.steps, flags: flags})
			})
			e.Spawn("setter", func(p *Proc) {
				p.Advance(1)
				p.Set(flags[0], 3)
				p.Advance(10)
			})
			err := e.Run()
			var dl *DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("error %v, want *DeadlockError", err)
			}
			if want := `sim: deadlock, 1 of 2 procs blocked: waiter(flag "stuck" >= 7 (now 3))`; err.Error() != want {
				t.Fatalf("%v\nwant %s", err, want)
			}
		})
	}
}

// TestSequenceWaitReleasedMidCharge: a proc blocked on an unmet wait in
// the middle of a sequence is released by a Set with its clock raised to
// the set time plus its latency, and the engine runs the rest of its
// sequence without resuming its coroutine in between: 5 resumes where the
// per-step form makes 7.
func TestSequenceWaitReleasedMidCharge(t *testing.T) {
	run := func(drive func(p *Proc, c Charge)) (float64, Counts, chargeLog) {
		var log chargeLog
		e := NewEngine()
		flags := []*Flag{NewFlag("f")}
		waiter := e.Spawn("waiter", func(p *Proc) {
			drive(p, &seqCharge{log: &log, flags: flags, steps: []seqStep{
				{dur: 1},
				{wait: true, flag: 0, val: 1, lat: 0.5},
				{dur: 2},
				{dur: 2},
			}})
		})
		e.Spawn("setter", func(p *Proc) {
			p.Advance(3)
			p.Set(flags[0], 1)
			p.Advance(1)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return waiter.Now(), e.Counts(), log
	}
	end, counts, log := run((*Proc).Charge)
	wantEnd, wantCounts, wantLog := run(runPerStep)
	if end != 7.5 || wantEnd != 7.5 {
		t.Fatalf("waiter ended at %v (per step %v), want 7.5 (set at 3 + 0.5 + 2 + 2)", end, wantEnd)
	}
	if !reflect.DeepEqual(log.entries, wantLog.entries) {
		t.Fatalf("steps %v, per step %v", log.entries, wantLog.entries)
	}
	if log.entries[2] != (logEntry{0, 0, 2, 3.5}) {
		t.Fatalf("step after the wait ran as %+v, want at t=3.5", log.entries[2])
	}
	if counts.Pops != wantCounts.Pops || counts.Resumes != 5 || wantCounts.Resumes != 7 {
		t.Fatalf("counts %+v, per step %+v: want equal pops and 5 resumes against 7", counts, wantCounts)
	}
}
