package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestEmptyPlan(t *testing.T) {
	var pl *Plan
	if !pl.Empty() {
		t.Error("nil plan should be empty")
	}
	if !(&Plan{Name: "x"}).Empty() {
		t.Error("plan with no faults should be empty")
	}
	if (&Plan{Stalls: []Stall{{Rank: 0}}}).Empty() {
		t.Error("plan with a stall is not empty")
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"straggler rank high", Plan{Stragglers: []Straggler{{Rank: 8, Factor: 2}}}, "outside world"},
		{"straggler rank negative", Plan{Stragglers: []Straggler{{Rank: -1, Factor: 2}}}, "outside world"},
		{"straggler zero factor", Plan{Stragglers: []Straggler{{Rank: 0, Factor: 0}}}, "invalid factor"},
		{"straggler NaN factor", Plan{Stragglers: []Straggler{{Rank: 0, Factor: math.NaN()}}}, "invalid factor"},
		{"stall rank high", Plan{Stalls: []Stall{{Rank: 99}}}, "outside world"},
		{"stall negative time", Plan{Stalls: []Stall{{Rank: 0, At: -1}}}, "invalid time"},
		{"corruption rank high", Plan{Corruptions: []Corruption{{Rank: 8}}}, "outside world"},
		{"corruption bad bit", Plan{Corruptions: []Corruption{{Rank: 0, Bit: 64}}}, "bit 64"},
		{"corruption negative elem", Plan{Corruptions: []Corruption{{Rank: 0, Elem: -2}}}, "negative element"},
	}
	for _, c := range cases {
		err := c.plan.Validate(8)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
	good := Plan{
		Stragglers:  []Straggler{{Rank: 1, Factor: 3}},
		Stalls:      []Stall{{Rank: 2, At: 1e-5, Crash: true}},
		Corruptions: []Corruption{{Rank: 3, SharedWrite: 2, Elem: 100, Bit: 52}},
	}
	if err := good.Validate(8); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestInjectorLookups(t *testing.T) {
	in := NewInjector(&Plan{
		Stragglers: []Straggler{{Rank: 2, Factor: 4}},
		Stalls:     []Stall{{Rank: 5, At: 0.5, Crash: true}},
	})
	in.BeginRun(8)
	in.LogStraggler(2, 4)
	if s, ok := in.StallFor(5); !ok || s.At != 0.5 || !s.Crash {
		t.Errorf("StallFor(5) = %+v,%v, want crash at 0.5", s, ok)
	}
	if _, ok := in.StallFor(0); ok {
		t.Error("StallFor(0) should find nothing")
	}
	evs := in.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (straggler + crash armed)", len(evs))
	}
	if evs[0].Kind != "straggler" || evs[0].Rank != 2 || evs[0].Detail != "virtual time stretched x4" {
		t.Errorf("event 0 = %v", evs[0])
	}
	if evs[1].Kind != "crash" || evs[1].Rank != 5 {
		t.Errorf("event 1 = %v", evs[1])
	}
}

func TestNilPlanInjectorIsNoop(t *testing.T) {
	in := NewInjector(nil)
	in.BeginRun(4)
	if _, ok := in.StallFor(0); ok {
		t.Error("nil plan must not stall ranks")
	}
	buf := []float64{1, 2, 3}
	if in.CorruptShared(0, 0, "b", buf) {
		t.Error("nil plan must not corrupt")
	}
	if !reflect.DeepEqual(buf, []float64{1, 2, 3}) {
		t.Error("buffer mutated by no-op injector")
	}
}

func TestCorruptSharedCountsPerRankWrites(t *testing.T) {
	in := NewInjector(&Plan{Corruptions: []Corruption{
		{Rank: 1, SharedWrite: 2, Elem: 0, Bit: 0},
	}})
	in.BeginRun(4)
	buf := []float64{2}
	// Rank 0's writes must not consume rank 1's counter.
	for i := 0; i < 5; i++ {
		if in.CorruptShared(0, 0, "b", buf) {
			t.Fatal("rank 0 write corrupted")
		}
	}
	if in.CorruptShared(1, 1.0, "b", buf) { // write #0
		t.Fatal("write 0 corrupted, want write 2")
	}
	if in.CorruptShared(1, 1.1, "b", buf) { // write #1
		t.Fatal("write 1 corrupted, want write 2")
	}
	if !in.CorruptShared(1, 1.2, "b", buf) { // write #2
		t.Fatal("write 2 not corrupted")
	}
	// Bit 0 of 2.0 flips the mantissa LSB: value changes but stays finite.
	if buf[0] == 2 || math.IsNaN(buf[0]) {
		t.Errorf("flip produced %v", buf[0])
	}
	if in.CorruptShared(1, 1.3, "b", buf) { // write #3: one-shot
		t.Fatal("corruption fired twice")
	}
	evs := in.Events()
	if len(evs) != 1 || evs[0].Kind != "bitflip" || evs[0].Clock != 1.2 {
		t.Errorf("events = %v, want one bitflip at t=1.2", evs)
	}
}

func TestCorruptSharedElemClamped(t *testing.T) {
	in := NewInjector(&Plan{Corruptions: []Corruption{
		{Rank: 0, SharedWrite: 0, Elem: 1000, Bit: 63},
	}})
	in.BeginRun(1)
	buf := []float64{1, 2, 3} // elem 1000 % 3 = 1
	if !in.CorruptShared(0, 0, "b", buf) {
		t.Fatal("flip did not land")
	}
	if buf[0] != 1 || buf[2] != 3 {
		t.Error("flip hit the wrong element")
	}
	if buf[1] != -2 { // bit 63 is the sign bit
		t.Errorf("sign flip gave %v, want -2", buf[1])
	}
}

func TestBeginRunResetsState(t *testing.T) {
	in := NewInjector(&Plan{Corruptions: []Corruption{
		{Rank: 0, SharedWrite: 0, Elem: 0, Bit: 0},
	}})
	buf := []float64{1}
	in.BeginRun(2)
	if !in.CorruptShared(0, 0, "b", buf) {
		t.Fatal("first run: flip missing")
	}
	in.BeginRun(2)
	if len(in.Events()) != 0 {
		t.Error("BeginRun kept stale events")
	}
	if !in.CorruptShared(0, 0, "b", buf) {
		t.Fatal("second run: write counter not reset")
	}
}

func TestGenPlanDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a := GenPlan(seed, 8, 1e-3)
		b := GenPlan(seed, 8, 1e-3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plans differ:\n%v\n%v", seed, a, b)
		}
		if err := a.Validate(8); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v", seed, err)
		}
		if a.Empty() {
			t.Fatalf("seed %d: generated empty plan", seed)
		}
	}
}

func TestGenPlanCoversAllKinds(t *testing.T) {
	var sawStraggler, sawStall, sawCrash, sawFlip bool
	for seed := uint64(0); seed < 200; seed++ {
		pl := GenPlan(seed, 8, 1e-3)
		if len(pl.Stragglers) > 0 {
			sawStraggler = true
		}
		for _, s := range pl.Stalls {
			if s.Crash {
				sawCrash = true
			} else {
				sawStall = true
			}
		}
		if len(pl.Corruptions) > 0 {
			sawFlip = true
		}
	}
	if !sawStraggler || !sawStall || !sawCrash || !sawFlip {
		t.Errorf("200 seeds missed a fault kind: straggler=%v stall=%v crash=%v flip=%v",
			sawStraggler, sawStall, sawCrash, sawFlip)
	}
}

func TestPlanClass(t *testing.T) {
	cases := []struct {
		plan *Plan
		want string
	}{
		{nil, "healthy"},
		{&Plan{}, "healthy"},
		{&Plan{Stragglers: []Straggler{{Rank: 0, Factor: 2}}}, "straggler"},
		{&Plan{Stalls: []Stall{{Rank: 0}}}, "stall"},
		{&Plan{Stalls: []Stall{{Rank: 0, Crash: true}}}, "crash"},
		{&Plan{Corruptions: []Corruption{{Rank: 0}}}, "bitflip"},
		{&Plan{Stragglers: []Straggler{{Rank: 0, Factor: 2}},
			Corruptions: []Corruption{{Rank: 1}}}, "mixed"},
		{&Plan{Stalls: []Stall{{Rank: 0}, {Rank: 1, Crash: true}}}, "mixed"},
	}
	for _, c := range cases {
		if got := c.plan.Class(); got != c.want {
			t.Errorf("Class(%v) = %q, want %q", c.plan, got, c.want)
		}
	}
}

func TestPlanVictims(t *testing.T) {
	pl := &Plan{
		Stragglers:  []Straggler{{Rank: 5, Factor: 2}},
		Stalls:      []Stall{{Rank: 1}},
		Corruptions: []Corruption{{Rank: 5}, {Rank: 3}},
	}
	if got := pl.Victims(); !reflect.DeepEqual(got, []int{1, 3, 5}) {
		t.Errorf("Victims() = %v, want [1 3 5]", got)
	}
	if (&Plan{}).Victims() != nil {
		t.Error("empty plan has victims")
	}
}

func TestPlanRestrict(t *testing.T) {
	pl := &Plan{
		Name:        "r",
		Stragglers:  []Straggler{{Rank: 0, Factor: 2}, {Rank: 3, Factor: 4}},
		Stalls:      []Stall{{Rank: 2, At: 0.5}},
		Corruptions: []Corruption{{Rank: 1, Bit: 5}},
	}
	// Rank 2 excluded: survivors 0,1,3 become new ranks 0,1,2.
	got := pl.Restrict([]int{0, 1, 3})
	want := &Plan{
		Name:        "r",
		Stragglers:  []Straggler{{Rank: 0, Factor: 2}, {Rank: 2, Factor: 4}},
		Corruptions: []Corruption{{Rank: 1, Bit: 5}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Restrict = %v, want %v", got, want)
	}
	if err := got.Validate(3); err != nil {
		t.Errorf("restricted plan invalid: %v", err)
	}
	if (&Plan{}).Restrict([]int{0}) != nil {
		t.Error("restricting an empty plan should give nil")
	}
}

func TestPlanWithoutFiredCorruptions(t *testing.T) {
	pl := &Plan{
		Name:        "t",
		Stragglers:  []Straggler{{Rank: 0, Factor: 2}},
		Corruptions: []Corruption{{Rank: 1, Bit: 5}, {Rank: 2, Bit: 6}},
	}
	got := pl.WithoutFiredCorruptions([]Event{
		{Kind: "bitflip", Rank: 1},
		{Kind: "straggler", Rank: 2}, // non-flip events must not drop rank 2's flip
	})
	if len(got.Corruptions) != 1 || got.Corruptions[0].Rank != 2 {
		t.Errorf("corruptions after drop = %v, want only rank 2", got.Corruptions)
	}
	if len(got.Stragglers) != 1 {
		t.Error("stragglers must survive the drop")
	}
	// No fired flips: plan returned unchanged (same pointer is fine).
	if pl.WithoutFiredCorruptions(nil) != pl {
		t.Error("no-op drop should return the plan unchanged")
	}
}

func TestPlanWithoutStraggler(t *testing.T) {
	pl := &Plan{
		Stragglers: []Straggler{{Rank: 1, Factor: 2}, {Rank: 4, Factor: 8}},
		Stalls:     []Stall{{Rank: 0, At: 1}},
	}
	got := pl.WithoutStraggler(1)
	if len(got.Stragglers) != 1 || got.Stragglers[0].Rank != 4 {
		t.Errorf("stragglers = %v, want only rank 4", got.Stragglers)
	}
	if len(got.Stalls) != 1 {
		t.Error("stalls must survive")
	}
}

func TestPlanString(t *testing.T) {
	pl := &Plan{
		Name:        "demo",
		Stragglers:  []Straggler{{Rank: 1, Factor: 4}},
		Stalls:      []Stall{{Rank: 2, At: 0.5, Crash: true}},
		Corruptions: []Corruption{{Rank: 3, SharedWrite: 1, Elem: 7, Bit: 52}},
	}
	s := pl.String()
	for _, want := range []string{"demo", "straggler(rank1 x4)", "crash(rank2 at t=0.5)", "bitflip(rank3 write#1 elem7 bit52)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
