package mpi

import (
	"fmt"
	"strings"
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/topo"
)

// epochRingBody is a small but representative collective body: every rank
// sends a message around a ring and reduces it into a private buffer, then
// barriers. It touches the p2p pipes, flags and the barrier, so any of them
// issued through a stale communicator would trip the epoch check.
func epochRingBody(elems int64) func(r *Rank) {
	return func(r *Rank) {
		w := r.World()
		buf := r.NewBuffer("ring", elems)
		r.FillPattern(buf, float64(r.ID()))
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		r.Send(w, next, buf, 0, elems)
		r.RecvReduce(w, prev, buf, 0, elems, Sum)
		r.Compute(1e-5)
		w.Barrier().Arrive(r.Proc())
	}
}

func TestEpochStartsAtZeroAndAdvances(t *testing.T) {
	m := NewMachineWithSpares(topo.NodeA(), 4, 2, false)
	if m.Epoch() != 0 {
		t.Fatalf("fresh machine epoch = %d, want 0", m.Epoch())
	}
	if m.World().Epoch() != 0 {
		t.Fatalf("fresh world epoch = %d, want 0", m.World().Epoch())
	}
	if _, err := m.Quarantine(1); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch after quarantine = %d, want 1", m.Epoch())
	}
	if m.World().Epoch() != 1 {
		t.Fatalf("world epoch after quarantine = %d, want 1", m.World().Epoch())
	}
	nm, _, err := m.Shrink([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if nm.Epoch() != 2 {
		t.Fatalf("epoch after shrink = %d, want 2", nm.Epoch())
	}
	gm, _, err := nm.Grow([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if gm.Epoch() != 3 {
		t.Fatalf("epoch after grow = %d, want 3", gm.Epoch())
	}
	if gm.World().Epoch() != 3 || gm.SocketComm(0).Epoch() != 3 {
		t.Fatalf("grown comms not restamped: world=%d socket=%d",
			gm.World().Epoch(), gm.SocketComm(0).Epoch())
	}
}

// TestEpochErrorExactFormat pins the typed stale-communicator failure:
// holding a communicator across a membership change and using it must panic
// with *EpochError naming the stale and current epochs, in exactly this
// rendering.
func TestEpochErrorExactFormat(t *testing.T) {
	m := NewMachineWithSpares(topo.NodeA(), 4, 1, false)
	stale := m.World()
	if _, err := m.Quarantine(2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("stale communicator accepted an operation")
		}
		ee, ok := r.(*EpochError)
		if !ok {
			t.Fatalf("panic value %T, want *EpochError", r)
		}
		if ee.Comm != "world" || ee.Stale != 0 || ee.Current != 1 {
			t.Fatalf("EpochError = %+v", ee)
		}
		const want = `mpi: stale communicator "world": built at epoch 0, machine is at epoch 1 (membership changed; re-acquire communicators from the machine)`
		if got := ee.Error(); got != want {
			t.Fatalf("message:\n got %q\nwant %q", got, want)
		}
	}()
	stale.Shared(Key{Label: "test", Name: "x"}, 0, 8)
}

// Every resource accessor on a stale communicator must trip the check, not
// just Shared — a single silent path would let cross-epoch traffic through.
func TestEpochCheckCoversAllAccessors(t *testing.T) {
	accessors := map[string]func(c *Comm){
		"Shared":       func(c *Comm) { c.Shared(Key{Label: "test", Name: "x"}, 0, 8) },
		"Segments":     func(c *Comm) { c.Segments(Key{Label: "test", Name: "seg%d"}, 8) },
		"SocketShared": func(c *Comm) { c.SocketShared(Key{Label: "test", Name: "part"}, 8) },
		"Flags":        func(c *Comm) { c.Flags(Key{Label: "test", Name: "f"}) },
		"FlagSets":     func(c *Comm) { c.FlagSets(Key{Label: "test", Name: "f%d"}, 2) },
		"Publish":      func(c *Comm) { c.Publish(&Rank{machine: c.machine, id: 0}, Key{Label: "test", Name: "p"}, nil) },
		"Peer":         func(c *Comm) { c.Peer(Key{Label: "test", Name: "p"}, 0) },
		"Counter":      func(c *Comm) { c.Counter(&Rank{machine: c.machine, id: 0}, Key{Label: "test", Name: "k"}) },
		"Barrier":      func(c *Comm) { c.Barrier() },
		"channel":      func(c *Comm) { c.channel(0, 1) },
	}
	for name, op := range accessors {
		m := NewMachineWithSpares(topo.NodeA(), 4, 1, false)
		stale := m.World()
		if _, err := m.Quarantine(1); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if _, ok := recover().(*EpochError); !ok {
					t.Errorf("%s did not raise *EpochError", name)
				}
			}()
			op(stale)
		}()
	}
}

// A stale communicator used inside Run surfaces as a diagnosable *RunError,
// not a bare crash: the EpochError is reachable underneath it.
func TestEpochErrorInsideRunIsDiagnosed(t *testing.T) {
	m := NewMachineWithSpares(topo.NodeA(), 4, 1, false)
	stale := m.World()
	if _, err := m.Quarantine(0); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run(func(r *Rank) {
		stale.Barrier().Arrive(r.Proc())
	})
	if err == nil {
		t.Fatal("run over a stale communicator succeeded")
	}
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("error %T, want *RunError", err)
	}
	if !strings.Contains(re.Error(), "stale communicator") {
		t.Fatalf("diagnosis does not name the stale communicator: %v", re)
	}
}

func TestGrowIsDualOfShrink(t *testing.T) {
	m := NewMachineWithSpares(topo.NodeA(), 6, 2, false)
	nm, _, err := m.Shrink([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Grow back the two excluded cores: survivors keep cores and numbering,
	// the re-added cores become the last ranks in ascending core order.
	gm, oldOf, err := nm.Grow([]int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if gm.Size() != 6 {
		t.Fatalf("grown size = %d, want 6", gm.Size())
	}
	wantCores := []int{0, 1, 3, 5, 2, 4}
	for i, c := range gm.RankCores {
		if c != wantCores[i] {
			t.Fatalf("grown cores = %v, want %v", gm.RankCores, wantCores)
		}
	}
	wantOld := []int{0, 1, 2, 3, -1, -1}
	for i, o := range oldOf {
		if o != wantOld[i] {
			t.Fatalf("oldOf = %v, want %v", oldOf, wantOld)
		}
	}
	// The grown world is a working communicator.
	if _, err := gm.Run(epochRingBody(256)); err != nil {
		t.Fatal(err)
	}
}

func TestGrowConsumesMatchingSpares(t *testing.T) {
	m := NewMachineWithSpares(topo.NodeA(), 4, 3, false) // spares: cores 4,5,6
	gm, _, err := m.Grow([]int{5})
	if err != nil {
		t.Fatal(err)
	}
	if gm.Size() != 5 || gm.RankCores[4] != 5 {
		t.Fatalf("grown binding = %v", gm.RankCores)
	}
	if gm.Spares() != 2 {
		t.Fatalf("spares after grow = %d, want 2 (core 5 consumed)", gm.Spares())
	}
}

func TestGrowErrors(t *testing.T) {
	m := NewMachine(topo.NodeA(), 4, false)
	if _, _, err := m.Grow(nil); err == nil {
		t.Error("empty grow accepted")
	}
	if _, _, err := m.Grow([]int{2}); err == nil {
		t.Error("grow onto an occupied core accepted")
	}
	if _, _, err := m.Grow([]int{99}); err == nil {
		t.Error("grow onto an out-of-range core accepted")
	}
	if _, _, err := m.Grow([]int{5, 5}); err == nil {
		t.Error("duplicate grow core accepted")
	}
}

// runLog renders a run's outcome at full float precision: the makespan plus
// every rank's final clock. Byte-equality of these logs is the round-trip
// determinism bar — any drift in the rebuilt binding would show here.
func runLog(t *testing.T, m *Machine, body func(r *Rank)) string {
	t.Helper()
	mk, err := m.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%.17g\n", mk)
	for i, c := range m.RankClocks() {
		fmt.Fprintf(&b, "rank%d clock=%.17g\n", i, c)
	}
	return b.String()
}

// TestShrinkGrowRoundTripExact: shrinking the tail rank off and growing its
// core back must restore the original binding, and the rebuilt machine must
// reproduce the original machine's makespan exactly — twice, with
// byte-identical cold- and warm-run logs.
func TestShrinkGrowRoundTripExact(t *testing.T) {
	body := epochRingBody(2048)
	ref := NewMachine(topo.NodeA(), 8, false)
	refCold := runLog(t, ref, body)
	refWarm := runLog(t, ref, body)

	m := NewMachine(topo.NodeA(), 8, false)
	sm, _, err := m.Shrink([]int{7})
	if err != nil {
		t.Fatal(err)
	}
	gm, _, err := sm.Grow([]int{7})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range gm.RankCores {
		if c != m.RankCores[i] {
			t.Fatalf("round trip changed binding: %v vs %v", gm.RankCores, m.RankCores)
		}
	}
	if gm.Epoch() != 2 {
		t.Fatalf("round-trip epoch = %d, want 2", gm.Epoch())
	}
	gotCold := runLog(t, gm, body)
	gotWarm := runLog(t, gm, body)
	if gotCold != refCold {
		t.Fatalf("cold round-trip log diverged:\n got:\n%s\nwant:\n%s", gotCold, refCold)
	}
	if gotWarm != refWarm {
		t.Fatalf("warm round-trip log diverged:\n got:\n%s\nwant:\n%s", gotWarm, refWarm)
	}
}

// The round trip must also hold in real-data mode, where buffers carry
// actual values: correctness and timing both survive shrink+grow.
func TestShrinkGrowRoundTripRealData(t *testing.T) {
	elems := int64(512)
	body := func(r *Rank) {
		w := r.World()
		buf := r.NewBuffer("v", elems)
		r.FillPattern(buf, float64(r.ID()+1))
		acc := w.Shared(Key{Label: "test", Name: "acc"}, 0, elems)
		fs := w.Flags(Key{Label: "test", Name: "turn"})
		if r.ID() == 0 {
			r.CopyElems(acc, 0, buf, 0, elems, memmodel.Temporal)
		} else {
			fs[r.ID()-1].Wait(r.Proc(), r.Core(), uint64(r.ID()))
			r.AccumulateElems(acc, 0, buf, 0, elems, Sum, memmodel.Temporal)
		}
		fs[r.ID()].Set(r.Proc(), uint64(r.ID())+1)
		w.Barrier().Arrive(r.Proc())
	}
	m := NewMachine(topo.NodeA(), 4, true)
	want := runLog(t, m, body)

	m2 := NewMachine(topo.NodeA(), 4, true)
	sm, _, err := m2.Shrink([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	gm, _, err := sm.Grow([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if got := runLog(t, gm, body); got != want {
		t.Fatalf("real-data round trip diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
}
