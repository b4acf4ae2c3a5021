package shm

import (
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

func testModel() *memmodel.Model {
	node := topo.NodeA()
	cores := make([]int, node.Cores())
	for i := range cores {
		cores[i] = i
	}
	return memmodel.New(node, cores)
}

func TestArenaAllocShapes(t *testing.T) {
	m := testModel()
	a := NewArena(m, "test", true)
	b := a.Alloc("seg", 1, 100)
	if b.Space != memmodel.Shared {
		t.Errorf("space = %v, want shared", b.Space)
	}
	if b.Home != 1 {
		t.Errorf("home = %d, want 1", b.Home)
	}
	if !b.Real() || b.Elems != 100 {
		t.Errorf("buffer not real or wrong size")
	}
	p := a.AllocPinned("ring", 0, 10)
	if !p.Pinned {
		t.Error("AllocPinned did not pin")
	}
}

func TestArenaModelOnlyMode(t *testing.T) {
	m := testModel()
	a := NewArena(m, "test", false)
	if a.Alloc("seg", 0, 100).Real() {
		t.Error("model-only arena allocated real data")
	}
}

func TestFlagChargesCoherenceLatency(t *testing.T) {
	m := testModel()
	node := m.Node
	f := NewFlag(m, "f", 0) // owned by core 0 (socket 0)
	e := sim.NewEngine()
	var intraT, interT float64
	e.Spawn("setter", func(p *sim.Proc) {
		p.Advance(1e-6)
		f.Set(p, 1)
	})
	e.Spawn("intra", func(p *sim.Proc) {
		f.Wait(p, 1, 1) // waiter on core 1, same socket
		intraT = p.Now()
	})
	e.Spawn("inter", func(p *sim.Proc) {
		f.Wait(p, 32, 1) // waiter on core 32, other socket
		interT = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 1e-6 + node.SyncLatencyIntra; !close(intraT, want) {
		t.Errorf("intra waiter released at %g, want %g", intraT, want)
	}
	if want := 1e-6 + node.SyncLatencyInter; !close(interT, want) {
		t.Errorf("inter waiter released at %g, want %g", interT, want)
	}
	if m.Counters().SyncCount != 2 {
		t.Errorf("sync count = %d, want 2", m.Counters().SyncCount)
	}
}

func TestBarrierLatencyScalesWithLogP(t *testing.T) {
	m := testModel()
	bSmall := MustBarrier(m, "b2", []int{0, 1})
	bBig := MustBarrier(m, "b32", intRange(32))
	e := sim.NewEngine()
	var t2 float64
	for i := 0; i < 2; i++ {
		e.Spawn("p", func(p *sim.Proc) {
			bSmall.Arrive(p)
			t2 = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e2 := sim.NewEngine()
	var t32 float64
	for i := 0; i < 32; i++ {
		e2.Spawn("p", func(p *sim.Proc) {
			bBig.Arrive(p)
			t32 = p.Now()
		})
	}
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if t32 <= t2 {
		t.Errorf("32-party barrier (%g) should cost more than 2-party (%g)", t32, t2)
	}
}

func TestBarrierCrossSocketCostsMore(t *testing.T) {
	m := testModel()
	intra := MustBarrier(m, "intra", []int{0, 1, 2, 3})
	inter := MustBarrier(m, "inter", []int{0, 1, 32, 33})
	run := func(b *Barrier, parties int) float64 {
		e := sim.NewEngine()
		var end float64
		for i := 0; i < parties; i++ {
			e.Spawn("p", func(p *sim.Proc) {
				b.Arrive(p)
				end = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if ti, tx := run(intra, 4), run(inter, 4); tx <= ti {
		t.Errorf("cross-socket barrier (%g) should cost more than intra (%g)", tx, ti)
	}
}

// TestBarrierEmptyCoreSet pins the regression: an empty core set used to
// panic from inside NewBarrier; it now returns a descriptive error naming
// the barrier, and MustBarrier panics with that same error.
func TestBarrierEmptyCoreSet(t *testing.T) {
	m := testModel()
	b, err := NewBarrier(m, "world/barrier", nil)
	if b != nil || err == nil {
		t.Fatalf("NewBarrier(empty) = %v, %v; want nil, error", b, err)
	}
	want := `shm: barrier "world/barrier" over empty core set`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err.Error(), want)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustBarrier(empty) should panic")
		}
		if perr, ok := r.(error); !ok || perr.Error() != want {
			t.Errorf("MustBarrier panic = %v, want %q", r, want)
		}
	}()
	MustBarrier(m, "world/barrier", nil)
}

func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12 || d < 1e-9*b
}
