package mpi

import (
	"fmt"
	"testing"
	"testing/quick"

	"yhccl/internal/memmodel"
	"yhccl/internal/topo"
)

func TestMachineBindingAndComms(t *testing.T) {
	m := NewMachine(topo.NodeA(), 64, false)
	if m.Size() != 64 {
		t.Fatalf("size = %d", m.Size())
	}
	if m.World().Size() != 64 {
		t.Fatalf("world size = %d", m.World().Size())
	}
	s0, s1 := m.SocketComm(0), m.SocketComm(1)
	if s0.Size() != 32 || s1.Size() != 32 {
		t.Fatalf("socket comms %d/%d, want 32/32", s0.Size(), s1.Size())
	}
	if s1.GlobalRank(0) != 32 {
		t.Fatalf("socket1 first rank = %d, want 32", s1.GlobalRank(0))
	}
	if s1.CommRank(40) != 8 {
		t.Fatalf("comm rank of 40 = %d, want 8", s1.CommRank(40))
	}
	if s0.CommRank(40) != -1 {
		t.Fatalf("rank 40 should not be in socket0")
	}
}

func TestMachineTooManyRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMachine(topo.NodeA(), 65, false)
}

func TestRunSpawnsAllRanks(t *testing.T) {
	m := NewMachine(topo.NodeB(), 48, false)
	seen := make([]bool, 48)
	_, err := m.Run(func(r *Rank) {
		seen[r.ID()] = true
		if r.Size() != 48 {
			t.Errorf("rank %d sees size %d", r.ID(), r.Size())
		}
		if r.Core() != r.ID() {
			t.Errorf("rank %d on core %d", r.ID(), r.Core())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Errorf("rank %d never ran", i)
		}
	}
}

func TestSharedBufferMemoization(t *testing.T) {
	m := NewMachine(topo.NodeA(), 4, false)
	var bufs []*memmodel.Buffer
	m.MustRun(func(r *Rank) {
		bufs = append(bufs, r.World().Shared(Key{Label: "test", Name: "seg"}, 0, 100))
	})
	for _, b := range bufs[1:] {
		if b != bufs[0] {
			t.Fatal("ranks received different buffers for the same label")
		}
	}
}

func TestSharedBufferShapeMismatchPanics(t *testing.T) {
	m := NewMachine(topo.NodeA(), 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MustRun(func(r *Rank) {
		r.World().Shared(Key{Label: "test", Name: "seg"}, 0, 100)
		r.World().Shared(Key{Label: "test", Name: "seg"}, 0, 200)
	})
}

func TestCopyElemsMovesDataAndCharges(t *testing.T) {
	m := NewMachine(topo.NodeA(), 1, true)
	m.MustRun(func(r *Rank) {
		src := r.NewBuffer("src", 64)
		dst := r.NewBuffer("dst", 64)
		r.FillPattern(src, 1000)
		r.CopyElems(dst, 0, src, 0, 64, memmodel.Temporal)
		for i, v := range dst.Slice(0, 64) {
			if v != 1000+float64(i) {
				t.Fatalf("dst[%d] = %v", i, v)
			}
		}
	})
	c := m.Model.Counters()
	if c.LoadBytes != 64*8 || c.StoreBytes != 64*8 {
		t.Errorf("logical bytes: loads %d stores %d, want 512/512", c.LoadBytes, c.StoreBytes)
	}
	// Private-to-private copy does not count toward V.
	if c.CopyVolume != 0 {
		t.Errorf("copy volume = %d, want 0 for private->private", c.CopyVolume)
	}
}

func TestCopyVolumeCountedAcrossSpaces(t *testing.T) {
	m := NewMachine(topo.NodeA(), 1, true)
	m.MustRun(func(r *Rank) {
		src := r.NewBuffer("src", 64)
		shmBuf := r.World().Shared(Key{Label: "test", Name: "seg"}, 0, 64)
		r.CopyElems(shmBuf, 0, src, 0, 64, memmodel.Temporal)
	})
	if got := m.Model.Counters().CopyVolume; got != 2*64*8 {
		t.Errorf("copy volume = %d, want %d", got, 2*64*8)
	}
}

func TestAccumulateAndCombine(t *testing.T) {
	m := NewMachine(topo.NodeA(), 1, true)
	m.MustRun(func(r *Rank) {
		a := r.NewBuffer("a", 8)
		b := r.NewBuffer("b", 8)
		c := r.NewBuffer("c", 8)
		r.FillPattern(a, 0)  // 0..7
		r.FillPattern(b, 10) // 10..17
		r.AccumulateElems(a, 0, b, 0, 8, Sum, memmodel.Temporal)
		for i, v := range a.Slice(0, 8) {
			if v != float64(2*i+10) {
				t.Fatalf("a[%d] = %v, want %v", i, v, 2*i+10)
			}
		}
		r.CombineElems(c, 0, a, 0, b, 0, 8, Max, memmodel.Temporal)
		for i, v := range c.Slice(0, 8) {
			want := float64(2*i + 10) // a >= b everywhere
			if v != want {
				t.Fatalf("c[%d] = %v, want %v", i, v, want)
			}
		}
	})
	// DAV of one accumulate + one combine: (2 loads + 1 store) x 2 x 8 elems.
	c := m.Model.Counters()
	if got, want := c.DAV(), int64(2*3*8*8); got != want {
		t.Errorf("DAV = %d, want %d", got, want)
	}
}

func TestOpsTable(t *testing.T) {
	cases := []struct {
		op   Op
		a, b float64
		want float64
	}{
		{Sum, 2, 3, 5},
		{Max, 2, 3, 3},
		{Min, 2, 3, 2},
		{Prod, 2, 3, 6},
	}
	for _, c := range cases {
		dst := []float64{c.a}
		c.op.Apply(dst, []float64{c.b})
		if dst[0] != c.want {
			t.Errorf("%s.Apply(%v,%v) = %v, want %v", c.op.Name, c.a, c.b, dst[0], c.want)
		}
		out := []float64{0}
		c.op.Combine(out, []float64{c.a}, []float64{c.b})
		if out[0] != c.want {
			t.Errorf("%s.Combine = %v, want %v", c.op.Name, out[0], c.want)
		}
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, true)
	const n = 20000 // > 2 chunks
	m.MustRun(func(r *Rank) {
		w := r.World()
		buf := r.NewBuffer("buf", n)
		if r.ID() == 0 {
			r.FillPattern(buf, 5)
			r.Send(w, 1, buf, 0, n)
		} else {
			r.Recv(w, 0, buf, 0, n, memmodel.Temporal)
			for i := int64(0); i < n; i += 999 {
				if got := buf.Slice(i, 1)[0]; got != 5+float64(i) {
					t.Errorf("recv[%d] = %v, want %v", i, got, 5+float64(i))
				}
			}
		}
	})
}

func TestSendRecvBackToBackMessages(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, true)
	const n = 9000
	m.MustRun(func(r *Rank) {
		w := r.World()
		buf := r.NewBuffer("buf", n)
		for round := 0; round < 3; round++ {
			if r.ID() == 0 {
				r.FillPattern(buf, float64(round*100000))
				r.Send(w, 1, buf, 0, n)
			} else {
				r.Recv(w, 0, buf, 0, n, memmodel.Temporal)
				if got := buf.Slice(n-1, 1)[0]; got != float64(round*100000)+float64(n-1) {
					t.Errorf("round %d: tail = %v", round, got)
				}
			}
		}
	})
}

func TestRecvReduceFusesReduction(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, true)
	const n = 100
	m.MustRun(func(r *Rank) {
		w := r.World()
		buf := r.NewBuffer("buf", n)
		r.FillPattern(buf, float64(r.ID()*1000)) // r0: 0.., r1: 1000..
		if r.ID() == 0 {
			r.Send(w, 1, buf, 0, n)
		} else {
			r.RecvReduce(w, 0, buf, 0, n, Sum)
			for i := int64(0); i < n; i++ {
				want := float64(1000) + 2*float64(i)
				if got := buf.Slice(i, 1)[0]; got != want {
					t.Fatalf("reduced[%d] = %v, want %v", i, got, want)
				}
			}
		}
	})
}

func TestRingSendRecvAllRanksProgress(t *testing.T) {
	// A full ring exchange must complete (deadlock-freedom of buffered
	// sends) and deliver correct data.
	const p = 8
	const n = 30000 // several chunks
	m := NewMachine(topo.NodeA(), p, true)
	var final [p]float64
	m.MustRun(func(r *Rank) {
		w := r.World()
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		next := (r.ID() + 1) % p
		prev := (r.ID() + p - 1) % p
		r.SendRecv(w, next, sb, 0, n, prev, rb, 0, n, memmodel.Temporal)
		final[r.ID()] = rb.Slice(0, 1)[0]
	})
	for i := 0; i < p; i++ {
		want := float64((i + p - 1) % p)
		if final[i] != want {
			t.Errorf("rank %d received from %v, want %v", i, final[i], want)
		}
	}
}

func TestRingIsParallelNotSerialized(t *testing.T) {
	// The makespan of a simultaneous ring shift must be far below p x the
	// single-transfer time: buffered sends keep the ring parallel.
	const p = 16
	const n = 1 << 16
	single := NewMachine(topo.NodeA(), p, false)
	t1 := single.MustRun(func(r *Rank) {
		w := r.World()
		b := r.NewBuffer("b", n)
		switch r.ID() {
		case 0:
			r.Send(w, 1, b, 0, n)
		case 1:
			r.Recv(w, 0, b, 0, n, memmodel.Temporal)
		}
	})
	ring := NewMachine(topo.NodeA(), p, false)
	tp := ring.MustRun(func(r *Rank) {
		w := r.World()
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.SendRecv(w, (r.ID()+1)%p, sb, 0, n, (r.ID()+p-1)%p, rb, 0, n, memmodel.Temporal)
	})
	if tp > 4*t1 {
		t.Errorf("ring shift took %.3g, single transfer %.3g: ring appears serialized", tp, t1)
	}
}

func TestBarrierAcrossRanks(t *testing.T) {
	m := NewMachine(topo.NodeA(), 8, false)
	times := make([]float64, 8)
	m.MustRun(func(r *Rank) {
		r.Compute(float64(r.ID()) * 1e-6)
		r.World().Barrier().Arrive(r.Proc())
		times[r.ID()] = r.Now()
	})
	for i := 1; i < 8; i++ {
		if times[i] != times[0] {
			t.Fatalf("ranks left barrier at different times: %v", times)
		}
	}
	if times[0] < 7e-6 {
		t.Fatalf("barrier released before last arrival: %g", times[0])
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() float64 {
		m := NewMachine(topo.NodeA(), 16, false)
		return m.MustRun(func(r *Rank) {
			w := r.World()
			sb := r.NewBuffer("sb", 5000)
			rb := r.NewBuffer("rb", 5000)
			for round := 0; round < 3; round++ {
				r.SendRecv(w, (r.ID()+1)%16, sb, 0, 5000,
					(r.ID()+15)%16, rb, 0, 5000, memmodel.Temporal)
				w.Barrier().Arrive(r.Proc())
			}
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic makespan: %v vs %v", a, b)
	}
}

func TestSendRecvSizeProperty(t *testing.T) {
	// Property: any message size survives the chunking round trip intact.
	f := func(raw uint16) bool {
		n := int64(raw%40000) + 1
		m := NewMachine(topo.NodeA(), 2, true)
		ok := true
		m.MustRun(func(r *Rank) {
			w := r.World()
			buf := r.NewBuffer("buf", n)
			if r.ID() == 0 {
				r.FillPattern(buf, 7)
				r.Send(w, 1, buf, 0, n)
			} else {
				r.Recv(w, 0, buf, 0, n, memmodel.Temporal)
				if buf.Slice(n-1, 1)[0] != 7+float64(n-1) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorOnDeadlock(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, false)
	_, err := m.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.World().Flags(Key{Label: "test", Name: "never"})[1].Wait(r.Proc(), r.Core(), 1)
		}
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSocketCommSharedResourcesDistinct(t *testing.T) {
	m := NewMachine(topo.NodeA(), 64, false)
	var b0, b1 *memmodel.Buffer
	m.MustRun(func(r *Rank) {
		b := r.SocketComm().Shared(Key{Label: "test", Name: "seg"}, r.Socket(), 10)
		if r.ID() == 0 {
			b0 = b
		}
		if r.ID() == 32 {
			b1 = b
		}
	})
	if b0 == b1 {
		t.Fatal("socket comms share a buffer")
	}
	if b0.Home != 0 || b1.Home != 1 {
		t.Fatalf("homes = %d/%d, want 0/1", b0.Home, b1.Home)
	}
}

func TestExplicitBindingSpreadsSockets(t *testing.T) {
	// Scatter binding: rank i on socket i%2.
	node := topo.NodeA()
	cores := []int{0, 32, 1, 33}
	m := NewMachineWithBinding(node, cores, false)
	if m.SocketComm(0).Size() != 2 || m.SocketComm(1).Size() != 2 {
		t.Fatal("scatter binding not reflected in socket comms")
	}
	names := map[int]int{}
	m.MustRun(func(r *Rank) {
		names[r.ID()] = r.Socket()
	})
	want := map[int]int{0: 0, 1: 1, 2: 0, 3: 1}
	for k, v := range want {
		if names[k] != v {
			t.Errorf("rank %d on socket %d, want %d", k, names[k], v)
		}
	}
}

func ExampleMachine_Run() {
	m := NewMachine(topo.NodeA(), 2, true)
	makespan := m.MustRun(func(r *Rank) {
		w := r.World()
		buf := r.NewBuffer("buf", 4)
		if r.ID() == 0 {
			copy(buf.Slice(0, 4), []float64{1, 2, 3, 4})
			r.Send(w, 1, buf, 0, 4)
		} else {
			r.Recv(w, 0, buf, 0, 4, memmodel.Temporal)
			fmt.Println(buf.Slice(0, 4))
		}
	})
	fmt.Println(makespan > 0)
	// Output:
	// [1 2 3 4]
	// true
}
