package mpi

import (
	"fmt"
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/topo"
)

func TestPublishPeer(t *testing.T) {
	m := NewMachine(topo.NodeA(), 4, true)
	m.MustRun(func(r *Rank) {
		c := r.World()
		b := r.NewBuffer("mine", 10)
		b.Slice(0, 1)[0] = float64(r.ID() * 11)
		c.Publish(r, Key{Label: "test", Name: "xp"}, b)
		c.Barrier().Arrive(r.Proc())
		for who := 0; who < 4; who++ {
			peer := c.Peer(Key{Label: "test", Name: "xp"}, who)
			if got := peer.Slice(0, 1)[0]; got != float64(who*11) {
				t.Errorf("rank %d sees peer %d value %v", r.ID(), who, got)
			}
		}
	})
}

func TestPeerUnpublishedPanics(t *testing.T) {
	m := NewMachine(topo.NodeA(), 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MustRun(func(r *Rank) {
		r.World().Peer(Key{Label: "test", Name: "nothing"}, 0)
	})
}

func TestCounterPersistsAcrossRuns(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, false)
	for i := 1; i <= 3; i++ {
		i := i
		m.MustRun(func(r *Rank) {
			ctr := r.World().Counter(r, Key{Label: "test", Name: "epoch"})
			*ctr++
			if *ctr != int64(i) {
				t.Errorf("run %d rank %d counter = %d", i, r.ID(), *ctr)
			}
		})
	}
}

func TestCountersIndependentPerRankAndKey(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, false)
	m.MustRun(func(r *Rank) {
		a := r.World().Counter(r, Key{Label: "test", Name: "a"})
		b := r.World().Counter(r, Key{Label: "test", Name: "b"})
		*a = int64(r.ID() + 1)
		*b = 100
		if *r.World().Counter(r, Key{Label: "test", Name: "a"}) != int64(r.ID()+1) {
			t.Error("counter a lost")
		}
	})
}

func TestPersistentBufferGrowsAndPersists(t *testing.T) {
	m := NewMachine(topo.NodeA(), 1, true)
	var first *memmodel.Buffer
	m.MustRun(func(r *Rank) {
		first = r.PersistentBuffer("scratch", 100)
		first.Slice(0, 1)[0] = 7
	})
	m.MustRun(func(r *Rank) {
		again := r.PersistentBuffer("scratch", 50) // smaller: same buffer
		if again != first {
			t.Error("persistent buffer not reused")
		}
		if again.Slice(0, 1)[0] != 7 {
			t.Error("persistent buffer lost data")
		}
		bigger := r.PersistentBuffer("scratch", 200)
		if bigger == first {
			t.Error("persistent buffer not regrown")
		}
	})
}

func TestPinnedStagingNeverTouchesDRAM(t *testing.T) {
	// p2p staging is pinned: a send/recv at any size must not register
	// staging DRAM traffic beyond the src/dst buffers themselves.
	m := NewMachine(topo.NodeA(), 2, false)
	const n = 1 << 16
	m.MustRun(func(r *Rank) {
		buf := r.NewBuffer("buf", n)
		r.Warm(buf, 0, n)
		if r.ID() == 0 {
			r.Send(r.World(), 1, buf, 0, n)
		} else {
			r.Recv(r.World(), 0, buf, 0, n, memmodel.Temporal)
		}
	})
	c := m.Model.Counters()
	// Sender loads warm buf (cache), staging pinned; receiver stores into
	// warm buf (cache hits). Only incidental traffic allowed.
	if c.DRAMTraffic > n {
		t.Errorf("DRAM traffic %d for a cache-resident transfer of %d bytes", c.DRAMTraffic, n*8)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MustRun(func(r *Rank) {
		b := r.NewBuffer("b", 8)
		r.Send(r.World(), r.World().CommRank(r.ID()), b, 0, 8)
	})
}

func TestZeroLengthSendPanics(t *testing.T) {
	m := NewMachine(topo.NodeA(), 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MustRun(func(r *Rank) {
		b := r.NewBuffer("b", 8)
		if r.ID() == 0 {
			r.Send(r.World(), 1, b, 0, 0)
		}
	})
}

// TestWarmResourcesAllocateNothing: once created, every kind of
// communicator resource is found by its key without formatting or
// allocating: shared buffers, segment sets, per-socket buffers, flag sets
// and their concatenations, counters, published slots and p2p channels.
func TestWarmResourcesAllocateNothing(t *testing.T) {
	m := NewMachine(topo.NodeA(), 64, false)
	kinds := map[string]func(r *Rank, c *Comm){
		"Shared":       func(r *Rank, c *Comm) { c.Shared(Key{Label: "test", Name: "res/n=%d", A: 64}, 0, 64) },
		"Segments":     func(r *Rank, c *Comm) { c.Segments(Key{Label: "test", Name: "seg%d/n=%d", B: 64}, 64) },
		"SocketShared": func(r *Rank, c *Comm) { c.SocketShared(Key{Label: "test", Name: "part/n=%d", A: 64}, 64) },
		"Flags":        func(r *Rank, c *Comm) { c.Flags(Key{Label: "test", Name: "flags"}) },
		"FlagSets":     func(r *Rank, c *Comm) { c.FlagSets(Key{Label: "test", Name: "gf/%d"}, 3) },
		"Counter":      func(r *Rank, c *Comm) { *c.Counter(r, Key{Label: "test", Name: "base"}) += 1 },
		"Peer": func(r *Rank, c *Comm) {
			c.Publish(r, Key{Label: "test", Name: "sb"}, c.Peer(Key{Label: "test", Name: "sb"}, 0))
		},
		"channel": func(r *Rank, c *Comm) { c.fit(c.channel(0, 1), 100) },
	}
	got := map[string]float64{}
	m.MustRun(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		c := r.World()
		c.Publish(r, Key{Label: "test", Name: "sb"}, r.NewBuffer("sb", 8))
		for name, resolve := range kinds {
			resolve(r, c) // create
			got[name] = testing.AllocsPerRun(100, func() { resolve(r, c) })
		}
	})
	for name, allocs := range got {
		if allocs != 0 {
			t.Errorf("resolving a warm %s allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestStagingSizedToLargestMessage sends messages of growing and shrinking
// length over one channel, with real data checked on arrival. After each
// message the channel's staging holds the smallest power of two that fits
// the largest message so far: no floor, no slack beyond the rounding.
func TestStagingSizedToLargestMessage(t *testing.T) {
	sizes := []int64{1, 127, 8192, 8193, 20000, 3}
	m := NewMachine(topo.NodeA(), 2, true)
	var staging []int64
	m.MustRun(func(r *Rank) {
		c := r.World()
		buf := r.NewBuffer("buf", 20000)
		for i, n := range sizes {
			base := float64(1000 * (i + 1))
			if r.ID() == 0 {
				r.FillPattern(buf, base)
				r.Send(c, 1, buf, 0, n)
				continue
			}
			r.Recv(c, 0, buf, 0, n, memmodel.Temporal)
			for j, v := range buf.Slice(0, n) {
				if v != base+float64(j) {
					t.Fatalf("message %d (%d elements): element %d = %v, want %v", i, n, j, v, base+float64(j))
				}
			}
			staging = append(staging, c.chans[0*c.Size()+1].staging.Elems)
		}
	})
	want := []int64{1, 128, 8192, 16384, 32768, 32768}
	if fmt.Sprint(staging) != fmt.Sprint(want) {
		t.Fatalf("staging lengths %v, want %v", staging, want)
	}
}

// A key's name is its label, a slash and its name with the %d verbs
// filled by A and B in order: the name a string-labelled resource had.
func TestKeyString(t *testing.T) {
	for k, want := range map[Key]string{
		{Label: "dpml-ar", Name: "seg%d/n=%d", A: 3, B: 1024}: "dpml-ar/seg3/n=1024",
		{Label: "2lvl-rs/flat", Name: "res/n=%d", A: 64}:      "2lvl-rs/flat/res/n=64",
		{Label: "plan", Name: "slots/%d/I=%d", A: 12, B: 512}: "plan/slots/12/I=512",
		{Label: "ma-ar", Name: "flags", A: 7}:                 "ma-ar/flags",
	} {
		if got := k.String(); got != want {
			t.Errorf("%#v names %q, want %q", k, got, want)
		}
	}
}
