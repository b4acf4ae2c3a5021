package topo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, n := range []*Node{NodeA(), NodeB(), NodeC()} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestPresetLookup(t *testing.T) {
	for _, name := range []string{"NodeA", "NodeB", "NodeC", "a", "b", "c"} {
		if _, err := Preset(name); err != nil {
			t.Errorf("Preset(%q): %v", name, err)
		}
	}
	if _, err := Preset("NodeX"); err == nil {
		t.Error("Preset(NodeX) should fail")
	}
}

func TestCoreCounts(t *testing.T) {
	cases := []struct {
		n    *Node
		want int
	}{{NodeA(), 64}, {NodeB(), 48}, {NodeC(), 24}}
	for _, c := range cases {
		if got := c.n.Cores(); got != c.want {
			t.Errorf("%s cores = %d, want %d", c.n.Name, got, c.want)
		}
	}
}

func TestSocketOfBlockBinding(t *testing.T) {
	n := NodeA()
	if s := n.SocketOf(0); s != 0 {
		t.Errorf("core 0 on socket %d, want 0", s)
	}
	if s := n.SocketOf(31); s != 0 {
		t.Errorf("core 31 on socket %d, want 0", s)
	}
	if s := n.SocketOf(32); s != 1 {
		t.Errorf("core 32 on socket %d, want 1", s)
	}
	if s := n.SocketOf(63); s != 1 {
		t.Errorf("core 63 on socket %d, want 1", s)
	}
}

func TestSocketOfOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NodeA().SocketOf(64)
}

func TestAvailableCacheRule(t *testing.T) {
	// Paper §5.4 quotes C = 294912 KB on NodeA (p=64) and 116736 KB on
	// NodeB (p=48): C(non-inclusive) = node L3 + p*L2.
	a := NodeA()
	if got := a.AvailableCache(64); got != 294912*1024 {
		t.Errorf("NodeA available cache = %d KB, want 294912 KB", got/1024)
	}
	b := NodeB()
	if got := b.AvailableCache(48); got != 116736*1024 {
		t.Errorf("NodeB available cache = %d KB, want 116736 KB", got/1024)
	}
	c := NodeC()
	if got := c.AvailableCache(24); got != 2*c.L3PerSocket {
		t.Errorf("inclusive L3: available cache = %d, want %d", got, 2*c.L3PerSocket)
	}
}

func TestAvailableCacheMonotoneInP(t *testing.T) {
	f := func(p8 uint8) bool {
		p := int(p8%64) + 1
		a := NodeA()
		return a.AvailableCache(p+1) >= a.AvailableCache(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadNodes(t *testing.T) {
	mod := func(f func(n *Node)) *Node {
		n := NodeA()
		f(n)
		return n
	}
	bad := []*Node{
		mod(func(n *Node) { n.Sockets = 0 }),
		mod(func(n *Node) { n.CoresPerSocket = -1 }),
		mod(func(n *Node) { n.L2PerCore = 0 }),
		mod(func(n *Node) { n.DRAMBandwidthPerSocket = 0 }),
		mod(func(n *Node) { n.CrossSocketFactor = 0 }),
		mod(func(n *Node) { n.CrossSocketFactor = 1.5 }),
		mod(func(n *Node) { n.SyncLatencyIntra = 0 }),
		mod(func(n *Node) { n.SyncLatencyInter = n.SyncLatencyIntra / 2 }),
		mod(func(n *Node) { n.SyncLatencyIntra = math.NaN() }),
		mod(func(n *Node) { n.SyncLatencyInter = math.NaN() }),
		mod(func(n *Node) { n.SyncLatencyInter = math.Inf(1) }),
		mod(func(n *Node) { n.ReducePerCoreBandwidth = 0 }),
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid node", i)
		}
	}
}
