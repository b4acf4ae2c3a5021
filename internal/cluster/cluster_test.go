package cluster

import (
	"testing"

	"yhccl/internal/topo"
)

func TestEffectiveBandwidthSaturates(t *testing.T) {
	n := IB100()
	if n.EffectiveBandwidth(1) >= n.LinkBandwidth/2 {
		t.Errorf("one lane should not reach half link bandwidth: %g", n.EffectiveBandwidth(1))
	}
	if n.EffectiveBandwidth(64) < 0.9*n.LinkBandwidth {
		t.Errorf("64 lanes should approach link bandwidth: %g", n.EffectiveBandwidth(64))
	}
	for l := 1; l < 64; l++ {
		if n.EffectiveBandwidth(l+1) <= n.EffectiveBandwidth(l) {
			t.Fatalf("effective bandwidth not monotone at %d lanes", l)
		}
	}
}

func TestRingTimeScalesWithNodes(t *testing.T) {
	n := IB100()
	m := int64(64 << 20)
	t4 := n.RingAllreduceTime(m, 4, 64)
	t16 := n.RingAllreduceTime(m, 16, 64)
	if t16 <= t4 {
		t.Errorf("ring time should grow with node count: %g vs %g", t16, t4)
	}
	if n.RingAllreduceTime(m, 1, 64) != 0 {
		t.Error("single node has no inter-node cost")
	}
}

func TestTreeBeatsRingOnSmallMessages(t *testing.T) {
	n := IB100()
	nodes := 16
	small := int64(4 << 10)
	large := int64(64 << 20)
	if n.TreeAllreduceTime(small, nodes) >= n.RingAllreduceTime(small, nodes, 1) {
		t.Error("tree should beat single-lane ring on 4 KB")
	}
	if n.TreeAllreduceTime(large, nodes) <= n.RingAllreduceTime(large, nodes, 64) {
		t.Error("multi-lane ring should beat tree on 64 MB")
	}
}

func TestYHCCLHierarchicalWinsLargeMulitNode(t *testing.T) {
	// Fig. 16b: 16 nodes x 64 ranks, large messages: YHCCL 1.4-8.8x over
	// the leader/flat compositions.
	c := New(topo.NodeA(), 16, 64, IB100())
	n := int64(16 << 20 / 8) // 16 MB
	ty := c.MustAllreduceTime(YHCCLHierarchical, n)
	for _, alg := range []Algorithm{LeaderRing, LeaderTree, FlatRing} {
		tb := c.MustAllreduceTime(alg, n)
		if ty >= tb {
			t.Errorf("YHCCL (%.4g) should beat %s (%.4g) on 16 MB", ty, alg, tb)
		}
		if sp := tb / ty; sp > 12 {
			t.Errorf("speedup vs %s is %.1fx, implausibly large", alg, sp)
		}
	}
}

func TestLeaderTreeWinsSmallMultiNode(t *testing.T) {
	// Fig. 16b small-message regime: tree-based implementations win.
	c := New(topo.NodeA(), 16, 64, IB100())
	n := int64(16 << 10 / 8) // 16 KB
	ty := c.MustAllreduceTime(YHCCLHierarchical, n)
	tt := c.MustAllreduceTime(LeaderTree, n)
	if tt >= ty {
		t.Errorf("leader-tree (%.4g) should beat YHCCL (%.4g) on 16 KB", tt, ty)
	}
}

func TestUnknownAlgorithmError(t *testing.T) {
	c := New(topo.NodeA(), 2, 4, IB100())
	if _, err := c.AllreduceTime(Algorithm("bogus"), 100); err == nil {
		t.Error("expected error")
	}
}

func TestAlgorithmsList(t *testing.T) {
	if len(Algorithms()) != 4 {
		t.Errorf("algorithm list = %v", Algorithms())
	}
}

func TestClusterDeterministic(t *testing.T) {
	mk := func() float64 {
		c := New(topo.NodeB(), 8, 48, IB100())
		return c.MustAllreduceTime(YHCCLHierarchical, 1<<18)
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("nondeterministic cluster timing: %v vs %v", a, b)
	}
}

// TestMultiNodeBcast: YHCCL's multi-lane broadcast beats the leader tree
// and the node-oblivious flat pattern at 8 MB on 16 x 64 ranks.
func TestMultiNodeBcast(t *testing.T) {
	c := New(topo.NodeA(), 16, 64, IB100())
	n := int64(8 << 20 / 8) // 8 MB
	ty, err := c.ScheduledTime(CollBcast, YHCCLHierarchical, n, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{LeaderTree, FlatRing} {
		tb, err := c.ScheduledTime(CollBcast, alg, n, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ty >= tb {
			t.Errorf("bcast: YHCCL (%.4g) should beat %s (%.4g) at 8 MB", ty, alg, tb)
		}
	}
	if _, err := c.ScheduledTime(CollBcast, Algorithm("nope"), n, ScheduleOptions{}); err == nil {
		t.Error("unknown bcast algorithm accepted")
	}
}

// TestMultiNodeAllgather: YHCCL's all-gather beats the leader ring and the
// flat ring at 256 KB per rank on 8 x 64 ranks.
func TestMultiNodeAllgather(t *testing.T) {
	c := New(topo.NodeA(), 8, 64, IB100())
	n := int64(256 << 10 / 8) // 256 KB contributed per rank
	ty, err := c.ScheduledTime(CollAllgather, YHCCLHierarchical, n, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{LeaderRing, FlatRing} {
		tb, err := c.ScheduledTime(CollAllgather, alg, n, ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ty >= tb {
			t.Errorf("allgather: YHCCL (%.4g) should beat %s (%.4g)", ty, alg, tb)
		}
	}
	if _, err := c.ScheduledTime(CollAllgather, Algorithm("nope"), n, ScheduleOptions{}); err == nil {
		t.Error("unknown all-gather algorithm accepted")
	}
}

func TestMultiNodeSingleNodeNoInter(t *testing.T) {
	c := New(topo.NodeB(), 1, 48, IB100())
	tb, err := c.ScheduledTime(CollBcast, YHCCLHierarchical, 1<<16, ScheduleOptions{})
	if err != nil || tb <= 0 {
		t.Fatalf("bcast on one node: %v %v", tb, err)
	}
	tg, err := c.ScheduledTime(CollAllgather, YHCCLHierarchical, 1<<12, ScheduleOptions{})
	if err != nil || tg <= 0 {
		t.Fatalf("allgather on one node: %v %v", tg, err)
	}
}

// TestAllreduceTimeRejectsEmptyMessage: the analytic path refuses empty and
// negative messages with the compiler's error instead of pricing or
// panicking on them.
func TestAllreduceTimeRejectsEmptyMessage(t *testing.T) {
	c := New(topo.NodeA(), 4, 8, IB100())
	const want = "cluster: message must have at least 1 element"
	for _, alg := range Algorithms() {
		for _, n := range []int64{0, -1} {
			if sec, err := c.AllreduceTime(alg, n); err == nil || err.Error() != want {
				t.Errorf("AllreduceTime(%s, %d) = %v, %v; want error %q", alg, n, sec, err, want)
			}
			if sec, err := c.AllreduceTimeTensors(alg, n, 64); err == nil || err.Error() != want {
				t.Errorf("AllreduceTimeTensors(%s, %d, 64) = %v, %v; want error %q", alg, n, sec, err, want)
			}
		}
	}
}

// TestNewRejectsUnfitRankCount: New keeps the check the representative
// machine made, although it no longer builds one.
func TestNewRejectsUnfitRankCount(t *testing.T) {
	for _, perNode := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %d ranks per NodeA node did not panic", perNode)
				}
			}()
			New(topo.NodeA(), 2, perNode, IB100())
		}()
	}
}

// TestCompiledPathBuildsNoMachine: compiling and running a program never
// builds the representative machine; the first Machine call builds it and
// later calls return the same one.
func TestCompiledPathBuildsNoMachine(t *testing.T) {
	c := New(topo.NodeA(), 4, 8, IB100())
	prog, err := c.Compile(CollAllreduce, YHCCLHierarchical, 4096, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunArmed(prog, nil, 0); err != nil {
		t.Fatal(err)
	}
	if c.machine != nil {
		t.Fatal("compiling and running a program built the representative machine")
	}
	m := c.Machine()
	if m == nil || c.Machine() != m {
		t.Fatal("Machine did not build the representative machine once and reuse it")
	}
}
