package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		layer  string
		frames []string // leaf first
	}{
		{"memmodel", []string{
			"runtime.mallocgc",
			"yhccl/internal/memmodel.(*Model).Load",
			"yhccl/internal/coll.AllreduceYHCCL",
			"yhccl.Exec",
			"yhccl/internal/sim.(*Engine).Spawn.func1",
		}},
		{"sim.coroutine", []string{
			"runtime.coroswitch",
			"iter.Pull[...].func1",
			"yhccl/internal/sim.(*Proc).Advance",
			"yhccl/internal/coll.BcastPipelined",
		}},
		{"sim.coroutine", []string{
			"runtime.coroswitch",
			"yhccl/internal/sim.(*Engine).Run",
			"yhccl/internal/mpi.(*Machine).Run",
		}},
		{"sim.coroutine", []string{"yhccl/internal/sim.RunProgramCoroutine.func1"}},
		{"sim.event", []string{
			"yhccl/internal/sim.(*eventHeap).push",
			"yhccl/internal/sim.(*EventEngine).Post",
			"yhccl/internal/sim.(*programRunner).attempt",
		}},
		{"sim.event", []string{"yhccl/internal/sim.runProgramEvent", "yhccl/internal/cluster.RunArmed"}},
		{"cluster", []string{
			"yhccl/internal/cluster.(*clusterProgram).Duration",
			"yhccl/internal/sim.(*programRunner).attempt",
		}},
		{"serve", []string{"sort.Ints", "yhccl/internal/serve.(*Scheduler).place"}},
		{"runtime", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}},
		{"other", []string{"yhccl/internal/topo.(*Node).SocketOf", "yhccl/internal/coll.ReduceMA"}},
		{"other", []string{"yhccl.Exec", "main.nodeCase.body.func1"}},
		{"other", []string{"encoding/json.Marshal", "main.summarize"}},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.layer {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.layer)
		}
	}
}

// TestCPUSharesOfRealProfile decodes a profile runtime/pprof wrote and
// checks the shares cover every layer and sum to 100%.
func TestCPUSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(cpuLayers) {
		t.Fatalf("shares cover %d layers, want %d: %v", len(shares), len(cpuLayers), shares)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if len(samples) > 0 && math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v, want 100 (%d samples)", sum, len(samples))
	}
	for _, s := range samples {
		if len(s.frames) == 0 {
			t.Fatalf("sample without frames: %+v", s)
		}
	}
	_ = x
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	// Field 2 (a Sample) claims 5 bytes but only 2 follow.
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x08, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
