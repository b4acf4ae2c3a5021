package mpi

import (
	"testing"

	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// ladderProgram: rank r's single step waits on rank r-1 and takes r+1 ticks.
type ladderProgram struct{ ranks int }

func (p *ladderProgram) Ranks() int { return p.ranks }
func (p *ladderProgram) Step(r, step int, visit func(int, int) bool) (sim.Tick, bool) {
	if step > 0 {
		return 0, false
	}
	if r > 0 {
		visit(r-1, 0)
	}
	return sim.Tick(r + 1), true
}

func TestMachineRunProgram(t *testing.T) {
	m := NewMachine(topo.NodeA(), 4, false)
	prog := &ladderProgram{ranks: 16}
	// Makespan = sum of 1..16 ticks = 136 ticks.
	want := sim.Tick(136).Seconds()
	for _, kind := range []sim.EngineKind{sim.EngineCoroutine, sim.EngineEvent} {
		sec, err := m.RunProgram(prog, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if sec != want {
			t.Fatalf("%v: makespan %v s, want %v s", kind, sec, want)
		}
	}
}
