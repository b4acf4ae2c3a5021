// Package shm models the process-shared memory mechanism that intra-node
// MPI collectives are built on: shared segments for copy-in/copy-out, the
// per-process atomic flags used for signalling between reduction steps, and
// the node barrier.
//
// All synchronization latencies are charged through the memmodel, mirroring
// the cache-coherence cost of polling a flag line owned by another core.
package shm

import (
	"fmt"
	"strconv"

	"yhccl/internal/memmodel"
	"yhccl/internal/sim"
)

// Arena allocates shared buffers from a model with explicit NUMA homing.
type Arena struct {
	model *memmodel.Model
	name  string
	seq   int
	real  bool
}

// NewArena returns an arena labelled name; real selects whether buffers
// carry actual data.
func NewArena(model *memmodel.Model, name string, real bool) *Arena {
	return &Arena{model: model, name: name, real: real}
}

// Alloc returns a shared buffer of n elements homed on the given socket
// (first-touch placement decided by the algorithm).
func (a *Arena) Alloc(label string, home int, n int64) *memmodel.Buffer {
	a.seq++
	return a.model.NewBuffer(a.name+"/"+label+"#"+strconv.Itoa(a.seq),
		memmodel.Shared, home, n, a.real)
}

// AllocPinned returns a shared buffer modelled as permanently
// cache-resident (a reused transport ring; see memmodel.Buffer.Pinned).
func (a *Arena) AllocPinned(label string, home int, n int64) *memmodel.Buffer {
	b := a.Alloc(label, home, n)
	b.Pinned = true
	return b
}

// Flag is a shared synchronization cell owned by (homed at) one core. A
// wait by another core pays the coherence latency between the two cores.
// Values only grow, exactly like the epoch counters real shared-memory
// collectives use to avoid resetting flags between steps.
type Flag struct {
	f         *sim.Flag
	model     *memmodel.Model
	ownerCore int
}

// NewFlag creates a flag owned by ownerCore.
func NewFlag(model *memmodel.Model, name string, ownerCore int) *Flag {
	return &Flag{f: sim.NewFlag(name), model: model, ownerCore: ownerCore}
}

// Value returns the current value.
func (f *Flag) Value() uint64 { return f.f.Value() }

// Set raises the flag to v; the setter pays the local store latency
// (negligible, folded into zero) and waiters are released with coherence
// latency from their own core.
func (f *Flag) Set(p *sim.Proc, v uint64) {
	p.Set(f.f, v)
}

// Incr raises the flag by one.
func (f *Flag) Incr(p *sim.Proc) {
	p.Incr(f.f)
}

// Wait blocks p (running on waiterCore) until the flag reaches v, charging
// the coherence latency between waiterCore and the flag's owner core.
func (f *Flag) Wait(p *sim.Proc, waiterCore int, v uint64) {
	p.Wait(f.f, v, f.model.CountWait(waiterCore, f.ownerCore))
}

// Sync returns the flag as a sequence waits on or sets it (see
// memmodel.Part): a sequence's wait counts and pays what Wait does.
func (f *Flag) Sync() memmodel.Sync {
	return memmodel.Sync{Flag: f.f, Owner: f.ownerCore}
}

// Barrier synchronizes a fixed group of cores. The release latency models a
// flag-tree barrier: 2*ceil(log2(parties)) one-way flag propagations at the
// worst pairwise distance among the participants.
type Barrier struct {
	b       *sim.Barrier
	model   *memmodel.Model
	latency float64
}

// NewBarrier builds a barrier over the given cores. It returns an error for
// an empty core set — the one caller misuse that used to panic from deep
// inside a collective with no indication of which communicator was at fault.
func NewBarrier(model *memmodel.Model, name string, cores []int) (*Barrier, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("shm: barrier %q over empty core set", name)
	}
	worst := 0.0
	for _, a := range cores {
		for _, b := range cores {
			if l := model.SyncLatency(a, b); l > worst {
				worst = l
			}
		}
	}
	depth := 0
	for n := 1; n < len(cores); n *= 2 {
		depth++
	}
	return &Barrier{
		b:       sim.NewBarrier(name, len(cores)),
		model:   model,
		latency: 2 * float64(depth) * worst,
	}, nil
}

// MustBarrier is NewBarrier for callers whose core set is known non-empty
// by construction (e.g. a communicator's own members).
func MustBarrier(model *memmodel.Model, name string, cores []int) *Barrier {
	b, err := NewBarrier(model, name, cores)
	if err != nil {
		panic(err)
	}
	return b
}

// Arrive blocks until all participants arrive; everyone leaves at
// max(arrival) + barrier latency.
func (b *Barrier) Arrive(p *sim.Proc) {
	b.model.CountSync()
	p.Arrive(b.b, b.latency)
}

// Parties returns the participant count.
func (b *Barrier) Parties() int { return b.b.Parties() }
