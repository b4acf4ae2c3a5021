// Package serve turns the calibrated single-job simulator into a
// multi-tenant serving system: an admission/placement scheduler leases
// cores to concurrent jobs on one simulated machine, co-tenants contend
// for socket DRAM/L3 bandwidth and LLC capacity through
// memmodel.NewShared, and an open-loop arrival harness drives a seeded,
// deterministic mixed stream of job classes reporting per-class p50/p99
// makespan and aggregate throughput versus offered load.
//
// The scheduler is a fluid (processor-sharing) simulation over the exact
// cost model: a job's work is its measured solo-contended service time,
// its progress rate under a tenancy is work/S(ext) where S(ext) is the
// service time measured on a machine sharing the job's sockets with ext
// co-tenant ranks, and rates are piecewise constant between admission and
// completion events — so the whole schedule is deterministic, replayable
// from one seed, and every service time comes from the same simulator the
// paper figures use (memoized per distinct contention state).
package serve

import (
	"fmt"

	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/plan"
)

// Placement selects how a job's ranks map onto sockets.
type Placement int

const (
	// PlaceAuto picks per job: spread for DRAM-bound large messages
	// (>= AutoSpreadBytes, where aggregate cross-socket DRAM bandwidth
	// wins), pack otherwise (cheap intra-socket synchronization wins).
	PlaceAuto Placement = iota
	// PlacePack keeps the job on as few sockets as possible (best-fit
	// socket first, spill in socket order).
	PlacePack
	// PlaceSpread balances the job's ranks across sockets round-robin.
	PlaceSpread
)

// AutoSpreadBytes is the PlaceAuto switch: jobs moving at least this many
// bytes per rank are treated as DRAM-bound and spread.
const AutoSpreadBytes = 1 << 20

func (p Placement) String() string {
	switch p {
	case PlaceAuto:
		return "auto"
	case PlacePack:
		return "pack"
	case PlaceSpread:
		return "spread"
	}
	return fmt.Sprintf("placement(%d)", int(p))
}

// ParsePlacement converts a CLI flag value to a Placement.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "auto", "":
		return PlaceAuto, nil
	case "pack":
		return PlacePack, nil
	case "spread":
		return PlaceSpread, nil
	}
	return PlaceAuto, fmt.Errorf("serve: unknown placement %q (auto|pack|spread)", s)
}

// JobSpec is the single declarative job description consumed by the
// scheduler, the yhcclbench -serve harness and examples/serving: what the
// job runs (collective, algorithm, message size, call count), what it
// needs (rank count), how it prefers to be placed, and how often it shows
// up in a mixed arrival stream. No per-tool ad-hoc structs.
type JobSpec struct {
	// Name is the job-class label used in reports ("dnn-storm", ...).
	Name string
	// Collective and Alg name the operation exactly as the unified facade
	// request does ("allreduce"/"yhccl", ...); Alg "" selects the default.
	Collective string
	Alg        string
	// MsgBytes is the per-rank message size of one collective call.
	MsgBytes int64
	// Calls is how many back-to-back collective calls one job issues (a
	// DNN storm is many; an OSU micro-flow is one).
	Calls int
	// Ranks is the number of exclusively leased cores the job needs.
	Ranks int
	// Placement is the job's placement hint (the scheduler may override).
	Placement Placement
	// Weight is the class's relative arrival probability in a mixed
	// stream (the arrival law: classes are drawn weight-proportionally,
	// interarrivals are exponential in the offered rate).
	Weight float64
	// FaultSeed, when non-zero, runs the job under the resilient
	// supervisor with the fault plan fault.GenPlan derives from the seed:
	// the tenant must recover (or at worst diagnose) without perturbing
	// its neighbors' leases.
	FaultSeed uint64
	// Deadline is the job's submission-to-completion budget in virtual
	// seconds (0 = none). The scheduler never drops an admitted job for
	// missing its deadline — violations are counted and gated instead, so
	// an overloaded system must protect deadlines by shedding at
	// admission, not by aborting work in flight.
	Deadline float64
}

// Validate checks a spec for the scheduler's requirements.
func (j JobSpec) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("serve: job spec with empty Name")
	}
	if j.MsgBytes < 8 {
		return fmt.Errorf("serve: job %q: MsgBytes %d below one element", j.Name, j.MsgBytes)
	}
	if j.Calls <= 0 {
		return fmt.Errorf("serve: job %q: Calls must be positive", j.Name)
	}
	if j.Ranks < 2 {
		return fmt.Errorf("serve: job %q: Ranks must be at least 2", j.Name)
	}
	if j.Weight < 0 {
		return fmt.Errorf("serve: job %q: negative Weight", j.Name)
	}
	if j.Deadline < 0 {
		return fmt.Errorf("serve: job %q: negative Deadline", j.Name)
	}
	if _, _, err := j.call().Bind(j.Ranks); err != nil {
		return fmt.Errorf("serve: job %q: %w", j.Name, err)
	}
	if _, err := plan.ParseColl(j.Collective); err != nil && j.FaultSeed != 0 {
		return fmt.Errorf("serve: job %q: FaultSeed covers only the paper collectives (allreduce, reduce-scatter, reduce, bcast, allgather), not %s", j.Name, j.Collective)
	}
	return nil
}

// call is one collective call of the job: MsgBytes per rank (at least one
// element) of Alg ("" is "yhccl"), rooted at rank 0.
func (j JobSpec) call() coll.Call {
	return coll.Call{Coll: j.Collective, Params: plan.Params{Family: j.Alg}, N: max(j.MsgBytes/memmodel.ElemSize, 1)}
}

// DefaultMix is the reference mixed workload: DNN all-reduce storms
// (large, DRAM-bound, many calls), miniAMR-style halo phases (medium
// personalized exchanges), and OSU micro-flows (tiny latency-bound
// one-shots, arriving most often).
func DefaultMix() []JobSpec {
	return []JobSpec{
		{
			Name:       "dnn-storm",
			Collective: "allreduce",
			MsgBytes:   4 << 20,
			Calls:      8,
			Ranks:      8,
			Placement:  PlaceAuto,
			Weight:     1,
		},
		{
			Name:       "miniamr-halo",
			Collective: "alltoall",
			MsgBytes:   64 << 10,
			Calls:      6,
			Ranks:      4,
			Placement:  PlaceAuto,
			Weight:     1,
		},
		{
			Name:       "osu-micro",
			Collective: "allreduce",
			MsgBytes:   8 << 10,
			Calls:      1,
			Ranks:      2,
			Placement:  PlacePack,
			Weight:     2,
		},
	}
}
