package serve

import (
	"fmt"

	"yhccl/internal/fault"
	"yhccl/internal/mpi"
	"yhccl/internal/resilient"
	"yhccl/internal/topo"
)

// Service-time measurement: the scheduler's fluid rates come from real sim
// runs of the job body on a machine with exactly the job's per-socket rank
// shape and the current co-tenant counts folded into the bandwidth shares
// (mpi.NewMachineWithContention). Measurements are memoized per distinct
// (spec, shape, contention) state — the binding is canonicalized to the
// lowest cores of each socket, so two jobs with the same shape share one
// measurement no matter which cores they actually lease.

// Oracle replaces the sim-backed service-time measurement (used by
// scheduler micro-benchmarks that exercise admission/placement logic
// without paying for simulation). It must be deterministic.
type Oracle func(spec JobSpec, perSocket, ext []int) float64

// measured is one memoized measurement: the service time and, for
// fault-seeded jobs, the supervisor's verdict.
type measured struct {
	t   float64
	out resilient.Outcome
}

// measurer memoizes sim-backed service times for one node.
type measurer struct {
	node   *topo.Node
	memo   map[memoKey]measured
	oracle Oracle
}

func newMeasurer(node *topo.Node) *measurer {
	return &measurer{node: node, memo: make(map[memoKey]measured)}
}

// keySockets is how many sockets a memo key holds inline: every node the
// repository models has two.
const keySockets = 4

// memoKey canonicalizes a measurement request as a comparable value: the
// spec fields a measurement depends on, the per-socket shape and the
// co-tenant counts. Making and looking it up formats nothing, except on a
// node with more than keySockets sockets, whose counts are spelled out in
// wide.
type memoKey struct {
	collective, alg string
	msgBytes        int64
	calls           int
	faultSeed       uint64
	nPer, nExt      int
	perSocket, ext  [keySockets]int
	wide            string
}

// measureKey returns the memo key of a measurement request.
func measureKey(spec JobSpec, perSocket, ext []int) memoKey {
	k := memoKey{
		collective: spec.Collective, alg: spec.Alg, msgBytes: spec.MsgBytes,
		calls: spec.Calls, faultSeed: spec.FaultSeed,
		nPer: len(perSocket), nExt: len(ext),
	}
	if len(perSocket) > keySockets || len(ext) > keySockets {
		k.wide = fmt.Sprint(perSocket, ext)
		return k
	}
	copy(k.perSocket[:], perSocket)
	copy(k.ext[:], ext)
	return k
}

// canonicalCores turns a per-socket shape into a deterministic binding on
// the lowest cores of each socket.
func canonicalCores(node *topo.Node, perSocket []int) []int {
	var cores []int
	for s, k := range perSocket {
		base := s * node.CoresPerSocket
		for i := 0; i < k; i++ {
			cores = append(cores, base+i)
		}
	}
	return cores
}

// service returns the job's total service time (all Calls) on its shape
// under the given per-socket co-tenant counts. Healthy jobs are measured
// model-only; fault-seeded jobs run supervised on real data (bit-flip
// validation needs payloads) via faultService.
func (ms *measurer) service(spec JobSpec, perSocket, ext []int) float64 {
	return ms.measure(spec, perSocket, ext).t
}

// measure is the memoized entry behind service and outcome.
func (ms *measurer) measure(spec JobSpec, perSocket, ext []int) measured {
	if ms.oracle != nil {
		return measured{t: ms.oracle(spec, perSocket, ext), out: resilient.CleanPass}
	}
	k := measureKey(spec, perSocket, ext)
	if m, ok := ms.memo[k]; ok {
		return m
	}
	var m measured
	if spec.FaultSeed != 0 {
		m.t, m.out = ms.faultService(spec, perSocket, ext)
	} else {
		m = measured{t: ms.healthyService(spec, perSocket, ext), out: resilient.CleanPass}
	}
	ms.memo[k] = m
	return m
}

// healthyService measures the full Calls-loop once, cold, on a contended
// machine. Cold-start costs appear identically in every contention state,
// so solo/co-tenant ratios — all the scheduler consumes — stay meaningful.
func (ms *measurer) healthyService(spec JobSpec, perSocket, ext []int) float64 {
	m := mpi.NewMachineWithContention(ms.node, canonicalCores(ms.node, perSocket), ext, false)
	body, err := healthyBody(spec, m.Size())
	if err != nil {
		panic(err) // specs are validated at submission; this is a scheduler bug
	}
	return m.MustRun(body)
}

// healthyBody builds the model-only per-rank loop for a spec: Calls
// back-to-back collective calls, each after the rank re-warms its input
// (for bcast, only the root has one).
func healthyBody(spec JobSpec, p int) (func(*mpi.Rank), error) {
	call := spec.call()
	_, f, err := call.Bind(p)
	if err != nil {
		return nil, err
	}
	rootOnly := spec.Collective == "bcast"
	return func(r *mpi.Rank) {
		sb, rb := call.Buffers(p, "serve/", r.PersistentBuffer)
		for i := 0; i < spec.Calls; i++ {
			if !rootOnly || r.ID() == call.Root {
				r.Warm(sb, 0, sb.Elems)
			}
			f(r, r.World(), sb, rb)
		}
	}, nil
}

// faultService measures a fault-seeded tenant: one validated collective
// call runs under the resilient supervisor (real data, the seed's
// GenPlan), and the remaining Calls-1 are charged at the healthy
// per-call time — the fault fires once, recovery happens once. Failed
// attempts charge the virtual time they actually burned before being
// diagnosed (Attempt.Elapsed) — not a flat healthy call — so deadline
// accounting sees the true cost of every retry. Returns the total service
// time and the supervisor's outcome.
func (ms *measurer) faultService(spec JobSpec, perSocket, ext []int) (float64, resilient.Outcome) {
	healthySpec := spec
	healthySpec.FaultSeed = 0
	healthy := ms.service(healthySpec, perSocket, ext)
	perCall := healthy / float64(spec.Calls)

	cores := canonicalCores(ms.node, perSocket)
	m := mpi.NewMachineWithContention(ms.node, cores, ext, true)
	plan := fault.GenPlan(spec.FaultSeed, len(cores), perCall)
	if err := m.SetFaultPlan(plan); err != nil {
		panic(fmt.Sprintf("serve: bad generated plan: %v", err))
	}
	pol := resilient.DefaultPolicy()
	pol.AllowRemap = false // leased cores come with no spares to quarantine onto
	rep := resilient.Supervise(m, resilient.ValidatedJob(spec.Collective, spec.Alg, spec.call().N), pol)

	total := 0.0
	for _, a := range rep.Attempts {
		switch {
		case a.Makespan > 0:
			total += a.Makespan
		case a.Elapsed > 0:
			total += a.Elapsed
		default:
			// Diagnosed before any rank advanced (e.g. bind failure):
			// charge one healthy call as the floor.
			total += perCall
		}
	}
	total += float64(spec.Calls-1) * perCall
	return total, rep.Outcome
}

// outcome returns the supervisor outcome of a fault-seeded job under the
// given contention (memoized with the service time); healthy jobs are
// CleanPass.
func (ms *measurer) outcome(spec JobSpec, perSocket, ext []int) resilient.Outcome {
	if spec.FaultSeed == 0 || ms.oracle != nil {
		return resilient.CleanPass
	}
	return ms.measure(spec, perSocket, ext).out
}
