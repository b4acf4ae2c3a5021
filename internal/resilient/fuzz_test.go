package resilient

import (
	"os"
	"path/filepath"
	"testing"

	"yhccl/internal/fault"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// FuzzRankPlan requires every rank fault plan that loads and validates on
// an 8-rank world to be supervised without a panic, on DPML, two-level,
// socket-MA and ring all-reduces of real data on NodeA. DPML and two-level
// run their copy-ins, reductions and copy-outs as runs of fused ops; the
// socket-MA all-reduce (the flat MA chain on these 8 ranks of one socket)
// and the ring's p2p transfers run as sequences of flag waits, ops and
// flag sets. So the faults land inside runs and sequences. Every outcome
// must be one of the typed ones, and a clean pass must come from one
// attempt whose output validated. With raw set, the fuzzed bytes are the
// plan file. Otherwise a plan built from the fuzzed fields goes through
// fault.SavePlan, so the file passes the checksum and the fields reach
// Validate; kinds selects its faults (bit 0 a straggler, 1 a stall, which
// bit 3 makes a crash, 2 a bit flip), all on rank. The seeds are a
// straggler, a crash during the DPML copy-in run, a bit flip of the second
// shared write of that run, a crash on rank 3 while it is blocked in an MA
// chain wait (it blocks at 1.466 µs), one while it is blocked in a ring
// receive's wait (at 6.316 µs), and a bit flip of rank 3's third shared
// write, an MA chain op or a ring send's chunk copy. `go test` runs the
// seed corpus; `go test -fuzz=FuzzRankPlan` explores further.
func FuzzRankPlan(f *testing.F) {
	const ranks = 8
	const n = 4096 // four DPML slices
	jobs := []Job{ValidatedJob("allreduce", "dpml", n), ValidatedJob("allreduce", "two-level", n),
		ValidatedJob("allreduce", "socket-ma", n), ValidatedJob("allreduce", "ring", n)}
	f.Add(true, []byte(`{"format_version": 1}`), uint8(0), 0, 0.0, 0.0, uint64(0), 0, uint(0))
	f.Add(false, []byte(nil), uint8(1), 3, 1.5, 0.0, uint64(0), 0, uint(0))
	f.Add(false, []byte(nil), uint8(2|8), 5, 0.0, 2e-6, uint64(0), 0, uint(0))
	f.Add(false, []byte(nil), uint8(4), 2, 0.0, 0.0, uint64(1), 100, uint(52))
	f.Add(false, []byte(nil), uint8(2|8), 3, 0.0, 1.5e-6, uint64(0), 0, uint(0))
	f.Add(false, []byte(nil), uint8(2|8), 3, 0.0, 6.4e-6, uint64(0), 0, uint(0))
	f.Add(false, []byte(nil), uint8(4), 3, 0.0, 0.0, uint64(2), 7, uint(52))
	f.Fuzz(func(t *testing.T, raw bool, data []byte, kinds uint8, rank int, factor, at float64,
		write uint64, elem int, bit uint) {
		path := filepath.Join(t.TempDir(), "plan.json")
		if raw {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			pl := &fault.Plan{Name: "fuzz"}
			if kinds&1 != 0 {
				pl.Stragglers = []fault.Straggler{{Rank: rank, Factor: factor}}
			}
			if kinds&2 != 0 {
				pl.Stalls = []fault.Stall{{Rank: rank, At: at, Crash: kinds&8 != 0}}
			}
			if kinds&4 != 0 {
				pl.Corruptions = []fault.Corruption{{Rank: rank, SharedWrite: write, Elem: elem, Bit: bit}}
			}
			if err := fault.SavePlan(path, pl, ranks); err != nil {
				return
			}
		}
		pf, err := fault.LoadPlanFile(path)
		if err != nil || pf.Rank == nil || pf.Rank.Validate(ranks) != nil {
			return
		}
		for _, job := range jobs {
			var verr error
			bind := job.Bind
			job.Bind = func(m *mpi.Machine, depth, salt int) (func(*mpi.Rank), func() error, error) {
				body, validate, err := bind(m, depth, salt)
				return body, func() error { verr = validate(); return verr }, err
			}
			m := mpi.NewMachineWithSpares(topo.NodeA(), ranks, 2, true)
			if err := m.SetFaultPlan(pf.Rank); err != nil {
				t.Fatalf("%s: a validated plan was not armed: %v", pf.Rank, err)
			}
			rep := Supervise(m, job, DefaultPolicy())
			switch rep.Outcome {
			case CleanPass:
				if len(rep.Attempts) != 1 || verr != nil {
					t.Fatalf("%s: %s: clean pass after %d attempts, validation %v", pf.Rank, job.Name, len(rep.Attempts), verr)
				}
			case RecoveredRetry, RecoveredRemap, RecoveredShrink, RecoveredFallback, Unrecoverable, Undiagnosed:
			default:
				t.Fatalf("%s: %s: untyped outcome %q", pf.Rank, job.Name, rep.Outcome)
			}
		}
	})
}
