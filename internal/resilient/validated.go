package resilient

import (
	"yhccl/internal/coll"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
)

// ValidatedJob is the supervised job every rank-level fault sweep runs: one
// call of the collective (algorithm alg; "" selects "yhccl") on n elements
// per the collective's buffer convention. Each attempt resolves alg's
// fallback chain at the attempt's depth, fills the send buffers with the
// integer-ramp pattern salted per attempt, and validates every rank's output
// exactly; validate returns the first divergence any rank found.
func ValidatedJob(collective, alg string, n int64) Job {
	if alg == "" {
		alg = "yhccl"
	}
	return Job{
		Name:     collective + "/" + alg,
		MaxDepth: coll.MaxFallbackDepth(collective, alg),
		Bind: func(m *mpi.Machine, depth, salt int) (func(*mpi.Rank), func() error, error) {
			call := coll.Call{
				Coll:      collective,
				Params:    plan.Params{Family: alg},
				Resilient: true,
				N:         n,
				Options:   coll.Options{FallbackDepth: depth},
			}
			// p may differ from the original size after a communicator shrink.
			p := m.Size()
			name, f, err := call.Bind(p)
			if err != nil {
				return nil, nil, err
			}
			bases := coll.SumBasesSalted(p, salt)
			if collective == "bcast" {
				// Keep the root's ramp off zero, so a sign-bit flip of its
				// first element still shows.
				bases[call.Root] += 777
			}
			op := collective + "/" + name
			var verr error
			return func(r *mpi.Rank) {
				sb, rb := call.Buffers(p, "", r.NewBuffer)
				call.Fill(r, sb, bases)
				f(r, r.World(), sb, rb)
				if err := call.Validate(op, r.ID(), sb, rb, bases); err != nil && verr == nil {
					verr = err
				}
			}, func() error { return verr }, nil
		},
	}
}
