package coll

// Resilient dispatch: every collective has a fallback chain — the primary
// algorithm followed by progressively more conservative variants — walked by
// the recovery supervisor when the primary keeps failing under faults. The
// fallbacks favor tree/two-level shapes over rings: a ring couples every
// rank to its neighbor at every step, so one straggler stretches all p
// pipeline stages, while a two-level or binomial shape pays the slow rank's
// cost once, in a single leaf contribution.

// fallbacks lists the straggler-tolerant tail of each collective's chain,
// most preferred first. Every entry must exist in the matching registry
// (checked by tests).
var fallbacks = map[string][]string{
	"allreduce":      {"two-level", "ring"},
	"reduce-scatter": {"ring"},
	"reduce":         {"two-level"},
	"bcast":          {"binomial"},
	"allgather":      {"ring"},
}

// FallbackChain returns the algorithm sequence resilient dispatch walks for
// the collective: the primary first, then the registered fallbacks with any
// duplicate of the primary removed. Unknown collectives get a chain of just
// the primary.
func FallbackChain(collective, primary string) []string {
	chain := []string{primary}
	for _, name := range fallbacks[collective] {
		if name != primary {
			chain = append(chain, name)
		}
	}
	return chain
}

// MaxFallbackDepth returns the largest meaningful Options.FallbackDepth for
// the collective/primary pair (0 when there is nothing to fall back to).
func MaxFallbackDepth(collective, primary string) int {
	return len(FallbackChain(collective, primary)) - 1
}

// resolveChain picks the chain entry at o.FallbackDepth, clamping past-end
// depths to the last (most conservative) algorithm.
func resolveChain(collective, primary string, o Options) string {
	chain := FallbackChain(collective, primary)
	d := o.FallbackDepth
	if d < 0 {
		d = 0
	}
	if d >= len(chain) {
		d = len(chain) - 1
	}
	return chain[d]
}

// SumBasesSalted is SumBases offset by a retry salt: attempt k fills rank
// r's buffer with base r*1000 + k*17. Salt 0 is exactly SumBases, keeping
// the clean path bit-identical; a non-zero salt gives each retry a fresh
// fill pattern, so a validation pass on the retried run cannot be satisfied
// by data left over from the corrupted attempt. All values stay small
// integers, preserving the exact-float64 property of the validators.
func SumBasesSalted(p, salt int) []float64 {
	bases := make([]float64, p)
	for i := range bases {
		bases[i] = float64(i*1000 + salt*17)
	}
	return bases
}
