package tune

import (
	"fmt"

	"yhccl/internal/bench"
	"yhccl/internal/coll"
	"yhccl/internal/plan"
	"yhccl/internal/topo"
)

// Point is one verified sweep point: the tuned dispatch's simulated time
// against the best hand-written baseline of the corresponding figure.
type Point struct {
	Collective string
	SizeBytes  int64
	Tuned      float64
	BestHand   float64
	BestName   string
	// Family is the plan family the table dispatched to.
	Family string
	// Strict records a strict win (tuned < every hand-written baseline).
	Strict bool
}

// figBaselines lists the hand-written algorithm families each collective
// is verified against — the union of the fig11 and fig15 baselines
// (including the production stand-ins and the hand-tuned "yhccl" switch
// itself). Ties count as passes; the gate fails only if some baseline
// strictly beats the tuned dispatch at a sweep point.
func figBaselines(c plan.Coll) []string {
	switch c {
	case plan.Allreduce:
		// fig11a/b + fig15c.
		return []string{"yhccl", "socket-ma", "ma", "dpml", "rg", "ring", "rabenseifner", "two-level", "cma", "xpmem"}
	case plan.ReduceScatter:
		// fig9 + fig15a.
		return []string{"yhccl", "socket-ma", "ma", "dpml", "ring", "rabenseifner", "two-level", "xpmem"}
	case plan.Reduce:
		// fig10 + fig15b.
		return []string{"yhccl", "socket-ma", "ma", "dpml", "rg", "two-level", "xpmem"}
	case plan.Bcast:
		// fig15d.
		return []string{"yhccl", "binomial", "cma", "xpmem"}
	case plan.Allgather:
		// fig15e.
		return []string{"yhccl", "ring", "xpmem"}
	}
	return nil
}

// Verify measures the tuned dispatch at every fig11/fig15 sweep point on
// the machine and checks the beats-or-matches gate against every figure
// baseline. Returns all points (for reporting) and an error naming the
// first regression if any baseline strictly beats the table's choice.
func Verify(node *topo.Node, p int, table *plan.Table, quick bool) ([]Point, error) {
	planner := coll.NewPlanner(table)
	base := bench.NodeOptions(node)
	var points []Point
	var firstErr error
	for _, c := range plan.Colls() {
		for _, s := range collSizes(c, quick) {
			// The tuned dispatch runs through the harness that measures the
			// baselines, so ties are exact.
			tuned, err := bench.Measure(node, p, coll.Call{Coll: c.String(), Planner: planner, Options: base}, s)
			if err != nil {
				return nil, err
			}
			bestT, bestName := 0.0, ""
			strict := true
			for _, fam := range figBaselines(c) {
				t, err := Measure(node, p, c, plan.Params{Family: fam}, s)
				if err != nil {
					return nil, err
				}
				if bestName == "" || t < bestT {
					bestT, bestName = t, fam
				}
				if t <= tuned {
					strict = false
				}
			}
			entry := table.Lookup(c, s)
			fam := ""
			if entry != nil {
				fam = entry.Params.String()
			}
			points = append(points, Point{
				Collective: c.String(), SizeBytes: s,
				Tuned: tuned, BestHand: bestT, BestName: bestName,
				Family: fam, Strict: strict,
			})
			if tuned > bestT && firstErr == nil {
				firstErr = fmt.Errorf("tune: %s at %d B: tuned %s took %.3es, hand-written %s %.3es",
					c, s, fam, tuned, bestName, bestT)
			}
		}
	}
	return points, firstErr
}
