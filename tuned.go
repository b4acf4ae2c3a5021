package yhccl

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"yhccl/internal/coll"
	"yhccl/internal/plan"
)

// Tuned-plan integration: the persistent plan cache produced by the offline
// synthesizer (internal/tune, driven by `yhcclbench -tune` / `make tune`)
// is loaded once per machine and consulted per call in O(1) with zero
// allocations. A missing, corrupted or out-of-date cache degrades
// gracefully to the hand-tuned switch — a warning is surfaced once per
// process per cache file, never a panic.

// PlanDir returns the repository's default plans directory (the `plans/`
// tree next to go.mod), or "" when not running inside the repository.
func PlanDir() string { return plan.DefaultDir() }

var (
	planWarn sync.Map // cache path -> struct{}, one warning per file
	planMemo sync.Map // cache path -> *coll.Planner, parsed once per process
)

// attachDefaultPlans is the comm-init hook behind NewMachine: if the
// repository's plans/ directory holds a tuned cache for this exact
// (topology, rank count), attach it so tuned dispatch (Req.Tuned) works out
// of the box. The parsed planner is memoized per cache file, so machines
// created in a loop share one load; absent or invalid caches leave the
// machine untuned (invalid ones warn once, matching AttachPlans).
func attachDefaultPlans(m *Machine) {
	dir := PlanDir()
	if dir == "" {
		return
	}
	node, p := m.Node, m.Size()
	key := dir + "/" + plan.FileName(node.Name, p)
	if pl, ok := planMemo.Load(key); ok {
		m.SetTuning(pl.(*coll.Planner))
		return
	}
	cache, err := plan.Load(dir, node, p)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			warnPlanOnce(dir, node.Name, p, err)
		}
		return
	}
	table, err := cache.Table()
	if err != nil {
		warnPlanOnce(dir, node.Name, p, err)
		return
	}
	pl := coll.NewPlanner(table)
	planMemo.Store(key, pl)
	m.SetTuning(pl)
}

// AttachPlans loads the tuned-plan cache for the machine's topology and
// rank count from dir ("" selects PlanDir) and attaches it, so Exec
// requests with Tuned set dispatch through it. Loading happens here, once,
// at machine setup — never per collective call.
//
// A missing cache is not an error: the machine is left untuned and tuned
// dispatch falls back to the hand-tuned switch. A cache that exists but
// fails validation (version bump, topology recalibration, checksum mismatch)
// degrades the same way, with one warning per process on stderr naming the
// cause; the returned error carries it for callers that want to fail hard.
func AttachPlans(m *Machine, dir string) error {
	if dir == "" {
		dir = PlanDir()
		if dir == "" {
			return nil
		}
	}
	node, p := m.Node, m.Size()
	cache, err := plan.Load(dir, node, p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		warnPlanOnce(dir, node.Name, p, err)
		return err
	}
	table, err := cache.Table()
	if err != nil {
		warnPlanOnce(dir, node.Name, p, err)
		return err
	}
	m.SetTuning(coll.NewPlanner(table))
	return nil
}

func warnPlanOnce(dir, topology string, ranks int, err error) {
	key := dir + "/" + plan.FileName(topology, ranks)
	if _, dup := planWarn.LoadOrStore(key, struct{}{}); !dup {
		fmt.Fprintf(os.Stderr, "yhccl: ignoring tuned-plan cache %s: %v (falling back to hand-tuned switch)\n", key, err)
	}
}
