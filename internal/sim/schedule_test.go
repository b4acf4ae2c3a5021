package sim

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite testdata/schedule.golden from the current engine")

// scheduleProcCounts are the program sizes the schedule golden cycles
// through: a lone proc, and sizes on both sides of powers of two up to 130.
var scheduleProcCounts = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 127, 128, 129, 130}

// scheduleDigest is the FNV-64a digest of a run: every executed sub-charge
// and op as (proc, op, step, clock bits) in execution order, then every
// final clock's bits.
func scheduleDigest(r chargeRun) uint64 {
	h := fnv.New64a()
	for _, e := range r.log.entries {
		fmt.Fprintf(h, "%d %d %d %x\n", e.proc, e.op, e.step, math.Float64bits(e.clock))
	}
	for i, c := range r.clocks {
		fmt.Fprintf(h, "clock %d %x\n", i, math.Float64bits(c))
	}
	return h.Sum64()
}

// TestScheduleGolden pins the coroutine engine's schedule: the executed
// order and clocks of 300 seeded charge programs of 1-130 procs, and the
// watchdog's verdict on a livelocked one, are compared byte for byte with
// testdata/schedule.golden. Regenerate (only for an intentional schedule
// change) with: go test ./internal/sim -run TestScheduleGolden -update
func TestScheduleGolden(t *testing.T) {
	var sb strings.Builder
	for seed := int64(1); seed <= 300; seed++ {
		n := scheduleProcCounts[int(seed-1)%len(scheduleProcCounts)]
		pr := genChargeProgramN(rand.New(rand.NewSource(seed)), n)
		r := pr.run((*Proc).Charge)
		if r.err != nil {
			t.Fatalf("seed %d (%d procs): %v", seed, n, r.err)
		}
		fmt.Fprintf(&sb, "seed=%d procs=%d entries=%d digest=%016x\n",
			seed, n, len(r.log.entries), scheduleDigest(r))
	}
	r := genLivelockProgram(1).run((*Proc).Charge)
	var ll *LivelockError
	if !errors.As(r.err, &ll) {
		t.Fatalf("livelock program: error %v, want *LivelockError", r.err)
	}
	fmt.Fprintf(&sb, "livelock seed=1 switches=%d clock=%x entries=%d digest=%016x\n",
		ll.Switches, math.Float64bits(ll.Clock), len(r.log.entries), scheduleDigest(r))

	got := sb.String()
	path := filepath.Join("testdata", "schedule.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("schedule diverged from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
