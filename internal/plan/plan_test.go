package plan

import (
	"fmt"
	"strings"
	"testing"

	"yhccl/internal/dav"
	"yhccl/internal/schedule"
)

func TestBucketEdges(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3},
		{1024, 10}, {1025, 11}, {64 << 10, 16}, {64<<10 + 1, 17},
		{256 << 20, 28},
	}
	for _, c := range cases {
		if got := Bucket(c.bytes); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.bytes, got, c.want)
		}
		if c.bytes > 1 && BucketSize(Bucket(c.bytes)) < c.bytes {
			t.Errorf("BucketSize(Bucket(%d)) = %d < %d", c.bytes, BucketSize(Bucket(c.bytes)), c.bytes)
		}
	}
}

func mkPlans(coll string, buckets ...int) []Plan {
	out := make([]Plan, 0, len(buckets))
	for _, b := range buckets {
		out = append(out, Plan{
			Collective: coll, Bucket: b, SizeBytes: BucketSize(b),
			Params: Params{Family: "socket-ma"}, Source: "seed",
		})
	}
	return out
}

func TestTableLookupClampsToEdges(t *testing.T) {
	plans := mkPlans("allreduce", 16, 17, 18)
	plans[0].Params.Family = "two-level"
	tab, err := NewTable(plans)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Entries() != 3 {
		t.Fatalf("Entries = %d, want 3", tab.Entries())
	}
	// Below range clamps to the smallest bucket, above to the largest.
	if p := tab.Lookup(Allreduce, 8); p.Bucket != 16 {
		t.Errorf("tiny message got bucket %d, want 16", p.Bucket)
	}
	if p := tab.Lookup(Allreduce, 1<<30); p.Bucket != 18 {
		t.Errorf("huge message got bucket %d, want 18", p.Bucket)
	}
	if p := tab.Lookup(Allreduce, (64<<10)+1); p.Bucket != 17 {
		t.Errorf("128K-bucket message got bucket %d, want 17", p.Bucket)
	}
	// Untuned collective returns nil.
	if p := tab.Lookup(Bcast, 1<<20); p != nil {
		t.Errorf("untuned collective returned %+v, want nil", p)
	}
	if sw, ok := tab.SwitchBytes(Allreduce); !ok || sw != BucketSize(16) {
		t.Errorf("SwitchBytes = %d, %v; want %d, true", sw, ok, BucketSize(16))
	}
}

func TestTableLookupZeroAllocs(t *testing.T) {
	tab, err := NewTable(mkPlans("allreduce", 13, 14, 15, 16, 17, 18))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if tab.Lookup(Allreduce, 1<<20) == nil {
			t.Fatal("nil plan")
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocates %.1f/op, want 0", allocs)
	}
}

func TestTableRejectsDuplicatesAndGaps(t *testing.T) {
	if _, err := NewTable(mkPlans("allreduce", 16, 16)); err == nil {
		t.Error("duplicate bucket accepted")
	}
	if _, err := NewTable(mkPlans("allreduce", 16, 18)); err == nil {
		t.Error("bucket gap accepted")
	}
	bad := mkPlans("allreduce", 16)
	bad[0].Collective = "alltoall"
	if _, err := NewTable(bad); err == nil {
		t.Error("unknown collective accepted")
	}
}

// A bucket outside Bucket's range over int64 sizes is an error naming the
// collective and the bucket, before any slot is allocated: a table spanning
// buckets 0..2^40 would otherwise exhaust memory.
func TestTableRejectsOutOfRangeBuckets(t *testing.T) {
	cases := []struct {
		coll    string
		buckets []int
		bad     int // the bucket the error must name; 0 when the table is valid
	}{
		{"allreduce", []int{0, 1 << 40}, 1 << 40},
		{"allreduce", []int{-1 << 62, 1 << 62}, -1 << 62},
		{"allreduce", []int{-1, 0}, -1},
		{"bcast", []int{63, 64}, 64},
		{"bcast", []int{0, 1}, 0},
		{"reduce", []int{62, 63}, 0},
	}
	for _, c := range cases {
		var plans []Plan
		for _, b := range c.buckets {
			plans = append(plans, Plan{Collective: c.coll, Bucket: b, Params: Params{Family: "socket-ma"}, Source: "seed"})
		}
		_, err := NewTable(plans)
		switch {
		case c.bad == 0 && err != nil:
			t.Errorf("%s buckets %v rejected: %v", c.coll, c.buckets, err)
		case c.bad != 0 && err == nil:
			t.Errorf("%s buckets %v accepted", c.coll, c.buckets)
		case c.bad != 0 && !strings.Contains(err.Error(), fmt.Sprintf("%s bucket %d ", c.coll, c.bad)):
			t.Errorf("%s buckets %v: error %q does not name %s bucket %d", c.coll, c.buckets, err, c.coll, c.bad)
		}
	}
}

func TestParseCollRoundTrip(t *testing.T) {
	for _, c := range Colls() {
		got, err := ParseColl(c.String())
		if err != nil || got != c {
			t.Errorf("ParseColl(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseColl("alltoall"); err == nil {
		t.Error("ParseColl accepted unknown name")
	}
}

func TestParamsString(t *testing.T) {
	p := Params{Family: "socket-ma", SliceKB: 128, Policy: "nt-copy", Fanout: 4}
	if got := p.String(); got != "socket-ma/I=128K/nt-copy/f=4" {
		t.Errorf("String = %q", got)
	}
	if p.IsDefault() {
		t.Error("searched params reported as default")
	}
	if !(Params{Family: "ring"}).IsDefault() {
		t.Error("bare family not default")
	}
}

// Graph lowered from the MA schedule must price exactly at Table 1's
// s(3p-1) (reduce-scatter) and Table 2's s(5p-1) (all-reduce); the pure
// copy DAGs must match the pipelined closed forms.
func TestGraphDAVMatchesClosedForms(t *testing.T) {
	const s = int64(1 << 20)
	for _, p := range []int{2, 4, 8, 16} {
		block := s / int64(p)
		g, err := FromSchedule(schedule.MA(p))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got, want := g.DAVBytes(block), dav.MAReduceScatter(s, p); got != want {
			t.Errorf("p=%d MA RS graph DAV = %d, want %d", p, got, want)
		}
		if got, want := g.CopyVolumeBytes(block), 2*s; got != want {
			t.Errorf("p=%d MA RS copy volume = %d, want %d (optimal)", p, got, want)
		}
		ar, err := AllreduceFromSchedule(schedule.MA(p))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got, want := ar.DAVBytes(block), dav.MAAllreduce(s, p); got != want {
			t.Errorf("p=%d MA AR graph DAV = %d, want %d", p, got, want)
		}
		if got, want := BcastGraph(p, 0).DAVBytes(s), dav.PipelinedBcast(s, p); got != want {
			t.Errorf("p=%d bcast graph DAV = %d, want %d", p, got, want)
		}
		if got, want := AllgatherGraph(p).DAVBytes(s), dav.PipelinedAllgather(s, p); got != want {
			t.Errorf("p=%d allgather graph DAV = %d, want %d", p, got, want)
		}
	}
}

func TestGraphLoweringValidates(t *testing.T) {
	for _, p := range []int{2, 3, 4, 7, 8, 16} {
		for name, sch := range map[string]schedule.Schedule{
			"ma": schedule.MA(p), "dpml": schedule.DPML(p),
		} {
			if _, err := FromSchedule(sch); err != nil {
				t.Errorf("p=%d %s reduce-scatter: %v", p, name, err)
			}
			if _, err := AllreduceFromSchedule(sch); err != nil {
				t.Errorf("p=%d %s all-reduce: %v", p, name, err)
			}
		}
	}
}

// A schedule with the wrong number of trees (one per block) is not a
// reduce-scatter of its rank count and must not lower to a graph.
func TestFromScheduleRejectsWrongTreeCount(t *testing.T) {
	const p = 4
	if _, err := FromSchedule(schedule.MA(p)[:p-1]); err == nil {
		t.Error("schedule with p-1 trees accepted")
	}
	if _, err := AllreduceFromSchedule(schedule.MA(p)[:p-1]); err == nil {
		t.Error("all-reduce lowering accepted a schedule with p-1 trees")
	}
}

// The MA chain's critical path grows like p; the fanout variant's like
// p/f + f. The gap is what the synthesizer exploits at small messages.
func TestGraphCriticalPath(t *testing.T) {
	const p = 16
	ma, err := FromSchedule(schedule.MA(p))
	if err != nil {
		t.Fatal(err)
	}
	fan, err := FromSchedule(schedule.Fanout(p, 4))
	if err != nil {
		t.Fatal(err)
	}
	if ma.CriticalPath() <= fan.CriticalPath() {
		t.Errorf("MA critical path %d not longer than fanout-4's %d",
			ma.CriticalPath(), fan.CriticalPath())
	}
}

func TestGraphValidateCatchesBrokenDAGs(t *testing.T) {
	cases := map[string]*Graph{
		"read-before-produce": {P: 2, Blocks: 1, Slots: 1, Steps: []Step{
			{R: 0, Kind: OpCopyOut, Block: 0, Src: 0},
		}},
		"double-produce": {P: 2, Blocks: 1, Slots: 1, Steps: []Step{
			{R: 0, Kind: OpCopyIn, Block: 0, Dst: 0},
			{R: 1, Kind: OpCopyIn, Block: 0, Dst: 0},
		}},
		"slot-range": {P: 2, Blocks: 1, Slots: 1, Steps: []Step{
			{R: 0, Kind: OpCopyIn, Block: 0, Dst: 3},
		}},
		"rank-range": {P: 2, Blocks: 1, Slots: 1, Steps: []Step{
			{R: 5, Kind: OpCopyIn, Block: 0, Dst: 0},
		}},
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken graph", name)
		} else if !strings.HasPrefix(err.Error(), "plan: ") {
			t.Errorf("%s: error %q not namespaced", name, err)
		}
	}
}
