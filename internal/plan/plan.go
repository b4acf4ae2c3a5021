// Package plan is the collective-schedule compiler's intermediate
// representation and persistent tuned-plan store. It generalizes the §3.1
// sliced-reduction formalism of internal/schedule in two directions:
//
//   - Graph: a chunk-level copy/reduce DAG that also covers broadcast,
//     all-gather and all-reduce (not just reduce-scatter trees), with a
//     predicted data-access volume per Equation 1's accounting;
//   - Plan/Table/Cache: the outcome of an offline schedule search — per
//     (topology, ranks, collective, message-size bucket) the winning
//     algorithm family and its tuned parameters — serialized to a
//     versioned, checksummed JSON cache that runtime dispatch consults as
//     an O(1), allocation-free table lookup.
//
// The package deliberately depends only on the low layers (topo, schedule,
// memmodel's version constant): internal/coll lowers Graphs onto the
// machine and resolves Params into executable algorithms; internal/tune
// runs the search that fills the cache.
package plan

import (
	"fmt"
	"math/bits"
)

// Coll identifies a collective with a dense index (table dimension).
type Coll int

// The collectives the synthesizer covers.
const (
	Allreduce Coll = iota
	ReduceScatter
	Reduce
	Bcast
	Allgather
	NumColls
)

var collNames = [NumColls]string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather"}

// String returns the collective's canonical name.
func (c Coll) String() string {
	if c < 0 || c >= NumColls {
		return fmt.Sprintf("coll(%d)", int(c))
	}
	return collNames[c]
}

// ParseColl maps a canonical name back to its index.
func ParseColl(name string) (Coll, error) {
	for i, n := range collNames {
		if n == name {
			return Coll(i), nil
		}
	}
	return 0, fmt.Errorf("plan: unknown collective %q", name)
}

// Colls lists every collective in table order.
func Colls() []Coll {
	out := make([]Coll, NumColls)
	for i := range out {
		out[i] = Coll(i)
	}
	return out
}

// Params are the tunable knobs of one synthesized schedule: the seed
// algorithm family plus the searched dimensions (pipeline chunking, copy
// policy, tree fan-out). The zero value of every searched field means
// "family default", so a Params holding only a Family names a hand-written
// seed exactly.
type Params struct {
	// Family is the algorithm family ("socket-ma", "ring", "rg",
	// "fanout", ...). Families are resolved to executable code by
	// internal/coll; "fanout" lowers a schedule.Fanout graph through the
	// generic DAG executor.
	Family string `json:"family"`
	// SliceKB overrides Imax, the pipeline slice bound, in KB (0 = the
	// node default).
	SliceKB int64 `json:"slice_kb,omitempty"`
	// Policy overrides the copy policy ("t-copy", "nt-copy", "memmove",
	// "adaptive"; "" = family default, i.e. adaptive).
	Policy string `json:"policy,omitempty"`
	// RGDegree overrides the RG tree branching degree (0 = default 2).
	RGDegree int `json:"rg_degree,omitempty"`
	// Fanout is the parallel-chain count of a searched fanout schedule
	// (family "fanout" only).
	Fanout int `json:"fanout,omitempty"`
}

// IsDefault reports whether the params carry no searched overrides — i.e.
// they name a hand-written seed configuration.
func (p Params) IsDefault() bool {
	return p.SliceKB == 0 && p.Policy == "" && p.RGDegree == 0 && p.Fanout == 0
}

// String renders the params compactly for logs and tables.
func (p Params) String() string {
	s := p.Family
	if p.SliceKB != 0 {
		s += fmt.Sprintf("/I=%dK", p.SliceKB)
	}
	if p.Policy != "" {
		s += "/" + p.Policy
	}
	if p.RGDegree != 0 {
		s += fmt.Sprintf("/k=%d", p.RGDegree)
	}
	if p.Fanout != 0 {
		s += fmt.Sprintf("/f=%d", p.Fanout)
	}
	return s
}

// Plan is one tuned-cache entry: the winning schedule for a collective at
// one message-size bucket, plus the search evidence (predicted time, the
// best hand-written seed it had to beat, and whether the winner was a
// searched variant).
type Plan struct {
	// Collective names the operation ("allreduce", ...).
	Collective string `json:"collective"`
	// Bucket covers message sizes in (2^(Bucket-1), 2^Bucket] bytes.
	Bucket int `json:"bucket"`
	// SizeBytes is the anchor size the bucket was tuned at (its upper
	// edge for measured buckets).
	SizeBytes int64 `json:"size_bytes"`
	// Params is the winning configuration.
	Params Params `json:"params"`
	// PredictedSeconds is the cost-model makespan of the winner.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// PredictedDAV is the closed-form data-access volume of the winner in
	// bytes, when a formula is known (0 otherwise).
	PredictedDAV int64 `json:"predicted_dav_bytes,omitempty"`
	// BestSeed names the fastest hand-written seed at this point and
	// BestSeedSeconds its cost-model makespan — the bar the gate checks.
	BestSeed        string  `json:"best_seed"`
	BestSeedSeconds float64 `json:"best_seed_seconds"`
	// Source is "seed" when a hand-written default won, "searched" when a
	// tuned variant strictly beat every seed, or "extrapolated" when a
	// quick-budget run filled this bucket from its nearest anchor.
	Source string `json:"source"`
}

// Bucket returns the size bucket of a message of the given bytes: the
// smallest b with bytes <= 2^b. Messages of zero or one byte share bucket 0.
func Bucket(bytes int64) int {
	if bytes <= 1 {
		return 0
	}
	return bits.Len64(uint64(bytes - 1))
}

// BucketSize returns the anchor (upper-edge) size of a bucket in bytes.
func BucketSize(bucket int) int64 { return int64(1) << bucket }

// Table is the runtime form of a loaded cache: a dense per-collective
// array indexed by size bucket. Lookup is O(1) and allocation-free — the
// per-call dispatch cost of a tuned communicator.
type Table struct {
	// byColl[c] spans buckets [minBucket[c], minBucket[c]+len-1].
	byColl    [NumColls][]*Plan
	minBucket [NumColls]int
	entries   int
}

// NewTable indexes a set of plans for dispatch. Entries with unknown
// collectives, buckets no int64 size falls in, or duplicate (collective,
// bucket) keys are rejected.
func NewTable(plans []Plan) (*Table, error) {
	t := &Table{}
	minB := [NumColls]int{}
	maxB := [NumColls]int{}
	seen := [NumColls]bool{}
	for i := range plans {
		c, err := ParseColl(plans[i].Collective)
		if err != nil {
			return nil, err
		}
		b := plans[i].Bucket
		if b < 0 || b > 63 { // Bucket's range over int64 sizes
			return nil, fmt.Errorf("plan: %s bucket %d outside 0..63", plans[i].Collective, b)
		}
		if !seen[c] {
			minB[c], maxB[c], seen[c] = b, b, true
			continue
		}
		if b < minB[c] {
			minB[c] = b
		}
		if b > maxB[c] {
			maxB[c] = b
		}
	}
	for c := range seen {
		if seen[c] {
			t.byColl[c] = make([]*Plan, maxB[c]-minB[c]+1)
			t.minBucket[c] = minB[c]
		}
	}
	for i := range plans {
		c, _ := ParseColl(plans[i].Collective)
		slot := &t.byColl[c][plans[i].Bucket-t.minBucket[c]]
		if *slot != nil {
			return nil, fmt.Errorf("plan: duplicate entry for %s bucket %d", plans[i].Collective, plans[i].Bucket)
		}
		*slot = &plans[i]
		t.entries++
	}
	for c := range t.byColl {
		for b, p := range t.byColl[c] {
			if p == nil {
				return nil, fmt.Errorf("plan: %s bucket %d missing (tuned range must be contiguous)",
					Coll(c), b+t.minBucket[c])
			}
		}
	}
	return t, nil
}

// Entries returns how many plans the table holds.
func (t *Table) Entries() int { return t.entries }

// Lookup returns the plan governing a message of the given bytes,
// clamping to the tuned range's edge buckets (a 1 KB message uses the
// smallest tuned bucket's plan; a 1 GB message the largest). Returns nil
// when the collective has no tuned plans at all. Allocation-free.
func (t *Table) Lookup(c Coll, bytes int64) *Plan {
	plans := t.byColl[c]
	if len(plans) == 0 {
		return nil
	}
	b := Bucket(bytes) - t.minBucket[c]
	if b < 0 {
		b = 0
	}
	if b >= len(plans) {
		b = len(plans) - 1
	}
	return plans[b]
}

// Buckets returns the tuned bucket range [lo, hi] for a collective
// (ok=false when untuned).
func (t *Table) Buckets(c Coll) (lo, hi int, ok bool) {
	if len(t.byColl[c]) == 0 {
		return 0, 0, false
	}
	return t.minBucket[c], t.minBucket[c] + len(t.byColl[c]) - 1, true
}

// smallMessageFamilies is the parallel-reduction class the paper's §5.1
// switch selects below the threshold: algorithms that split blocks across
// all cores instead of avoiding movement (two-level itself plus the DPML
// and RG parallel reductions, which share its structure).
var smallMessageFamilies = map[string]bool{"two-level": true, "dpml": true, "rg": true}

// SwitchBytes derives the small/large algorithm switch point of a
// collective from its tuned plans: the largest message size whose winning
// family is still in the parallel-reduction small-message class (the
// movement-avoiding families take over above it). Returns ok=false when
// the collective is untuned or the small-message class never wins.
func (t *Table) SwitchBytes(c Coll) (int64, bool) {
	plans := t.byColl[c]
	last := int64(0)
	for _, p := range plans {
		if smallMessageFamilies[p.Params.Family] {
			last = p.SizeBytes
		}
	}
	return last, last > 0
}
