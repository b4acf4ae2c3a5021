package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refEntry is a queued leaf in the sorted-slice reference of the run queue.
type refEntry struct {
	clock float64
	seq   uint64
	leaf  int
}

func refLess(a, b refEntry) int {
	switch {
	case a.clock < b.clock:
		return -1
	case a.clock > b.clock:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// refQueue is the reference: the queued keys as a slice kept sorted by
// (clock, seq), plus each leaf's entry.
type refQueue struct {
	sorted []refEntry
	at     map[int]refEntry
}

func (r *refQueue) set(e refEntry) {
	r.remove(e.leaf)
	i, _ := slices.BinarySearchFunc(r.sorted, e, refLess)
	r.sorted = slices.Insert(r.sorted, i, e)
	r.at[e.leaf] = e
}

func (r *refQueue) remove(leaf int) {
	old, ok := r.at[leaf]
	if !ok {
		return
	}
	i, _ := slices.BinarySearchFunc(r.sorted, old, refLess)
	r.sorted = slices.Delete(r.sorted, i, i+1)
	delete(r.at, leaf)
}

// TestRunQueueMatchesSortedReference drives the tournament tree with random
// pushes, removals, re-keys and runCont-style in-place re-parks over 1-1100
// leaves, with tied and zero clocks, and after every operation requires its
// front (leaf and clock) and every touched leaf's membership to match a
// sorted-slice reference.
func TestRunQueueMatchesSortedReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 1100}
	rng := rand.New(rand.NewSource(1))
	for range 6 {
		sizes = append(sizes, 1+rng.Intn(1100))
	}
	for _, n := range sizes {
		var q runQueue
		q.reset(n)
		ref := refQueue{at: map[int]refEntry{}}
		var seqGen uint64
		// clock draws zero, a few tied values or a distinct one, never
		// below from so that a re-parked leaf's clock only grows.
		clock := func(from float64) float64 {
			switch x := rng.Intn(8); {
			case x == 0:
				return from
			case x < 4:
				return from + []float64{0, 0.5, 1}[rng.Intn(3)]
			default:
				return from + rng.Float64()
			}
		}
		check := func(op string, leaf int) {
			t.Helper()
			w, c := q.top()
			if len(ref.sorted) == 0 {
				if q.queued(w) || !math.IsInf(c, 1) {
					t.Fatalf("n=%d after %s: front leaf %d clock %v, want an empty queue", n, op, w, c)
				}
			} else if want := ref.sorted[0]; w != want.leaf || c != want.clock {
				t.Fatalf("n=%d after %s: front leaf %d clock %v, want leaf %d clock %v", n, op, w, c, want.leaf, want.clock)
			}
			if _, ok := ref.at[leaf]; q.queued(leaf) != ok {
				t.Fatalf("n=%d after %s of leaf %d: queued=%v, want %v", n, op, leaf, q.queued(leaf), ok)
			}
		}
		for range 20*n + 200 {
			switch op := rng.Intn(10); {
			case op < 4: // push an idle leaf, or re-key a queued one
				leaf := rng.Intn(n)
				seqGen++
				c := clock(0)
				if e, ok := ref.at[leaf]; ok {
					c = clock(e.clock)
				}
				q.set(leaf, c, seqGen)
				ref.set(refEntry{c, seqGen, leaf})
				check("set", leaf)
			case op < 6: // remove a queued leaf
				if len(ref.sorted) == 0 {
					continue
				}
				leaf := ref.sorted[rng.Intn(len(ref.sorted))].leaf
				q.remove(leaf)
				ref.remove(leaf)
				check("remove", leaf)
			default: // run the front in place, as runCont does
				if len(ref.sorted) == 0 {
					continue
				}
				front := ref.sorted[0]
				c := front.clock
				for steps := 1 + rng.Intn(4); ; steps-- {
					c = clock(c)
					q.set(front.leaf, c, seqGen+1)
					ref.set(refEntry{c, seqGen + 1, front.leaf})
					check("in-place re-key", front.leaf)
					if _, h := q.top(); c > h {
						seqGen++ // re-parked: the seq is committed
						break
					}
					if steps == 1 { // ran to completion: off the queue
						q.remove(front.leaf)
						ref.remove(front.leaf)
						check("dequeue", front.leaf)
						break
					}
				}
			}
		}
	}
}
