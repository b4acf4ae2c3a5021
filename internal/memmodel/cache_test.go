package memmodel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheLookupEmpty(t *testing.T) {
	c := newCacheState(0, 1024)
	if got := c.lookup(1, 0, 100); got != 0 {
		t.Fatalf("lookup on empty cache = %d, want 0", got)
	}
}

func TestCacheInsertAndLookup(t *testing.T) {
	c := newCacheState(0, 1024)
	c.insert(1, 0, 100, false)
	if got := c.lookup(1, 0, 100); got != 100 {
		t.Fatalf("lookup = %d, want 100", got)
	}
	if got := c.lookup(1, 50, 150); got != 50 {
		t.Fatalf("partial lookup = %d, want 50", got)
	}
	if got := c.lookup(2, 0, 100); got != 0 {
		t.Fatalf("other buffer lookup = %d, want 0", got)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheOverlappingInsertNoDoubleCount(t *testing.T) {
	c := newCacheState(0, 10240)
	c.insert(1, 0, 100, false)
	c.insert(1, 50, 150, false)
	if got := c.lookup(1, 0, 150); got != 150 {
		t.Fatalf("lookup = %d, want 150", got)
	}
	if c.occupancy() != 150 {
		t.Fatalf("occupancy = %d, want 150", c.occupancy())
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheInsertSplitsCoveringRegion(t *testing.T) {
	c := newCacheState(0, 10240)
	c.insert(1, 0, 300, true)
	c.insert(1, 100, 200, false) // punches a clean hole in a dirty region
	if cached, dirty := c.lookupBoth(1, 0, 300); cached != 300 || dirty != 200 {
		t.Fatalf("cached, dirty bytes = %d, %d, want 300, 200", cached, dirty)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheLRUEvictionAndWriteback(t *testing.T) {
	c := newCacheState(0, 200)
	if wb := c.insert(1, 0, 100, true); wb != 0 {
		t.Fatalf("writeback = %d, want 0", wb)
	}
	if wb := c.insert(2, 0, 100, false); wb != 0 {
		t.Fatalf("writeback = %d, want 0", wb)
	}
	// Inserting 100 more evicts buffer 1 (LRU, dirty) -> 100 bytes back.
	if wb := c.insert(3, 0, 100, false); wb != 100 {
		t.Fatalf("writeback = %d, want 100", wb)
	}
	if got := c.lookup(1, 0, 100); got != 0 {
		t.Fatalf("evicted buffer still cached: %d bytes", got)
	}
	if got := c.lookup(2, 0, 100); got != 100 {
		t.Fatalf("buffer 2 should survive, cached %d", got)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCleanEvictionNoWriteback(t *testing.T) {
	c := newCacheState(0, 100)
	c.insert(1, 0, 100, false)
	if wb := c.insert(2, 0, 100, false); wb != 0 {
		t.Fatalf("clean eviction produced writeback %d", wb)
	}
}

func TestCacheStreamingRegionLargerThanCapacity(t *testing.T) {
	c := newCacheState(0, 100)
	wb := c.insert(1, 0, 1000, true)
	if c.occupancy() > 100 {
		t.Fatalf("occupancy %d exceeds capacity", c.occupancy())
	}
	// Only the tail should remain.
	if got := c.lookup(1, 900, 1000); got != 100 {
		t.Fatalf("tail cached = %d, want 100", got)
	}
	if got := c.lookup(1, 0, 900); got != 0 {
		t.Fatalf("head cached = %d, want 0", got)
	}
	_ = wb
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCacheState(0, 1024)
	c.insert(1, 0, 200, true)
	c.invalidate(1, 50, 150)
	if got := c.lookup(1, 0, 200); got != 100 {
		t.Fatalf("after invalidate, cached = %d, want 100", got)
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheInvalidateBuffer(t *testing.T) {
	c := newCacheState(0, 1024)
	c.insert(1, 0, 200, true)
	c.insert(2, 0, 200, true)
	c.invalidateBuffer(1)
	if got := c.lookup(1, 0, 200); got != 0 {
		t.Fatalf("buffer 1 still cached: %d", got)
	}
	if got := c.lookup(2, 0, 200); got != 200 {
		t.Fatalf("buffer 2 lost: %d", got)
	}
	if c.occupancy() != 200 {
		t.Fatalf("occupancy = %d, want 200", c.occupancy())
	}
}

func TestCacheRecencyOrder(t *testing.T) {
	c := newCacheState(0, 300)
	c.insert(1, 0, 100, false)
	c.insert(2, 0, 100, false)
	c.insert(3, 0, 100, false)
	// Re-insert buffer 1 (most recent now), then overflow: buffer 2 is LRU.
	c.insert(1, 0, 100, false)
	c.insert(4, 0, 100, false)
	if got := c.lookup(2, 0, 100); got != 0 {
		t.Fatalf("LRU buffer 2 should be evicted, cached %d", got)
	}
	if got := c.lookup(1, 0, 100); got != 100 {
		t.Fatalf("recently used buffer 1 evicted")
	}
}

func TestCacheRandomOpsInvariants(t *testing.T) {
	// Property: any interleaving of inserts, invalidations and lookups —
	// scattered, or streamed in address-ordered chunks over buffers four
	// times the capacity, as collectives do — keeps the tracker internally
	// consistent and indistinguishable from the naive reference.
	const capacity, nbufs = 4096, 5
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newRefCheck(capacity, nbufs, 4*capacity)
		var last stream
		for n := 0; n < 1500; {
			h.c.curSlot = rng.Intn(3)
			buf := uint64(rng.Intn(nbufs) + 1)
			var err error
			switch rng.Intn(5) {
			case 0: // one scattered operation, now and then wider than the cache
				size := int64(1024)
				if rng.Intn(8) == 0 {
					size = 2 * capacity
				}
				lo := rng.Int63n(h.ext)
				hi := min64(lo+rng.Int63n(size)+1, h.ext)
				switch rng.Intn(7) {
				case 0, 1, 2:
					err = h.insert(buf, lo, hi, rng.Intn(2) == 0)
				case 3, 4:
					err = h.invalidate(buf, lo, hi)
				case 5:
					err = h.lookup(buf, lo, hi)
				case 6:
					h.c.invalidateBuffer(buf)
					h.ref.cut(buf, 0, h.ext)
					err = h.compare(buf, 0, h.ext)
				}
				n++
			case 1: // re-touch pass: repeat the previous stream exactly
				if last.chunk == 0 {
					continue
				}
				err = h.stream(last)
				n += last.ops()
			default: // a new stream over chunk-aligned addresses
				chunk := int64(64) << rng.Intn(4)
				lo := rng.Int63n(h.ext/chunk) * chunk
				hi := lo + (rng.Int63n((h.ext-lo)/chunk)+1)*chunk
				last = stream{kind: rng.Intn(3), buf: buf, lo: lo, hi: hi, chunk: chunk, trim: rng.Int63n(chunk / 4)}
				err = h.stream(last)
				n += last.ops()
			}
			if err != nil {
				t.Logf("seed %d op %d: %v", seed, n, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refRegion is one region of refTracker.
type refRegion struct {
	buf    uint64
	lo, hi int64
	dirty  bool
}

// refTracker is the naive model cacheState must match operation for
// operation: one slice of regions in recency order (LRU first), scanned in
// full by every operation.
type refTracker struct {
	capacity int64
	lru      []refRegion
}

// cut removes [lo, hi) of buf from every region it overlaps. A region split
// in two keeps both pieces at its recency position.
func (t *refTracker) cut(buf uint64, lo, hi int64) {
	var kept []refRegion
	for _, r := range t.lru {
		if r.buf != buf || r.hi <= lo || r.lo >= hi {
			kept = append(kept, r)
			continue
		}
		if r.lo < lo {
			kept = append(kept, refRegion{buf, r.lo, lo, r.dirty})
		}
		if r.hi > hi {
			kept = append(kept, refRegion{buf, hi, r.hi, r.dirty})
		}
	}
	t.lru = kept
}

// insert makes [lo, hi) of buf the most recently used region — only its
// tail when it exceeds the capacity — then evicts from the LRU end while
// the cache is over capacity, unless only the new region is left. It
// returns the dirty bytes evicted.
func (t *refTracker) insert(buf uint64, lo, hi int64, dirty bool) (writeback int64) {
	if lo >= hi {
		return 0
	}
	if hi-lo > t.capacity {
		lo = hi - t.capacity
	}
	t.cut(buf, lo, hi)
	t.lru = append(t.lru, refRegion{buf, lo, hi, dirty})
	for t.used() > t.capacity && len(t.lru) > 1 {
		if v := t.lru[0]; v.dirty {
			writeback += v.hi - v.lo
		}
		t.lru = t.lru[1:]
	}
	return writeback
}

func (t *refTracker) used() (n int64) {
	for _, r := range t.lru {
		n += r.hi - r.lo
	}
	return n
}

// lookup returns how many bytes of [lo, hi) of buf are cached, and dirty.
func (t *refTracker) lookup(buf uint64, lo, hi int64) (cached, dirty int64) {
	for _, r := range t.lru {
		if a, b := max64(r.lo, lo), min64(r.hi, hi); r.buf == buf && a < b {
			cached += b - a
			if r.dirty {
				dirty += b - a
			}
		}
	}
	return cached, dirty
}

// refCheck drives a cacheState and a refTracker with the same operations
// and compares them after each one. Buffers are 1..nbufs, each [0, ext).
type refCheck struct {
	c     *cacheState
	ref   refTracker
	nbufs int
	ext   int64
}

func newRefCheck(capacity int64, nbufs int, ext int64) *refCheck {
	return &refCheck{c: newCacheState(0, capacity), ref: refTracker{capacity: capacity}, nbufs: nbufs, ext: ext}
}

func (h *refCheck) insert(buf uint64, lo, hi int64, dirty bool) error {
	if got, want := h.c.insert(buf, lo, hi, dirty), h.ref.insert(buf, lo, hi, dirty); got != want {
		return fmt.Errorf("insert(%d, [%d,%d), dirty %v) wrote back %d, reference %d", buf, lo, hi, dirty, got, want)
	}
	return h.compare(buf, lo, hi)
}

func (h *refCheck) invalidate(buf uint64, lo, hi int64) error {
	h.c.invalidate(buf, lo, hi)
	h.ref.cut(buf, lo, hi)
	return h.compare(buf, lo, hi)
}

// lookup compares both lookups of [lo, hi) of buf with the reference.
func (h *refCheck) lookup(buf uint64, lo, hi int64) error {
	wantCached, wantDirty := h.ref.lookup(buf, lo, hi)
	if cached, dirty := h.c.lookupBoth(buf, lo, hi); cached != wantCached || dirty != wantDirty {
		return fmt.Errorf("lookupBoth(%d, [%d,%d)) = %d, %d, reference %d, %d", buf, lo, hi, cached, dirty, wantCached, wantDirty)
	}
	if cached := h.c.lookup(buf, lo, hi); cached != wantCached {
		return fmt.Errorf("lookup(%d, [%d,%d)) = %d, reference %d", buf, lo, hi, cached, wantCached)
	}
	return nil
}

// compare checks the tracker's structure, its occupancy, lookups over the
// last operation's range and over every whole buffer, and its recency order
// against the reference.
func (h *refCheck) compare(buf uint64, lo, hi int64) error {
	if err := h.c.checkInvariants(); err != nil {
		return err
	}
	if got, want := h.c.occupancy(), h.ref.used(); got != want {
		return fmt.Errorf("occupancy %d, reference %d", got, want)
	}
	if err := h.lookup(buf, lo, hi); err != nil {
		return err
	}
	for b := 1; b <= h.nbufs; b++ {
		if err := h.lookup(uint64(b), 0, h.ext); err != nil {
			return err
		}
	}
	return h.sameRecency()
}

// sameRecency compares the tracker's LRU list with the reference's, region
// by region.
func (h *refCheck) sameRecency() error {
	i := 0
	for r := h.c.lruFront; r != nil; r = r.next {
		got := refRegion{r.buf, r.lo, r.hi, r.dirty}
		if i == len(h.ref.lru) || got != h.ref.lru[i] {
			return fmt.Errorf("LRU position %d holds %+v, reference %v", i, got, h.ref.lru)
		}
		i++
	}
	if i != len(h.ref.lru) {
		return fmt.Errorf("LRU list has %d regions, reference %d", i, len(h.ref.lru))
	}
	return nil
}

// stream is one pass of address-ordered chunks over [lo, hi) of buf.
type stream struct {
	kind   int // 0: temporal stores, 1: loads, 2: NT stores
	buf    uint64
	lo, hi int64
	chunk  int64
	trim   int64 // NT stores invalidate each chunk less trim bytes at both ends
}

func (s stream) ops() int { return int((s.hi - s.lo) / s.chunk) }

// stream runs s chunk by chunk on both trackers the way Model charges it: a
// store inserts dirty, a load re-inserts with the dirty bit of what it
// found, an NT store invalidates.
func (h *refCheck) stream(s stream) error {
	for lo := s.lo; lo < s.hi; lo += s.chunk {
		hi := lo + s.chunk
		var err error
		switch s.kind {
		case 0:
			err = h.insert(s.buf, lo, hi, true)
		case 1:
			_, dirty := h.ref.lookup(s.buf, lo, hi)
			err = h.insert(s.buf, lo, hi, dirty > 0)
		case 2:
			err = h.invalidate(s.buf, lo+s.trim, hi-s.trim)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func TestCacheLookupNeverExceedsRange(t *testing.T) {
	f := func(lo8, len8 uint8) bool {
		c := newCacheState(0, 1<<20)
		c.insert(1, 0, 1000, false)
		lo := int64(lo8)
		hi := lo + int64(len8) + 1
		got := c.lookup(1, lo, hi)
		return got >= 0 && got <= hi-lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
