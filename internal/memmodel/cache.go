package memmodel

import "fmt"

// cacheState tracks, for one socket, which byte ranges of which buffers are
// currently cache-resident. Tracking is region-granular rather than
// line-granular: collectives access memory in contiguous slice-sized ranges,
// so a handful of intervals per buffer suffice and the tracker stays O(1)
// per operation in practice. internal/cachesim provides a line-granular
// simulator used to validate this approximation.
//
// Regions are kept on an intrusive recency list (LRU at the front; no
// per-node allocations). Inserting a region that overlaps existing ones
// trims the old regions; inserting beyond capacity evicts from the LRU end,
// reporting how many dirty bytes were written back so the caller can charge
// DRAM traffic. Evicted and trimmed-away region objects are recycled
// through a free list, and per-buffer indexes are sorted by lo and located
// through a sequential-access cursor (see seek) with binary search as the
// fallback.
//
// Regions are plain: each entry on the recency list and in a buffer's
// index is the range of one insert, or a piece of it that later inserts
// and invalidations left, so eviction and partial removal act on entries
// directly. The cursor banks (see curs) keep streaming access O(1) per
// operation, together with the head drops of remove and evict and
// insert's re-touch fast path.
type cacheState struct {
	socket   int
	capacity int64
	used     int64

	// Intrusive LRU list: lruFront is the next victim, lruBack the most
	// recently used region. nregions counts list members.
	lruFront *region
	lruBack  *region
	nregions int

	// free chains recycled region objects through their next pointers.
	free *region

	// byBuf[id] is the lo-sorted region index of buffer id. Buffer IDs are
	// dense per Model, so a flat slice replaces a map on the hot path.
	byBuf [][]*region

	// curs[slot][id] is buffer id's sequential-access cursor for cursor
	// bank `slot`: the last index a lookup, insert or remove through that
	// bank touched in byBuf[id]. Collectives stream address-adjacent
	// chunks, so a stream's next position is almost always cur or cur+1;
	// banks exist because several ranks interleave their streams through
	// distinct slices of one shared buffer, which would thrash a single
	// shared cursor. The Model selects the acting rank's bank via curSlot
	// (its per-socket core index); code that never sets it uses bank 0.
	// seek validates the cursor in O(1) and falls back to binary search
	// only on a miss. Cursors are advisory — a stale value is detected,
	// never trusted — so no operation needs to keep them precise.
	curs    [][]int32
	curSlot int
}

// region is a cached byte range [lo, hi) of one buffer.
type region struct {
	buf        uint64
	lo, hi     int64
	dirty      bool
	prev, next *region // intrusive LRU links (next also chains the free list)
}

func (r *region) len() int64 { return r.hi - r.lo }

func newCacheState(socket int, capacity int64) *cacheState {
	if capacity <= 0 {
		panic("memmodel: cache capacity must be positive")
	}
	return &cacheState{socket: socket, capacity: capacity}
}

// regs returns the sorted region index of a buffer (nil when empty).
func (c *cacheState) regs(buf uint64) []*region {
	if buf < uint64(len(c.byBuf)) {
		return c.byBuf[buf]
	}
	return nil
}

// setRegs stores the region index of a buffer, growing the table on first
// contact with a new buffer ID.
func (c *cacheState) setRegs(buf uint64, rs []*region) {
	if buf >= uint64(len(c.byBuf)) {
		grown := make([][]*region, buf+1)
		copy(grown, c.byBuf)
		c.byBuf = grown
	}
	c.byBuf[buf] = rs
}

// cur returns the active bank's cursor for a buffer (0 — a valid advisory
// guess — when the bank or entry does not exist yet).
func (c *cacheState) cur(buf uint64) int {
	if c.curSlot < len(c.curs) {
		if cs := c.curs[c.curSlot]; buf < uint64(len(cs)) {
			return int(cs[buf])
		}
	}
	return 0
}

// setCur records the cursor position of a buffer in the active bank,
// growing the bank on demand (no-op for buffers byBuf has never seen —
// there is nothing to seek in an empty index anyway).
func (c *cacheState) setCur(buf uint64, i int) {
	if buf >= uint64(len(c.byBuf)) {
		return
	}
	for len(c.curs) <= c.curSlot {
		c.curs = append(c.curs, nil)
	}
	cs := c.curs[c.curSlot]
	if buf >= uint64(len(cs)) {
		grown := make([]int32, len(c.byBuf))
		copy(grown, cs)
		c.curs[c.curSlot] = grown
		cs = grown
	}
	cs[buf] = int32(i)
}

// alloc returns a region initialized to the given range, recycling a freed
// object when one is available.
func (c *cacheState) alloc(buf uint64, lo, hi int64, dirty bool) *region {
	r := c.free
	if r != nil {
		c.free = r.next
		*r = region{buf: buf, lo: lo, hi: hi, dirty: dirty}
	} else {
		r = &region{buf: buf, lo: lo, hi: hi, dirty: dirty}
	}
	return r
}

// release puts a region (already off the LRU list and out of byBuf) onto
// the free list.
func (c *cacheState) release(r *region) {
	*r = region{next: c.free}
	c.free = r
}

// lruPushBack appends r as the most recently used region.
func (c *cacheState) lruPushBack(r *region) {
	r.prev, r.next = c.lruBack, nil
	if c.lruBack != nil {
		c.lruBack.next = r
	} else {
		c.lruFront = r
	}
	c.lruBack = r
	c.nregions++
}

// lruInsertAfter links r immediately after `after` in recency order.
func (c *cacheState) lruInsertAfter(r, after *region) {
	r.prev, r.next = after, after.next
	if after.next != nil {
		after.next.prev = r
	} else {
		c.lruBack = r
	}
	after.next = r
	c.nregions++
}

// lruRemove unlinks r from the recency list.
func (c *cacheState) lruRemove(r *region) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		c.lruFront = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		c.lruBack = r.prev
	}
	r.prev, r.next = nil, nil
	c.nregions--
}

// overlapStart returns the index of the first region of rs that may overlap
// [lo, ...): regions are disjoint and sorted by lo, so their hi values are
// sorted too and binary search applies. Open-coded (rather than
// sort.Search) to avoid a closure call per probe on the hot path.
func overlapStart(rs []*region, lo int64) int {
	i, j := 0, len(rs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if rs[h].hi > lo {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// searchLo returns the index of the first region of rs with lo >= key.
func searchLo(rs []*region, key int64) int {
	i, j := 0, len(rs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if rs[h].lo >= key {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// seek returns overlapStart(rs, lo), trusting the buffer's cursor when it
// (or its successor — the sequential-streaming step) still identifies the
// answer. The validation re-derives the overlapStart condition exactly, so
// a stale cursor can only cost the binary-search fallback, never a wrong
// index.
// seekWindow bounds how far seek walks linearly from the cursor before
// giving up and binary-searching: evictions and removals shift a buffer's
// indexes by a few slots between one stream's operations, so the answer is
// usually within a short distance of the stale cursor.
const seekWindow = 8

func (c *cacheState) seek(buf uint64, rs []*region, lo int64) int {
	i := c.cur(buf)
	if i >= len(rs) {
		i = len(rs) - 1
	}
	if i >= 0 {
		if rs[i].hi > lo {
			// First candidate: walk left to the earliest region with hi > lo.
			for k := 0; k < seekWindow; k++ {
				if i == 0 || rs[i-1].hi <= lo {
					return i
				}
				i--
			}
		} else {
			// Walk right to the first region with hi > lo.
			for k := 0; k < seekWindow; k++ {
				i++
				if i == len(rs) || rs[i].hi > lo {
					return i
				}
			}
		}
	}
	return overlapStart(rs, lo)
}

// lookup returns how many bytes of [lo, hi) of buffer b are cached.
func (c *cacheState) lookup(buf uint64, lo, hi int64) int64 {
	rs := c.regs(buf)
	i := c.seek(buf, rs, lo)
	var cached int64
	for j := i; j < len(rs) && rs[j].lo < hi; j++ {
		a, b := max64(rs[j].lo, lo), min64(rs[j].hi, hi)
		cached += b - a
	}
	c.setCur(buf, i)
	return cached
}

// lookupBoth returns how many bytes of [lo, hi) of buffer b are cached, and
// how many of those are dirty, in a single pass — the per-chunk query of
// Model.Load.
func (c *cacheState) lookupBoth(buf uint64, lo, hi int64) (cached, dirty int64) {
	rs := c.regs(buf)
	i := c.seek(buf, rs, lo)
	for j := i; j < len(rs) && rs[j].lo < hi; j++ {
		a, b := max64(rs[j].lo, lo), min64(rs[j].hi, hi)
		cached += b - a
		if rs[j].dirty {
			dirty += b - a
		}
	}
	c.setCur(buf, i)
	return cached, dirty
}

// insert makes [lo, hi) of buffer b cache-resident with the given dirty
// state, evicting LRU regions as needed. It returns the number of dirty
// bytes written back by evictions (including dirty bytes of overlapped
// older regions whose contents are superseded: those are NOT counted, the
// new store subsumes them).
func (c *cacheState) insert(buf uint64, lo, hi int64, dirty bool) (writeback int64) {
	if lo >= hi {
		return 0
	}
	// A region larger than the whole cache leaves only its tail resident
	// (streaming through the cache evicts its own head).
	if hi-lo > c.capacity {
		lo = hi - c.capacity
	}
	// Fast path: the range is exactly one tracked region with the same
	// dirty bit. Removing it and re-inserting an identical region at the MRU
	// end frees and re-takes the same bytes, so nothing is evicted; moving
	// the region there has the same effect without the slice splice.
	rs := c.regs(buf)
	if i := c.seek(buf, rs, lo); i < len(rs) {
		if r := rs[i]; r.lo == lo && r.hi == hi && r.dirty == dirty {
			if c.lruBack != r {
				c.lruRemove(r)
				c.lruPushBack(r)
			}
			c.setCur(buf, i)
			return 0
		}
	}
	ri := c.remove(buf, lo, hi)
	r := c.alloc(buf, lo, hi, dirty)
	c.lruPushBack(r)
	rs = c.regs(buf)
	rs = append(rs, nil)
	copy(rs[ri+1:], rs[ri:])
	rs[ri] = r
	c.setRegs(buf, rs)
	c.used += r.len()
	for c.used > c.capacity {
		victim := c.lruFront
		if victim == r && c.nregions == 1 {
			break // cannot evict the region we just inserted entirely
		}
		if victim.buf == buf && victim.lo < r.lo {
			ri-- // the victim sat in front of r in r's buffer index
		}
		if victim.dirty {
			writeback += victim.len()
		}
		c.evict(victim)
	}
	c.setCur(buf, ri)
	return writeback
}

// invalidate drops [lo, hi) of buffer b from the cache without write-back
// (a non-temporal store supersedes any cached copy).
func (c *cacheState) invalidate(buf uint64, lo, hi int64) {
	c.remove(buf, lo, hi)
}

// invalidateBuffer drops every cached region of the buffer.
func (c *cacheState) invalidateBuffer(buf uint64) {
	for _, r := range c.regs(buf) {
		c.lruRemove(r)
		c.used -= r.len()
		c.release(r)
	}
	c.setRegs(buf, nil)
}

// remove deletes [lo, hi) from the tracked regions of buffer b, splitting
// regions that partially overlap. Split fragments keep the original
// recency position and dirty bit. It returns the index at which a region
// starting at lo now belongs (the insertion point insert uses).
func (c *cacheState) remove(buf uint64, lo, hi int64) int {
	rs := c.regs(buf)
	start := c.seek(buf, rs, lo)
	c.setCur(buf, start)
	if start == len(rs) || rs[start].lo >= hi {
		return start
	}
	if r := rs[start]; r.lo < lo && r.hi > hi {
		// One region covers the hole entirely: split it in two.
		c.used -= hi - lo
		tail := c.alloc(buf, hi, r.hi, r.dirty)
		c.lruInsertAfter(tail, r)
		r.hi = lo
		rs = append(rs, nil)
		copy(rs[start+2:], rs[start+1:])
		rs[start+1] = tail
		c.setRegs(buf, rs)
		return start + 1
	}
	i := start
	if r := rs[i]; r.lo < lo { // overlaps from the left: trim its tail
		c.used -= r.hi - lo
		r.hi = lo
		i++
	}
	j := i
	for j < len(rs) && rs[j].hi <= hi { // fully covered: drop
		c.lruRemove(rs[j])
		c.used -= rs[j].len()
		c.release(rs[j])
		j++
	}
	if j < len(rs) && rs[j].lo < hi { // overlaps from the right: trim its head
		c.used -= hi - rs[j].lo
		rs[j].lo = hi
	}
	if i != j {
		if i == 0 {
			// Head drop: advance the slice start instead of memmoving the
			// tail down — streaming eviction/removal always trims here.
			rs = rs[j:]
		} else {
			rs = append(rs[:i], rs[j:]...)
		}
		c.setRegs(buf, rs)
	}
	return i
}

// evict removes a whole region from the cache (LRU victim) and recycles it.
func (c *cacheState) evict(r *region) {
	c.lruRemove(r)
	c.used -= r.len()
	rs := c.regs(r.buf)
	if rs[0] == r {
		// Head drop (see remove): no memmove for in-address-order victims.
		c.setRegs(r.buf, rs[1:])
	} else {
		i := searchLo(rs, r.lo)
		c.setRegs(r.buf, append(rs[:i], rs[i+1:]...))
	}
	c.release(r)
}

// occupancy returns the number of cached bytes (for tests/diagnostics).
func (c *cacheState) occupancy() int64 { return c.used }

// checkInvariants verifies internal consistency (test helper).
func (c *cacheState) checkInvariants() error {
	var total int64
	count := 0
	for buf, regions := range c.byBuf {
		var prev int64 = -1
		for _, r := range regions {
			if r.buf != uint64(buf) {
				return fmt.Errorf("region %+v indexed under buf %d", r, buf)
			}
			if r.lo >= r.hi {
				return fmt.Errorf("empty region %+v in buf %d", r, buf)
			}
			if r.lo < prev {
				return fmt.Errorf("regions of buf %d out of order or overlapping", buf)
			}
			prev = r.hi
			total += r.len()
			count++
		}
	}
	if total != c.used {
		return fmt.Errorf("used = %d but regions sum to %d", c.used, total)
	}
	lruCount := 0
	for r := c.lruFront; r != nil; r = r.next {
		lruCount++
		if lruCount > count {
			return fmt.Errorf("lru list longer than region count %d (cycle?)", count)
		}
	}
	if count != lruCount || count != c.nregions {
		return fmt.Errorf("region count %d != lru len %d (nregions %d)", count, lruCount, c.nregions)
	}
	if c.used > c.capacity {
		return fmt.Errorf("used %d exceeds capacity %d", c.used, c.capacity)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
