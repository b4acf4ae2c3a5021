package memmodel

import (
	"fmt"
	"math"
)

// cacheState tracks, for one socket, which byte ranges of which buffers are
// currently cache-resident. Tracking is region-granular rather than
// line-granular: collectives access memory in contiguous slice-sized ranges,
// so a handful of intervals per buffer suffice and the tracker stays O(1)
// per operation in practice. internal/cachesim provides a line-granular
// simulator used to validate this approximation.
//
// Regions live by value in one arena and are named by their int32 index in
// it (their id); a region holds no Go pointer. They are kept on an
// intrusive recency list (LRU at the front) linked by ids. Inserting a
// region that overlaps existing ones trims the old regions; inserting
// beyond capacity evicts from the LRU end, reporting how many dirty bytes
// were written back so the caller can charge DRAM traffic. Evicted and
// trimmed-away ids are recycled through a free list, and per-buffer
// indexes of ids are sorted by lo and located through a sequential-access
// cursor (see seek) with binary search as the fallback.
//
// Regions are plain: each entry on the recency list and in a buffer's
// index is the range of one insert, or a piece of it that later inserts
// and invalidations left, so eviction and partial removal act on entries
// directly. The cursor banks (see curs) keep streaming access O(1) per
// operation, together with the head drops of remove and evict and
// access's re-touch fast path.
type cacheState struct {
	socket   int
	capacity int64
	used     int64

	// arena[id] is region id. arena[0] is the sentinel of the circular
	// recency list: its next is the LRU region (the next victim), its prev
	// the most recently used one. nregions counts list members.
	arena    []region
	nregions int

	// free chains recycled ids through their next links (0 ends it).
	free int32

	// byBuf[id] is the lo-sorted region index of buffer id. Buffer IDs are
	// dense per Model, so a flat slice replaces a map on the hot path.
	byBuf []index

	// curs[slot][id] is buffer id's sequential-access cursor for cursor
	// bank `slot`: the last index position a lookup, access or removal
	// through that bank touched in byBuf[id]. Collectives stream
	// address-adjacent chunks, so a stream's next position is almost always
	// cur or cur+1; banks exist because several ranks interleave their
	// streams through distinct slices of one shared buffer, which would
	// thrash a single shared cursor. The Model selects the acting rank's
	// bank via curSlot (its per-socket core index); code that never sets it
	// uses bank 0. seek validates the cursor in O(1) and falls back to
	// binary search only on a miss. Cursors are advisory — a stale value is
	// detected, never trusted — so no operation needs to keep them precise.
	curs    [][]int32
	curSlot int

	counts TrackerCounts
}

// region is a cached byte range [lo, hi) of one buffer: 32 bytes, no
// pointers.
type region struct {
	lo, hi     int64
	buf        uint32
	prev, next int32 // recency links (next also chains the free list)
	dirty      bool
}

// index is a buffer's lo-sorted region index: the ids of its regions are
// ids[start:]. Positions are absolute indexes into ids, so a head drop
// advances start and moves nothing else, and the dropped slots' capacity
// is kept for later inserts.
type index struct {
	ids   []int32
	start int
}

// insert puts id at position i of x and returns the position it landed
// at. A full index compacts in place when at least half of it is dead and
// otherwise doubles; either way its live ids move to the front, which
// shifts every position down by the old start.
func (x *index) insert(i int, id int32) int {
	if len(x.ids) == cap(x.ids) {
		ids := x.ids[:0]
		if x.start == 0 || 2*x.start < len(x.ids) {
			ids = make([]int32, 0, max(4, 2*cap(x.ids)))
		}
		x.ids = append(ids, x.ids[x.start:]...)
		i -= x.start
		x.start = 0
	}
	x.ids = x.ids[:len(x.ids)+1]
	copy(x.ids[i+1:], x.ids[i:])
	x.ids[i] = id
	return i
}

// cut deletes positions [i, j) of x and returns the position the id at j
// now has. A head drop advances start (an index it empties starts over at
// 0); any other cut moves the tail down.
func (x *index) cut(i, j int) int {
	switch {
	case i == j:
	case i == x.start:
		x.start = j
		if j == len(x.ids) {
			x.ids, x.start = x.ids[:0], 0
		}
		return x.start
	default:
		x.ids = append(x.ids[:i], x.ids[j:]...)
	}
	return i
}

// TrackerCounts are the residency trackers' work counters, summed over a
// Model's sockets since it was built. They count the tracker's own steps,
// not modelled traffic, so they stay out of Counters.
type TrackerCounts struct {
	// Evictions is the number of regions evicted from the LRU end.
	Evictions int64
	// SearchedEvictions is the number of evictions whose victim was not at
	// the head of its buffer's index and was found by binary search.
	SearchedEvictions int64
	// Seeks is the number of index positionings: one per temporal load or
	// store and per non-temporal store of an unpinned buffer.
	Seeks int64
	// SeekFallbacks is the number of seeks whose cursor missed and that
	// binary-searched the index.
	SeekFallbacks int64
}

// Sub returns t - o, for measuring a region between two snapshots.
func (t TrackerCounts) Sub(o TrackerCounts) TrackerCounts {
	return TrackerCounts{
		Evictions:         t.Evictions - o.Evictions,
		SearchedEvictions: t.SearchedEvictions - o.SearchedEvictions,
		Seeks:             t.Seeks - o.Seeks,
		SeekFallbacks:     t.SeekFallbacks - o.SeekFallbacks,
	}
}

func newCacheState(socket int, capacity int64) *cacheState {
	if capacity <= 0 {
		panic("memmodel: cache capacity must be positive")
	}
	return &cacheState{socket: socket, capacity: capacity, arena: make([]region, 1)}
}

// index returns buffer buf's index, or nil when the tracker has never
// indexed the buffer.
func (c *cacheState) index(buf uint64) *index {
	if buf < uint64(len(c.byBuf)) {
		return &c.byBuf[buf]
	}
	return nil
}

// indexFor returns buffer buf's index, growing the table geometrically on
// first contact with a new buffer ID.
func (c *cacheState) indexFor(buf uint64) *index {
	if buf >= uint64(len(c.byBuf)) {
		if buf > math.MaxUint32 {
			panic(fmt.Sprintf("memmodel: buffer ID %d does not fit a region", buf))
		}
		grown := make([]index, max(buf+1, 2*uint64(len(c.byBuf))))
		copy(grown, c.byBuf)
		c.byBuf = grown
	}
	return &c.byBuf[buf]
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
// growing the bank to the index table's length on demand (no-op for
// buffers byBuf has never seen — there is nothing to seek in an empty
// index anyway).
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

// alloc returns the id of a region initialized to the given range,
// recycling a freed id when one is available. It may grow the arena, so
// no caller holds a *region across it.
func (c *cacheState) alloc(buf uint32, lo, hi int64, dirty bool) int32 {
	id := c.free
	if id != 0 {
		c.free = c.arena[id].next
	} else {
		if len(c.arena) > math.MaxInt32 {
			panic("memmodel: residency arena full")
		}
		id = int32(len(c.arena))
		c.arena = append(c.arena, region{})
	}
	c.arena[id] = region{lo: lo, hi: hi, buf: buf, dirty: dirty}
	return id
}

// release puts region id (already off the recency list and out of its
// index) onto the free list.
func (c *cacheState) release(id int32) {
	c.arena[id].next = c.free
	c.free = id
}

// lruInsertAfter links id immediately after `after` in recency order
// (after the sentinel 0's prev, the MRU region, to push it at the back).
func (c *cacheState) lruInsertAfter(id, after int32) {
	a := c.arena
	next := a[after].next
	a[id].prev, a[id].next = after, next
	a[next].prev = id
	a[after].next = id
	c.nregions++
}

// lruRemove unlinks id from the recency list.
func (c *cacheState) lruRemove(id int32) {
	a := c.arena
	prev, next := a[id].prev, a[id].next
	a[prev].next = next
	a[next].prev = prev
	c.nregions--
}

// overlapStart returns the position in ids of the first region that may
// overlap [lo, ...): regions are disjoint and sorted by lo, so their hi
// values are sorted too and binary search applies. Open-coded (rather than
// sort.Search) to avoid a closure call per probe on the hot path.
func (c *cacheState) overlapStart(ids []int32, lo int64) int {
	a := c.arena
	i, j := 0, len(ids)
	for i < j {
		h := int(uint(i+j) >> 1)
		if a[ids[h]].hi > lo {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// searchLo returns the position in ids of the first region with lo >= key.
func (c *cacheState) searchLo(ids []int32, key int64) int {
	a := c.arena
	i, j := 0, len(ids)
	for i < j {
		h := int(uint(i+j) >> 1)
		if a[ids[h]].lo >= key {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// seekWindow bounds how far seek walks linearly from the cursor before
// giving up and binary-searching: evictions and removals shift a buffer's
// positions by a few slots between one stream's operations, so the answer
// is usually within a short distance of the stale cursor.
const seekWindow = 8

// seek returns the position in x of the first region with hi > lo,
// trusting the buffer's cursor when it (or a near neighbour — the
// sequential-streaming step) still identifies the answer. The validation
// re-derives that condition exactly, so a stale cursor can only cost the
// binary-search fallback, never a wrong position.
func (c *cacheState) seek(buf uint64, x *index, lo int64) int {
	c.counts.Seeks++
	ids, a := x.ids, c.arena
	n := len(ids)
	if x.start == n {
		return n
	}
	i := min(max(c.cur(buf), x.start), n-1)
	if a[ids[i]].hi > lo {
		// First candidate: walk left to the earliest region with hi > lo.
		for k := 0; k < seekWindow; k++ {
			if i == x.start || a[ids[i-1]].hi <= lo {
				return i
			}
			i--
		}
	} else {
		// Walk right to the first region with hi > lo.
		for k := 0; k < seekWindow; k++ {
			i++
			if i == n || a[ids[i]].hi > lo {
				return i
			}
		}
	}
	c.counts.SeekFallbacks++
	return x.start + c.overlapStart(ids[x.start:], lo)
}

// sum returns how many bytes of [lo, hi) the regions of ids from position
// i on cover, and how many of those are dirty.
func (c *cacheState) sum(ids []int32, i int, lo, hi int64) (cached, dirty int64) {
	a := c.arena
	for ; i < len(ids); i++ {
		r := &a[ids[i]]
		if r.lo >= hi {
			break
		}
		n := min(r.hi, hi) - max(r.lo, lo)
		cached += n
		if r.dirty {
			dirty += n
		}
	}
	return cached, dirty
}

// lookup returns how many bytes of [lo, hi) of buffer buf are cached, and
// how many of those are dirty, leaving residency as it is.
func (c *cacheState) lookup(buf uint64, lo, hi int64) (cached, dirty int64) {
	x := c.index(buf)
	if x == nil {
		return 0, 0
	}
	i := c.seek(buf, x, lo)
	c.setCur(buf, i)
	return c.sum(x.ids, i, lo, hi)
}

// insert makes [lo, hi) of buffer buf cache-resident with the given dirty
// state, evicting LRU regions as needed. It returns the number of dirty
// bytes written back by evictions (dirty bytes of overlapped older regions,
// whose contents the new range supersedes, are NOT counted).
func (c *cacheState) insert(buf uint64, lo, hi int64, dirty bool) (writeback int64) {
	_, _, writeback = c.access(buf, lo, hi, dirty, false)
	return writeback
}

// access is the residency side of one temporal load or store of [lo, hi)
// of buffer buf, on one seek: it returns the bytes of the range that were
// cached and the dirty bytes among them, then makes the range resident as
// the most recently used region, as insert does, and returns the dirty
// bytes evictions wrote back. The new region is dirty when dirty is set
// (a store), or when keepDirty is set and the range held dirty bytes (a
// load, which must not lose the dirty bit of data a store left).
func (c *cacheState) access(buf uint64, lo, hi int64, dirty, keepDirty bool) (cached, dirtied, writeback int64) {
	if lo >= hi {
		return 0, 0, 0
	}
	x := c.indexFor(buf)
	i := c.seek(buf, x, lo)
	cached, dirtied = c.sum(x.ids, i, lo, hi)
	dirty = dirty || keepDirty && dirtied > 0
	// A region larger than the whole cache leaves only its tail resident
	// (streaming through the cache evicts its own head).
	if hi-lo > c.capacity {
		lo = hi - c.capacity
		i += c.overlapStart(x.ids[i:], lo)
	}
	// Fast path: the range is exactly one tracked region with the same
	// dirty bit. Removing it and re-inserting an identical region at the MRU
	// end frees and re-takes the same bytes, so nothing is evicted; moving
	// the region there has the same effect without the index splice.
	if i < len(x.ids) {
		if id, r := x.ids[i], &c.arena[x.ids[i]]; r.lo == lo && r.hi == hi && r.dirty == dirty {
			if c.arena[0].prev != id {
				c.lruRemove(id)
				c.lruInsertAfter(id, c.arena[0].prev)
			}
			c.setCur(buf, i)
			return cached, dirtied, 0
		}
	}
	ri := c.remove(x, i, lo, hi)
	id := c.alloc(uint32(buf), lo, hi, dirty)
	c.lruInsertAfter(id, c.arena[0].prev)
	// rel is the new region's position relative to the index's start: an
	// eviction from the same buffer in front of it lowers it by one,
	// whether it was a head drop or a cut that moved the tail down.
	rel := x.insert(ri, id) - x.start
	c.used += hi - lo
	for c.used > c.capacity {
		victim := c.arena[0].next
		if victim == id && c.nregions == 1 {
			break // cannot evict the region we just inserted entirely
		}
		v := c.arena[victim]
		if v.buf == uint32(buf) && v.lo < lo {
			rel--
		}
		if v.dirty {
			writeback += v.hi - v.lo
		}
		c.evict(victim)
	}
	c.setCur(buf, x.start+rel)
	return cached, dirtied, writeback
}

// invalidate drops [lo, hi) of buffer buf from the cache without
// write-back (a non-temporal store supersedes any cached copy).
func (c *cacheState) invalidate(buf uint64, lo, hi int64) {
	x := c.index(buf)
	if x == nil {
		return
	}
	i := c.seek(buf, x, lo)
	c.setCur(buf, i)
	c.remove(x, i, lo, hi)
}

// invalidateBuffer drops every cached region of the buffer.
func (c *cacheState) invalidateBuffer(buf uint64) {
	x := c.index(buf)
	if x == nil {
		return
	}
	for _, id := range x.ids[x.start:] {
		c.lruRemove(id)
		c.used -= c.arena[id].hi - c.arena[id].lo
		c.release(id)
	}
	x.ids, x.start = x.ids[:0], 0
}

// remove deletes [lo, hi) from the regions of index x, from position i,
// the first region with hi > lo, on, splitting regions that partially
// overlap. Split fragments keep the original recency position and dirty
// bit. It returns the position at which a region starting at lo now
// belongs (the insertion point access uses).
func (c *cacheState) remove(x *index, i int, lo, hi int64) int {
	if i == len(x.ids) || c.arena[x.ids[i]].lo >= hi {
		return i
	}
	if id, r := x.ids[i], c.arena[x.ids[i]]; r.lo < lo && r.hi > hi {
		// One region covers the hole entirely: split it in two.
		c.used -= hi - lo
		tail := c.alloc(r.buf, hi, r.hi, r.dirty)
		c.lruInsertAfter(tail, id)
		c.arena[id].hi = lo
		return x.insert(i+1, tail)
	}
	a := c.arena
	if r := &a[x.ids[i]]; r.lo < lo { // overlaps from the left: trim its tail
		c.used -= r.hi - lo
		r.hi = lo
		i++
	}
	j := i
	for j < len(x.ids) && a[x.ids[j]].hi <= hi { // fully covered: drop
		id := x.ids[j]
		c.lruRemove(id)
		c.used -= a[id].hi - a[id].lo
		c.release(id)
		j++
	}
	if j < len(x.ids) && a[x.ids[j]].lo < hi { // overlaps from the right: trim its head
		r := &a[x.ids[j]]
		c.used -= hi - r.lo
		r.lo = hi
	}
	return x.cut(i, j)
}

// evict removes a whole region from the cache (LRU victim) and recycles it.
func (c *cacheState) evict(id int32) {
	c.counts.Evictions++
	c.lruRemove(id)
	r := &c.arena[id]
	c.used -= r.hi - r.lo
	x := &c.byBuf[r.buf]
	i := x.start
	if x.ids[i] != id {
		// Not the head (head drops need no search for in-address-order
		// victims): binary-search the index.
		c.counts.SearchedEvictions++
		i += c.searchLo(x.ids[i:], r.lo)
	}
	x.cut(i, i+1)
	c.release(id)
}

// occupancy returns the number of cached bytes (for tests/diagnostics).
func (c *cacheState) occupancy() int64 { return c.used }

// checkInvariants verifies internal consistency (test helper).
func (c *cacheState) checkInvariants() error {
	var total int64
	count := 0
	for buf, x := range c.byBuf {
		if x.start < 0 || x.start > len(x.ids) {
			return fmt.Errorf("buf %d index start %d outside [0, %d]", buf, x.start, len(x.ids))
		}
		var prev int64 = -1
		for _, id := range x.ids[x.start:] {
			if id <= 0 || int(id) >= len(c.arena) {
				return fmt.Errorf("buf %d indexes region id %d outside the arena", buf, id)
			}
			r := c.arena[id]
			if r.buf != uint32(buf) {
				return fmt.Errorf("region %+v indexed under buf %d", r, buf)
			}
			if r.lo >= r.hi {
				return fmt.Errorf("empty region %+v in buf %d", r, buf)
			}
			if r.lo < prev {
				return fmt.Errorf("regions of buf %d out of order or overlapping", buf)
			}
			prev = r.hi
			total += r.hi - r.lo
			count++
		}
	}
	if total != c.used {
		return fmt.Errorf("used = %d but regions sum to %d", c.used, total)
	}
	lruCount := 0
	for id := c.arena[0].next; id != 0; id = c.arena[id].next {
		if c.arena[c.arena[id].next].prev != id {
			return fmt.Errorf("lru links of region %d disagree", id)
		}
		lruCount++
		if lruCount > count {
			return fmt.Errorf("lru list longer than region count %d (cycle?)", count)
		}
	}
	if count != lruCount || count != c.nregions {
		return fmt.Errorf("region count %d != lru len %d (nregions %d)", count, lruCount, c.nregions)
	}
	nfree := 0
	for id := c.free; id != 0; id = c.arena[id].next {
		nfree++
		if nfree > len(c.arena) {
			return fmt.Errorf("free list longer than the arena (cycle?)")
		}
	}
	if 1+count+nfree != len(c.arena) {
		return fmt.Errorf("%d regions and %d free ids in an arena of %d", count, nfree, len(c.arena))
	}
	if c.used > c.capacity {
		return fmt.Errorf("used %d exceeds capacity %d", c.used, c.capacity)
	}
	return nil
}
