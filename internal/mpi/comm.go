package mpi

import (
	"fmt"
	"strconv"
	"strings"

	"yhccl/internal/memmodel"
	"yhccl/internal/shm"
)

// Comm is a communicator: an ordered group of global ranks plus the shared
// resources (segments, flags, barrier, p2p channels) its collectives use.
// Resources are memoized by Key so that repeated collective invocations
// reuse the same shared memory and flags, exactly like a persistent MPI
// communicator context — this is what lets shared segments stay
// cache-warm across iterations.
type Comm struct {
	machine *Machine
	name    string
	ranks   []int       // global rank ids, comm rank = index
	index   map[int]int // global rank -> comm rank
	epoch   int         // membership epoch this comm was built under

	buffers  map[Key]*memmodel.Buffer
	segSets  map[Key][]*memmodel.Buffer // Segments
	sockSets map[Key][]*memmodel.Buffer // SocketShared
	flagSets map[Key][]*shm.Flag
	flagRuns map[flagRun][]*shm.Flag // FlagSets
	pubs     map[Key][]*memmodel.Buffer
	counters map[Key][]int64
	chans    []*chanState // p2p channel of (src, dst) at src*Size()+dst; nil until the first send
	derived  map[Key]any  // Derived; nil until the first
	barrier  *shm.Barrier
	arena    *shm.Arena
}

// Key names one communicator resource. Label names the collective that
// owns it ("dpml-ar") and Name the resource within it ("seg%d/n=%d"); both
// are string constants where a collective makes the key, so making,
// hashing and comparing a key formats and allocates nothing. Name's %d
// verbs, at most two, take A and B in order. The resource's name (String)
// is built once, when the resource is created.
type Key struct {
	Label, Name string
	A, B        int64
}

// String returns the name of the resource k stands for: Label/Name with
// Name's verbs filled in, e.g. "dpml-ar/seg3/n=1024".
func (k Key) String() string {
	b := make([]byte, 0, len(k.Label)+len(k.Name)+24)
	b = append(append(b, k.Label...), '/')
	args := [...]int64{k.A, k.B}
	name, used := k.Name, 0
	for {
		i := strings.Index(name, "%d")
		if i < 0 || used == len(args) {
			return string(append(b, name...))
		}
		b = strconv.AppendInt(append(b, name[:i]...), args[used], 10)
		name, used = name[i+2:], used+1
	}
}

// flagRun keys a FlagSets concatenation.
type flagRun struct {
	k     Key
	count int
}

func newComm(m *Machine, name string, ranks []int) *Comm {
	c := &Comm{
		machine:  m,
		name:     name,
		epoch:    m.epoch,
		ranks:    ranks,
		index:    make(map[int]int, len(ranks)),
		buffers:  make(map[Key]*memmodel.Buffer),
		segSets:  make(map[Key][]*memmodel.Buffer),
		sockSets: make(map[Key][]*memmodel.Buffer),
		flagSets: make(map[Key][]*shm.Flag),
		flagRuns: make(map[flagRun][]*shm.Flag),
		pubs:     make(map[Key][]*memmodel.Buffer),
		counters: make(map[Key][]int64),
		arena:    shm.NewArena(m.Model, name, m.Real),
	}
	for i, r := range ranks {
		c.index[r] = i
	}
	return c
}

// Name returns the communicator label.
func (c *Comm) Name() string { return c.name }

// Epoch returns the membership epoch this communicator was built under.
func (c *Comm) Epoch() int { return c.epoch }

// check panics with a typed *EpochError when the communicator predates the
// machine's current membership epoch — its flags, segments and pipes belong
// to a membership that no longer exists, so no traffic may cross epochs. One
// integer compare; zero float ops, zero allocations on the healthy path.
func (c *Comm) check() {
	if c.epoch != c.machine.epoch {
		panic(&EpochError{Comm: c.name, Stale: c.epoch, Current: c.machine.epoch})
	}
}

// Size returns the number of participating ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// GlobalRank maps a comm rank to its global rank id.
func (c *Comm) GlobalRank(commRank int) int { return c.ranks[commRank] }

// CommRank maps a global rank id to its comm rank, or -1 if absent.
func (c *Comm) CommRank(globalRank int) int {
	if i, ok := c.index[globalRank]; ok {
		return i
	}
	return -1
}

// CoreOf returns the core that comm rank i runs on.
func (c *Comm) CoreOf(commRank int) int {
	return c.machine.RankCores[c.ranks[commRank]]
}

// SocketOf returns the socket of comm rank i.
func (c *Comm) SocketOf(commRank int) int {
	return c.machine.Node.SocketOf(c.CoreOf(commRank))
}

// Machine returns the owning machine.
func (c *Comm) Machine() *Machine { return c.machine }

// Shared returns the shared buffer keyed k, creating it homed on the given
// socket on first use. Subsequent calls must agree on size and homing.
func (c *Comm) Shared(k Key, home int, elems int64) *memmodel.Buffer {
	c.check()
	if b, ok := c.buffers[k]; ok {
		if b.Elems != elems || b.Home != home {
			panic(fmt.Sprintf("mpi: shared buffer %q re-requested with different shape (%d@%d vs %d@%d)",
				k, elems, home, b.Elems, b.Home))
		}
		return b
	}
	b := c.arena.Alloc(k.String(), home, elems)
	c.buffers[k] = b
	c.machine.created++
	return b
}

// Segments returns the communicator's segment set k: one shared buffer of
// elems per comm rank, member i being the buffer keyed k with A = i, homed
// on comm rank i's socket. The set is resolved once; later calls return
// the same slice, which callers must not modify.
func (c *Comm) Segments(k Key, elems int64) []*memmodel.Buffer {
	c.check()
	if set, ok := c.segSets[k]; ok {
		if set[0].Elems != elems {
			panic(fmt.Sprintf("mpi: segment set %q re-requested with %d elements, not %d", k, elems, set[0].Elems))
		}
		return set
	}
	set := make([]*memmodel.Buffer, c.Size())
	for i := range set {
		m := k
		m.A = int64(i)
		set[i] = c.Shared(m, c.SocketOf(i), elems)
	}
	c.segSets[k] = set
	return set
}

// SocketShared returns, for each socket s of the machine, the shared
// buffer keyed k in socket s's communicator, homed on s — the per-socket
// partials a cross-socket combine folds. It is resolved once and cached on
// c; callers must not modify the slice.
func (c *Comm) SocketShared(k Key, elems int64) []*memmodel.Buffer {
	c.check()
	if set, ok := c.sockSets[k]; ok {
		if set[0].Elems != elems {
			panic(fmt.Sprintf("mpi: socket buffers %q re-requested with %d elements, not %d", k, elems, set[0].Elems))
		}
		return set
	}
	set := make([]*memmodel.Buffer, c.machine.Sockets())
	for s := range set {
		set[s] = c.machine.SocketComm(s).Shared(k, s, elems)
	}
	c.sockSets[k] = set
	return set
}

// Flags returns the flag set keyed k (one flag per comm rank, flag i owned
// by comm rank i's core), creating it on first use.
func (c *Comm) Flags(k Key) []*shm.Flag {
	c.check()
	if fs, ok := c.flagSets[k]; ok {
		return fs
	}
	prefix := c.name + "/" + k.String() + "["
	fs := make([]*shm.Flag, c.Size())
	for i := range fs {
		fs[i] = shm.NewFlag(c.machine.Model, prefix+strconv.Itoa(i)+"]", c.CoreOf(i))
	}
	c.flagSets[k] = fs
	c.machine.created += len(fs)
	return fs
}

// FlagSets returns count flag sets, the sets keyed k with A = 0..count-1,
// as one slice of count*Size() flags (set j's flag i at j*Size()+i). It
// is resolved once per count; callers must not modify the slice.
func (c *Comm) FlagSets(k Key, count int) []*shm.Flag {
	c.check()
	if fs, ok := c.flagRuns[flagRun{k, count}]; ok {
		return fs
	}
	fs := make([]*shm.Flag, 0, count*c.Size())
	for j := 0; j < count; j++ {
		m := k
		m.A = int64(j)
		fs = append(fs, c.Flags(m)...)
	}
	c.flagRuns[flagRun{k, count}] = fs
	return fs
}

// Publish registers r's buffer under k, making it visible to the other
// ranks of the communicator via Peer — the stand-in for XPMEM-style
// address-space exposure. Callers must barrier between Publish and Peer.
func (c *Comm) Publish(r *Rank, k Key, b *memmodel.Buffer) {
	c.check()
	slots, ok := c.pubs[k]
	if !ok {
		slots = make([]*memmodel.Buffer, c.Size())
		c.pubs[k] = slots
	}
	slots[c.mustRank(r)] = b
}

// Peer returns the buffer comm rank `who` published under k.
func (c *Comm) Peer(k Key, who int) *memmodel.Buffer {
	c.check()
	slots := c.pubs[k]
	if slots == nil || slots[who] == nil {
		panic(fmt.Sprintf("mpi: no buffer published as %q by comm rank %d", k, who))
	}
	return slots[who]
}

// Peers returns the buffers the comm ranks published under k, indexed by
// comm rank; callers must not modify the slice.
func (c *Comm) Peers(k Key) []*memmodel.Buffer {
	c.check()
	slots := c.pubs[k]
	for who := range c.ranks {
		if slots == nil || slots[who] == nil {
			panic(fmt.Sprintf("mpi: no buffer published as %q by comm rank %d", k, who))
		}
	}
	return slots
}

// Derived returns the communicator's derived structure keyed k — one a
// collective computes from the communicator's shape alone, such as a
// reduction tree — building it with build on first use. Later calls
// return the same value, which callers must not modify.
func (c *Comm) Derived(k Key, build func() any) any {
	c.check()
	if v, ok := c.derived[k]; ok {
		return v
	}
	if c.derived == nil {
		c.derived = make(map[Key]any)
	}
	v := build()
	c.derived[k] = v
	c.machine.created++
	return v
}

// Counter returns a pointer to r's persistent counter keyed k, used by
// collectives to keep their monotone flag epochs across invocations.
func (c *Comm) Counter(r *Rank, k Key) *int64 {
	c.check()
	vals, ok := c.counters[k]
	if !ok {
		vals = make([]int64, c.Size())
		c.counters[k] = vals
	}
	return &vals[c.mustRank(r)]
}

// mustRank returns r's comm rank, panicking when r is not a member.
func (c *Comm) mustRank(r *Rank) int {
	me := c.CommRank(r.id)
	if me < 0 {
		panic(fmt.Sprintf("mpi: rank %d not in comm %s", r.id, c.Name()))
	}
	return me
}

// Barrier returns the communicator's barrier (created on first use).
func (c *Comm) Barrier() *shm.Barrier {
	c.check()
	if c.barrier == nil {
		cores := make([]int, c.Size())
		for i := range cores {
			cores[i] = c.CoreOf(i)
		}
		c.barrier = shm.MustBarrier(c.machine.Model, c.name+"/barrier", cores)
	}
	return c.barrier
}
