// Package giga implements GIGA+ (Patil & Gibson; PDSI's scalable-directory
// work, Figure 7 of the report): a directory hash-partitioned over many
// metadata servers that splits partitions *independently* as they grow and
// lets client partition maps go stale, correcting them lazily with a
// bounded number of extra hops instead of synchronously invalidating every
// client on every split. The result is file-create throughput that scales
// near-linearly with servers — the operation that single-server
// directories and cache-consistent designs serialize.
package giga

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// maxDepth bounds the extensible-hash radix depth (2^maxDepth partitions).
const maxDepth = 24

// partitionID names one partition: the low-Depth bits of an entry hash
// equal Index.
type partitionID struct {
	Index uint64
	Depth int
}

// mapping is the GIGA+ partition map: for each live partition index, its
// depth. Splitting partition (i, d) produces (i, d+1) and (i|1<<d, d+1).
// It is a dense table indexed by partition index that holds depth+1, 0
// meaning no entry. A partition at depth d has an index below 1<<d, so
// the table is 1<<(deepest depth recorded) long: at most 1<<maxDepth
// entries, and 256 for a directory of 256 partitions.
type mapping []int8

// newMapping returns a map holding only the root partition (0 at depth 0).
func newMapping() mapping { return mapping{1} }

// get reports the depth recorded for partition index i.
func (m mapping) get(i uint64) (depth int, ok bool) {
	if i >= uint64(len(m)) || m[i] == 0 {
		return 0, false
	}
	return int(m[i]) - 1, true
}

// set records partition index i at depth d, growing the table to hold
// every index at that depth.
func (m *mapping) set(i uint64, d int) {
	if n := 1 << uint(d); len(*m) < n {
		*m = append(*m, make(mapping, n-len(*m))...)
	}
	(*m)[i] = int8(d + 1)
}

// locate walks the split history to the live partition owning hash h.
// With a stale map this may return a partition that has since split — the
// server detects that and returns corrections.
func (m mapping) locate(h uint64) partitionID {
	d := 0
	for {
		i := h & ((1 << uint(d)) - 1)
		if i < uint64(len(m)) && int(m[i]) == d+1 {
			return partitionID{Index: i, Depth: d}
		}
		d++
		if d > maxDepth {
			panic("giga: split depth exceeds maxDepth")
		}
	}
}

// clone copies a mapping (server → client map transfer).
func (m mapping) clone() mapping { return slices.Clone(m) }

// Config tunes the directory service.
type Config struct {
	Servers int
	// SplitThreshold is the entry count at which a partition splits.
	SplitThreshold int
	// InsertTime is the server CPU time to insert one entry.
	InsertTime sim.Time
	// PerEntryMove is the server time per entry migrated during a split.
	PerEntryMove sim.Time
	// RPC is one-way client-server messaging latency.
	RPC sim.Time
	// SyncInvalidate, when true, models the conventional alternative:
	// every split synchronously updates every client's map, costing each
	// client an RPC round trip before its next operation (the ablation of
	// GIGA+'s lazy stale-map design).
	SyncInvalidate bool
}

// DefaultConfig returns parameters resembling the PVFS-backed prototype.
func DefaultConfig(servers int) Config {
	return Config{
		Servers:        servers,
		SplitThreshold: 2000,
		InsertTime:     sim.Time(150e-6),
		PerEntryMove:   sim.Time(20e-6),
		RPC:            sim.Time(100e-6),
	}
}

func (c Config) validate() error {
	if c.Servers < 1 || c.SplitThreshold < 2 || c.InsertTime <= 0 {
		return fmt.Errorf("giga: invalid config %+v", c)
	}
	return nil
}

// Dir is a GIGA+ directory instance bound to a sim engine.
type Dir struct {
	cfg     Config
	eng     *sim.Engine
	servers []*sim.Server

	// truth is the authoritative partition map (union of all servers'
	// knowledge; servers always know the truth about partitions they own,
	// which is all locate ever needs).
	truth mapping
	// load counts entries per partition index, and parts the indices
	// truth holds.
	load  []int
	parts int

	// Counters.
	Creates          int64
	AddressingErrors int64
	Splits           int64

	clients []*Client
}

// NewDir creates an empty directory (one partition at depth 0 on server 0).
func NewDir(eng *sim.Engine, cfg Config) *Dir {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	d := &Dir{
		cfg:   cfg,
		eng:   eng,
		truth: newMapping(),
		load:  []int{0},
		parts: 1,
	}
	for i := 0; i < cfg.Servers; i++ {
		d.servers = append(d.servers, sim.NewServer(eng, 1))
	}
	return d
}

// serverOf maps a partition to its metadata server.
func (d *Dir) serverOf(p partitionID) int {
	// Deterministic spread: fold index and depth. Splits place siblings on
	// different servers, which is what balances load as the directory grows.
	return int((p.Index*2654435761 + uint64(p.Depth)) % uint64(d.cfg.Servers))
}

// Client issues directory operations with its own (possibly stale) map.
type Client struct {
	dir *Dir
	m   mapping
	// pendingInval marks a split this client has not yet acknowledged
	// (SyncInvalidate only).
	pendingInval bool

	Bounces int64
}

// NewClient registers a client holding a fresh copy of the current map.
func (d *Dir) NewClient() *Client {
	c := &Client{dir: d, m: d.truth.clone()}
	d.clients = append(d.clients, c)
	return c
}

// FNV-1a, 64-bit (hash/fnv's New64a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashName hashes a file name into the partition keyspace with FNV-1a.
// It takes the name as a string or as the bytes a create stream builds
// it in, and hashes both alike.
func hashName[T string | []byte](name T) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	return h
}

// Create inserts name into the directory, calling done when the server has
// acknowledged it. The client addresses the partition its own map names;
// if that partition has split since, the owning server bounces the request
// with map corrections and the client retries (at most maxDepth hops).
func (c *Client) Create(name string, done func()) {
	op := &createOp{c: c, done: sim.HandlerFunc(done)}
	op.start(hashName(name))
}

// A createOp is one create in flight, and the Handler of each of its
// events: the client → server RPC, the server's insert or bounce, the
// retry RPC after a bounce, and the reply RPC. done runs when the create
// is acknowledged; by then the op is idle, so done may start the op's
// next create.
type createOp struct {
	c    *Client
	done sim.Handler

	h      uint64
	hops   int
	target partitionID // the partition the client's map names
	actual partitionID // the live partition owning h, at the server
	stage  createStage
}

// createStage names the event a createOp is waiting for.
type createStage uint8

const (
	atServer createStage = iota // the request RPC arrived
	bounced                     // the addressed server answered with corrections
	retry                       // the corrections reached the client
	inserted                    // the owner inserted the entry
	replied                     // the reply RPC reached the client
)

// start begins the create of the name that hashes to h.
func (op *createOp) start(h uint64) {
	op.h, op.hops = h, 0
	op.attempt()
}

func (op *createOp) attempt() {
	if op.hops > maxDepth+1 {
		// merge guarantees one bounce resolves a stale target, so
		// exceeding the split depth means the correction protocol is
		// broken — fail loudly rather than looping.
		panic("giga: unbounded addressing-error loop")
	}
	d := op.c.dir
	op.target = op.c.m.locate(op.h)
	// Client -> server RPC.
	op.stage = atServer
	d.eng.ScheduleHandler(d.cfg.RPC, op)
}

// Handle runs the create's next step.
func (op *createOp) Handle() {
	c := op.c
	d := c.dir
	switch op.stage {
	case atServer:
		op.actual = d.truth.locate(op.h)
		if op.actual != op.target {
			// Stale client map: the server returns the relevant split
			// history and the client retries. Each bounce refines the map
			// by at least one level.
			d.AddressingErrors++
			c.Bounces++
			op.stage = bounced
			d.servers[d.serverOf(op.target)].SubmitHandler(d.cfg.InsertTime/4, op)
			return
		}
		op.stage = inserted
		d.servers[d.serverOf(op.actual)].SubmitHandler(d.cfg.InsertTime, op)
	case bounced:
		c.merge(op.actual)
		op.stage = retry
		d.eng.ScheduleHandler(d.cfg.RPC, op)
	case retry:
		op.hops++
		op.attempt()
	case inserted:
		d.load[op.actual.Index]++
		d.Creates++
		d.maybeSplit(op.actual, d.serverOf(op.actual))
		// Reply RPC.
		op.stage = replied
		d.eng.ScheduleHandler(d.cfg.RPC, op)
	case replied:
		// The SyncInvalidate ablation: a client that has not yet
		// acknowledged a split pays a map-refresh round trip.
		if d.cfg.SyncInvalidate && c.pendingInval {
			c.pendingInval = false
			c.m = append(c.m[:0], d.truth...) // a clone, into c's own table
			d.eng.ScheduleHandler(2*d.cfg.RPC, op.done)
			return
		}
		op.done.Handle()
	}
}

// merge folds authoritative knowledge about partition p into the client
// map. Knowing p exists at depth p.Depth implies (a) every ancestor along
// p's prefix was split, so any map entry placing an ancestor at a depth
// <= its split point is stale and must go — a stale shallow ancestor
// would shadow p in locate and the client would bounce forever — and (b)
// each split also produced a sibling at the next depth, which is recorded
// (possibly itself stale-shallow; a later bounce refines it). After
// merge(p), locate resolves any hash owned by p to p: one bounce per
// stale target, the GIGA+ bounded-correction guarantee.
func (c *Client) merge(p partitionID) {
	for d := 0; d < p.Depth; d++ {
		ancestor := p.Index & ((1 << uint(d)) - 1)
		if pd, ok := c.m.get(ancestor); ok && pd <= d {
			c.m[ancestor] = 0
		}
		sib := (p.Index & ((1 << uint(d+1)) - 1)) ^ (1 << uint(d))
		if _, ok := c.m.get(sib); !ok {
			c.m.set(sib, d+1)
		}
	}
	c.m.set(p.Index, p.Depth)
}

// maybeSplit splits a partition that crossed the threshold, billing the
// migration work to both the source and destination servers. p is the
// partition the server located when the insert arrived; if another
// insert split it while this one waited in the queue, it is not split
// again.
func (d *Dir) maybeSplit(p partitionID, owner int) {
	if depth, _ := d.truth.get(p.Index); depth != p.Depth {
		return
	}
	if d.load[p.Index] < d.cfg.SplitThreshold || p.Depth >= maxDepth {
		return
	}
	moved := d.load[p.Index] / 2
	d.load[p.Index] -= moved
	child := partitionID{Index: p.Index | 1<<uint(p.Depth), Depth: p.Depth + 1}
	if _, ok := d.truth.get(child.Index); !ok {
		d.parts++
	}
	d.truth.set(p.Index, p.Depth+1)
	d.truth.set(child.Index, child.Depth)
	if n := len(d.truth); len(d.load) < n {
		d.load = append(d.load, make([]int, n-len(d.load))...)
	}
	d.load[child.Index] = moved
	d.Splits++
	cost := sim.Time(float64(moved)) * d.cfg.PerEntryMove
	d.servers[owner].Submit(cost, nil)
	d.servers[d.serverOf(child)].Submit(cost, nil)
	if d.cfg.SyncInvalidate {
		// Cache-consistent designs do not let a split complete until every
		// client's mapping is invalidated: the splitting server performs a
		// callback round trip per client (serialized server work, the way
		// DLM-style consistency behaves), and every client still refreshes
		// its map before its next operation.
		d.servers[owner].Submit(2*d.cfg.RPC*sim.Time(float64(len(d.clients))), nil)
		for _, c := range d.clients {
			c.pendingInval = true
		}
	}
}

// Partitions reports the live partition count.
func (d *Dir) Partitions() int { return d.parts }

// LoadImbalance returns max/mean entries across partitions' servers.
func (d *Dir) LoadImbalance() float64 {
	perServer := make([]int, d.cfg.Servers)
	for idx, n := range d.load {
		if depth, ok := d.truth.get(uint64(idx)); ok {
			perServer[d.serverOf(partitionID{Index: uint64(idx), Depth: depth})] += n
		}
	}
	total, maxLoad := 0, 0
	for _, n := range perServer {
		total += n
		if n > maxLoad {
			maxLoad = n
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(d.cfg.Servers)
	return float64(maxLoad) / mean
}
