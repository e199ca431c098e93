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
	"hash/fnv"

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
type mapping map[uint64]int

// locate walks the split history to the live partition owning hash h.
// With a stale map this may return a partition that has since split — the
// server detects that and returns corrections.
func (m mapping) locate(h uint64) partitionID {
	d := 0
	for {
		i := h & ((1 << uint(d)) - 1)
		if pd, ok := m[i]; ok && pd == d {
			return partitionID{Index: i, Depth: d}
		}
		d++
		if d > maxDepth {
			panic("giga: split depth exceeds maxDepth")
		}
	}
}

// clone copies a mapping (server → client map transfer).
func (m mapping) clone() mapping {
	c := make(mapping, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

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
	// load counts entries per partition.
	load map[uint64]int

	// Counters.
	Creates          int64
	AddressingErrors int64
	Splits           int64

	clients      []*Client
	pendingInval map[*Client]bool
}

// NewDir creates an empty directory (one partition at depth 0 on server 0).
func NewDir(eng *sim.Engine, cfg Config) *Dir {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	d := &Dir{
		cfg:          cfg,
		eng:          eng,
		truth:        mapping{0: 0},
		load:         map[uint64]int{0: 0},
		pendingInval: make(map[*Client]bool),
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
	id  int

	Bounces int64
}

// NewClient registers a client holding a fresh copy of the current map.
func (d *Dir) NewClient(id int) *Client {
	c := &Client{dir: d, m: d.truth.clone(), id: id}
	d.clients = append(d.clients, c)
	return c
}

// hashName hashes a file name into the partition keyspace.
func hashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Create inserts name into the directory, calling done when the server has
// acknowledged it. The client addresses the partition its own map names;
// if that partition has split since, the owning server bounces the request
// with map corrections and the client retries (at most maxDepth hops).
func (c *Client) Create(name string, done func()) {
	h := hashName(name)
	c.attempt(h, 0, done)
}

func (c *Client) attempt(h uint64, hops int, done func()) {
	if hops > maxDepth+1 {
		// merge guarantees one bounce resolves a stale target, so
		// exceeding the split depth means the correction protocol is
		// broken — fail loudly rather than looping.
		panic("giga: unbounded addressing-error loop")
	}
	d := c.dir
	target := c.m.locate(h)
	srvIdx := d.serverOf(target)
	// Client -> server RPC.
	d.eng.Schedule(d.cfg.RPC, func() {
		actual := d.truth.locate(h)
		if actual != target {
			// Stale client map: the server returns the relevant split
			// history and the client retries. Each bounce refines the map
			// by at least one level.
			d.AddressingErrors++
			c.Bounces++
			d.servers[srvIdx].Submit(d.cfg.InsertTime/4, func(sim.Time) {
				c.merge(actual)
				d.eng.Schedule(d.cfg.RPC, func() { c.attempt(h, hops+1, done) })
			})
			return
		}
		owner := d.serverOf(actual)
		d.servers[owner].Submit(d.cfg.InsertTime, func(sim.Time) {
			d.load[actual.Index]++
			d.Creates++
			d.maybeSplit(actual, owner)
			// Reply RPC.
			d.eng.Schedule(d.cfg.RPC, func() {
				c.syncPenalty(done)
			})
		})
	})
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
		if pd, ok := c.m[ancestor]; ok && pd <= d {
			delete(c.m, ancestor)
		}
		sib := (p.Index & ((1 << uint(d+1)) - 1)) ^ (1 << uint(d))
		if _, ok := c.m[sib]; !ok {
			c.m[sib] = d + 1
		}
	}
	c.m[p.Index] = p.Depth
}

// syncPenalty models the SyncInvalidate ablation: if a split happened that
// this client has not yet acknowledged, it pays a map-refresh round trip.
func (c *Client) syncPenalty(done func()) {
	d := c.dir
	if d.cfg.SyncInvalidate && d.pendingInval[c] {
		delete(d.pendingInval, c)
		c.m = d.truth.clone()
		d.eng.Schedule(2*d.cfg.RPC, done)
		return
	}
	done()
}

// maybeSplit splits a partition that crossed the threshold, billing the
// migration work to both the source and destination servers.
func (d *Dir) maybeSplit(p partitionID, owner int) {
	if d.load[p.Index] < d.cfg.SplitThreshold || p.Depth >= maxDepth {
		return
	}
	moved := d.load[p.Index] / 2
	d.load[p.Index] -= moved
	child := partitionID{Index: p.Index | 1<<uint(p.Depth), Depth: p.Depth + 1}
	d.truth[p.Index] = p.Depth + 1
	d.truth[child.Index] = child.Depth
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
			d.pendingInval[c] = true
		}
	}
}

// Partitions reports the live partition count.
func (d *Dir) Partitions() int { return len(d.load) }

// LoadImbalance returns max/mean entries across partitions' servers.
func (d *Dir) LoadImbalance() float64 {
	perServer := make([]int, d.cfg.Servers)
	for idx, n := range d.load {
		depth := d.truth[idx]
		perServer[d.serverOf(partitionID{Index: idx, Depth: depth})] += n
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
