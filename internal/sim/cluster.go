//lint:allowfile goroutine -- sanctioned site: the shard runner pool executes one engine per OS thread between conservative-lookahead barriers

package sim

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Cluster runs several Engines — shards — as one simulation under
// conservative (Chandy–Misra-style) synchronization: no rollback, no
// speculation. Each shard owns a disjoint piece of the model (whole
// domains: a file system pod and its clients, a fault injector's
// targets); shards interact only through Send, which declares a minimum
// cross-shard latency. The coordinator advances the simulation in
// bounded windows: with T the global minimum next-event time and L the
// cluster lookahead, every shard may safely dispatch its events in
// [T, T+L) in parallel, because anything another shard sends during the
// window arrives at or after T+L. Between windows the coordinator merges
// staged sends in a shard-count-invariant order, and a sampler tick
// inside a window runs at a barrier where every shard has reached it,
// so the observable trajectory — snapshots, series, reports — is
// byte-identical for any shard count and any GOMAXPROCS.
//
// Determinism contract, in exchange for which the Cluster promises
// byte-identical output across shard counts and scheduling:
//
//   - Shard state is disjoint: model code on shard i must not read or
//     write shard j's model state except through Send. NewCluster hands
//     the shard engines to setup code once and the cluster keeps no
//     lookup that returns them, so event code, which holds the cluster
//     to call Send, has no path to another shard's engine through it.
//   - Same-timestamp events on different shards must commute through
//     any shared instruments. Counts commute by construction: each model
//     keeps plain tallies that only its own shard writes, and the
//     registry sums them at Snapshot, after Run returns. Order-sensitive
//     instruments (histograms, quantiles, time series) must be observed
//     from a single shard each — give each domain its own metric-name
//     prefix.
//   - Send keys are stable entity names owned by a single sender, so
//     the per-key sequence numbers that break merge ties do not depend
//     on where the sender is placed.
type Cluster struct {
	shards    []*Engine
	lookahead Time

	now Time

	// Cross-shard sends staged during the current window, one slice per
	// source shard so workers never share a write destination. keyseq
	// carries the per-key tie-break counters, also per source shard.
	outbox    [][]send
	keyseq    []map[string]uint64
	injectBuf []send

	// smp is the one sampler every shard's Engine.Series joins; its
	// ticks run at barriers inside windows (sampler.go).
	smp *sampler

	n *clusterTally

	running bool
}

// clusterTally counts cross-shard deliveries and coordinator windows,
// apart from the cluster so the registry's functions do not keep a
// finished cluster and its shards alive.
type clusterTally struct{ sends, windows int64 }

// send is one staged cross-shard delivery. Merge order at injection is
// (at, key, seq): arrival time, then the sender-chosen stable key, then
// the per-key issue sequence — none of which depend on shard placement.
type send struct {
	dst int
	at  Time
	key string
	seq uint64
	fn  func()
}

// NewCluster returns a cluster of n fresh shard engines with the given
// lookahead: the minimum latency every Send must declare. Use Infinity
// for a cluster of fully decoupled shards (no sends allowed) — one
// window then runs the whole simulation, split only at sampler ticks.
//
// The shard engines are handed out once, here, to the setup code that
// binds each domain to its shard; the returned slice is a copy, indexed
// by the shard numbers Send takes.
func NewCluster(n int, lookahead Time) (*Cluster, []*Engine) {
	if n < 1 {
		panic(fmt.Sprintf("sim: NewCluster with %d shards", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewCluster lookahead %v <= 0", lookahead))
	}
	c := &Cluster{
		shards:    make([]*Engine, n),
		lookahead: lookahead,
		outbox:    make([][]send, n),
		keyseq:    make([]map[string]uint64, n),
		smp:       new(sampler),
		n:         new(clusterTally),
	}
	for i := range c.shards {
		c.shards[i] = &Engine{n: new(engineTally), smp: c.smp}
		c.keyseq[i] = make(map[string]uint64)
	}
	return c, append([]*Engine(nil), c.shards...)
}

// Pending reports live events summed over all shards, counting staged
// cross-shard sends not yet delivered. Only meaningful while no shard
// runs: at sampler ticks, or before and after Run.
func (c *Cluster) Pending() int {
	total := 0
	for i, sh := range c.shards {
		total += sh.live + len(c.outbox[i])
	}
	return total
}

// Instrument attaches a registry to every shard and registers the
// cluster-wide aggregates. The sim.events_* counters sum the shards'
// tallies, so they do not depend on the shard count; the pending and clock
// gauges and the events-pending series are cluster-level so the
// snapshot shape does not depend on the shard count. A cluster has no
// sim.queue_depth_max: the total pending is defined only between
// windows, so a high-water mark taken there misses every peak inside a
// window (under infinite lookahead it is one census, at the start of the
// run). Clusters are not traced: shard workers would append to one trace
// in scheduling order.
func (c *Cluster) Instrument(reg *obs.Registry) {
	for _, sh := range c.shards {
		sh.instrument(reg)
	}
	if reg == nil {
		return
	}
	n := c.n
	reg.CounterFunc("sim.cluster.sends", func() int64 { return n.sends })
	reg.CounterFunc("sim.cluster.windows", func() int64 { return n.windows })
	reg.GaugeFunc("sim.pending", func() float64 { return float64(c.Pending()) })
	reg.GaugeFunc("sim.now_s", func() float64 { return float64(c.now) })
	c.smp.add(reg, "sim.events.pending", func() float64 { return float64(c.Pending()) })
}

// Send schedules fn on shard dst at the sending shard's current time
// plus delay, which must be at least the cluster lookahead — that bound
// is what lets every shard run a whole window without hearing from its
// peers. key names the sending entity (a pod, a client, a link) and
// must be owned by a single logical sender: same-time arrivals merge in
// (key, per-key sequence) order, so the merge must not depend on which
// shard the sender landed on. Call it from model code on shard src
// during a window, or from setup code before Run.
func (c *Cluster) Send(src, dst int, key string, delay Time, fn func()) {
	if src < 0 || src >= len(c.shards) || dst < 0 || dst >= len(c.shards) {
		panic(fmt.Sprintf("sim: Send %d->%d outside %d shards", src, dst, len(c.shards)))
	}
	if delay < c.lookahead {
		panic(fmt.Sprintf("sim: Send delay %v below cluster lookahead %v", delay, c.lookahead))
	}
	seq := c.keyseq[src][key]
	c.keyseq[src][key] = seq + 1
	c.outbox[src] = append(c.outbox[src], send{dst: dst, at: c.shards[src].now + delay, key: key, seq: seq, fn: fn})
}

// inject drains every outbox into the destination engines in the merge
// order (at, key, seq). Runs only at barriers, when all workers are
// idle. The engines' insertion order, which breaks their same-time
// ties, is deterministic here because the window sequence and the merge
// order both are.
func (c *Cluster) inject() {
	buf := c.injectBuf[:0]
	for src := range c.outbox {
		buf = append(buf, c.outbox[src]...)
		c.outbox[src] = c.outbox[src][:0]
	}
	if len(buf) == 0 {
		return
	}
	sort.Slice(buf, func(i, j int) bool {
		a, b := buf[i], buf[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	})
	for i := range buf {
		c.shards[buf[i].dst].At(buf[i].at, buf[i].fn)
		buf[i].fn = nil
	}
	c.n.sends += int64(len(buf))
	c.injectBuf = buf[:0]
}

// tick stands every shard at the tick instant — series read shard
// clocks (utilization divides by Now), so no shard may lag behind
// another that happened to host a later event — then samples. No event
// is pending before the tick, so no clock moves backwards.
func (c *Cluster) tick(last bool) {
	c.now = c.smp.next
	for _, sh := range c.shards {
		sh.now = c.now
	}
	c.smp.sample(last)
}

// Run drives the cluster to completion and returns the final virtual
// time, the time of its last event. Each iteration injects staged sends
// and takes the census — T, the global minimum next-event time — then
// runs the window [T, T+L) on every shard with work, in parallel on a
// worker pool. A sampler tick inside the window splits it: every shard
// runs to the tick, the tick samples, and the window goes on. Window
// bounds derive only from global event times and the lookahead, so the
// window sequence — and with it every merge point and census — is
// identical for every shard count, GOMAXPROCS setting and series
// window.
func (c *Cluster) Run() Time {
	if c.running {
		panic("sim: Cluster.Run re-entered")
	}
	c.running = true
	defer func() { c.running = false }()

	n := len(c.shards)
	starts := make([]chan Time, n)
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		i := i
		starts[i] = make(chan Time)
		go func() {
			for w := range starts[i] {
				c.shards[i].runBefore(w)
				done <- struct{}{}
			}
		}()
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()

	// window runs every shard's events before w; a shard with none sits
	// it out.
	busy := make([]bool, n)
	window := func(w Time) {
		nbusy, last := 0, -1
		for i, sh := range c.shards {
			t, ok := sh.nextAt()
			busy[i] = ok && t < w
			if busy[i] {
				nbusy++
				last = i
			}
		}
		switch nbusy {
		case 0:
			return
		case 1:
			// One busy shard: skip the worker-pool round trip. Same
			// execution, same thread confinement (the coordinator is
			// idle while workers run and vice versa).
			c.shards[last].runBefore(w)
		default:
			for i, b := range busy {
				if b {
					starts[i] <- w
				}
			}
			for ; nbusy > 0; nbusy-- {
				<-done
			}
		}
		c.n.windows++
	}

	s := c.smp
	for {
		c.inject()

		// Global minimum next-event time.
		T := Infinity
		any := false
		for _, sh := range c.shards {
			if t, ok := sh.nextAt(); ok && (!any || t < T) {
				T, any = t, true
			}
		}
		if !any {
			break
		}

		c.now = T
		w := T + c.lookahead // saturates past Infinity
		for s.armed() && s.next < w {
			window(s.next)
			if c.Pending() == 0 {
				break // drained: the final tick follows the run
			}
			c.tick(false)
		}
		window(w)
	}

	end := Time(0)
	for _, sh := range c.shards {
		if sh.now > end {
			end = sh.now
		}
	}
	if s.armed() {
		c.tick(true) // drained: the final tick
	}
	// The run ends at the last event, one global instant for every
	// shard: advance the stragglers' clocks, and take back the final
	// tick's, so anything derived from a member engine's Now after the
	// run (utilization gauges divide by it) is independent of which
	// shard happened to host the last event, and of sampling.
	for _, sh := range c.shards {
		sh.now = end
	}
	c.now = end
	return end
}
