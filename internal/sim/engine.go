// Package sim provides a deterministic discrete-event simulation kernel
// shared by every substrate in this repository: the parallel file system
// model, the disk and flash device models, the TCP incast simulator, the
// Argon scheduler, and the failure-trace generator.
//
// The kernel is a classic event-list engine: a virtual clock, a priority
// queue of timestamped continuations (Handler, or a func() adapted to
// one), and a handful of composable pieces layered on top — FIFO
// servers with bounded concurrency (Server), completion barriers
// (Barrier), a seedable crash/recovery schedule (FaultPlan) that
// subsystems consume through the FaultSink interface, and a
// conservative-lookahead shard coordinator (Cluster) that runs several
// engines as one simulation, and one sampler (sampler.go) that records
// the functions models register with Engine.Series on a grid of
// simulated time, between events rather than as events. Determinism is
// guaranteed by (a) a stable tie-break on event insertion order and (b)
// explicit seeding of every random source, so a simulation re-run with
// the same seed reproduces the same trajectory bit for bit.
package sim

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Time is simulated time in seconds. Using a float64 keeps device models
// (which naturally work in fractional milliseconds) simple; determinism is
// unaffected because all arithmetic is itself deterministic.
type Time float64

// Infinity is a time later than any event the engine will ever dispatch.
const Infinity = Time(math.MaxFloat64)

func (t Time) String() string {
	switch {
	case t >= 1:
		return fmt.Sprintf("%.3fs", float64(t))
	case t >= 1e-3:
		return fmt.Sprintf("%.3fms", float64(t)*1e3)
	default:
		return fmt.Sprintf("%.3fus", float64(t)*1e6)
	}
}

// Handler is an event continuation: Handle runs when the event it was
// scheduled for fires. A model object that steps through many events —
// a pfs write piece, a rebuild chain — implements it on one pooled
// struct and re-arms itself, so a warm path schedules each stage without
// allocating a closure. One-shot callbacks use At/Schedule, which adapt
// their func() through HandlerFunc.
type Handler interface{ Handle() }

// HandlerFunc adapts an ordinary function to Handler. A func value is a
// single pointer, so the conversion allocates nothing.
type HandlerFunc func()

// Handle calls f.
func (f HandlerFunc) Handle() { f() }

// An event is a continuation scheduled on the engine's queue. Events
// live in the engine's arena and the queue holds only their index and
// timestamp (heap.go). gen distinguishes incarnations of a recycled
// arena entry: the engine keeps dispatched and cancelled entries on a
// free list, and gen is bumped on every recycle so a stale EventID held
// by the model can never cancel the entry's next occupant.
type event struct {
	h    Handler
	dead bool
	gen  uint32
}

// EventID identifies a scheduled event so it can be cancelled (e.g. a TCP
// retransmission timer that is disarmed when the ACK arrives). The zero
// EventID is valid and cancels nothing.
type EventID struct {
	i   uint32 // arena index + 1; 0 in the zero EventID
	gen uint32
}

// compactMinDead is the floor below which cancelled events are left in
// the queue: tiny queues are cheaper to pop through than to filter.
const compactMinDead = 32

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; model concurrency is expressed as interleaved events, not
// goroutines, which is what makes runs reproducible. (A Cluster runs
// several engines on a worker pool, but each engine is still only ever
// touched by one goroutine at a time.)
type Engine struct {
	now    Time
	queue  radixQueue
	events []event  // arena of scheduled events, indexed by the queue
	free   []uint32 // recycled arena indices, reused by At
	dead   int      // cancelled events still occupying queue slots
	live   int      // scheduled, not yet dispatched or cancelled
	depth  int      // high-water mark of queue length
	n      *engineTally

	// Observability. Both are nil until Instrument is called; every probe
	// site is nil-safe, so an uninstrumented engine pays one branch.
	metrics *obs.Registry
	tracer  *obs.Tracer

	// smp samples the engine's series (sampler.go): the engine's own, or
	// on a Cluster shard the cluster's, so every shard ticks on one grid.
	smp *sampler
}

// engineTally is the engine's event counts. Every event scheduled is
// dispatched, cancelled or still pending, so scheduled = dispatched +
// cancelled + Pending(). It is allocated apart from the engine: the
// registry's functions read it after the run, and because they capture
// only the tally, a finished engine's arena and queue are freed. The
// padding gives each tally two cache lines of its own: a Cluster's
// shards count from parallel workers, and tallies sharing a line would
// move it between cores on every event.
type engineTally struct {
	scheduled, dispatched, cancelled uint64
	_                                [128 - 3*8]byte
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{n: new(engineTally), smp: new(sampler)} }

// Instrument attaches a metrics registry and/or tracer (either may be
// nil). Resources created afterwards (Servers, file systems) pick the
// probe up from the engine, so call this before building the model.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.tracer = tr
	e.instrument(reg)
	reg.GaugeFunc("sim.queue_depth_max", func() float64 { return float64(e.depth) })
	reg.GaugeFunc("sim.pending", func() float64 { return float64(e.live) })
	reg.GaugeFunc("sim.now_s", func() float64 { return float64(e.now) })
	e.Series("sim.events.pending", func() float64 { return float64(e.live) })
}

// instrument attaches the registry and the event counters but not the
// tracer, the whole-simulation gauges, or the pending-events series. It
// is the member-engine half of Instrument: a Cluster instruments each
// shard this way and registers cluster-wide aggregates itself, so a
// snapshot carries one "sim.pending" gauge regardless of shard count and
// each event counter sums the shards' tallies.
func (e *Engine) instrument(reg *obs.Registry) {
	e.metrics = reg
	if reg == nil {
		return
	}
	n := e.n
	reg.CounterFunc("sim.events_dispatched", func() int64 { return int64(n.dispatched) })
	reg.CounterFunc("sim.events_scheduled", func() int64 { return int64(n.scheduled) })
	reg.CounterFunc("sim.events_cancelled", func() int64 { return int64(n.cancelled) })
}

// Metrics returns the attached registry (nil when uninstrumented). A nil
// registry hands out nil instruments, which are valid no-ops.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Tracer returns the attached tracer (nil when uninstrumented).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events dispatched so far.
func (e *Engine) Steps() uint64 { return e.n.dispatched }

// Schedule runs fn after delay. A negative delay is treated as zero.
func (e *Engine) Schedule(delay Time, fn func()) EventID {
	return e.ScheduleHandler(delay, HandlerFunc(fn))
}

// At runs fn at absolute time t. Scheduling in the past is an error in the
// model, so it panics rather than silently reordering history.
func (e *Engine) At(t Time, fn func()) EventID {
	return e.AtHandler(t, HandlerFunc(fn))
}

// ScheduleHandler is Schedule for a Handler: h.Handle runs after delay.
func (e *Engine) ScheduleHandler(delay Time, h Handler) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.AtHandler(e.now+delay, h)
}

// AtHandler is At for a Handler: h.Handle runs at absolute time t. It is
// the one scheduling path; At and Schedule are adapters over it. A NaN
// time panics like a past one: it would order nowhere.
func (e *Engine) AtHandler(t Time, h Handler) EventID {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var i uint32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
		e.events[i].h, e.events[i].dead = h, false
	} else {
		i = uint32(len(e.events))
		e.events = append(e.events, event{h: h})
	}
	e.queue.push(timeKey(t), i)
	e.live++
	if e.queue.len() > e.depth {
		e.depth = e.queue.len()
	}
	e.n.scheduled++
	return EventID{i: i + 1, gen: e.events[i].gen}
}

// recycle returns a dispatched or cancelled arena entry to the free
// list. The generation bump invalidates every EventID pointing at it,
// and dropping the handler releases what it references immediately.
func (e *Engine) recycle(i uint32) {
	ev := &e.events[i]
	ev.h = nil
	ev.gen++
	e.free = append(e.free, i)
}

// Cancel disarms a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(id EventID) {
	if id.i == 0 {
		return
	}
	ev := &e.events[id.i-1]
	if ev.dead || ev.gen != id.gen {
		return
	}
	ev.dead = true
	e.dead++
	e.live--
	e.n.cancelled++
	// Lazy deletion leaves the corpse in the queue until it reaches the
	// front. Cancel-heavy models (incast retransmission timers, lease
	// guards) can cancel far faster than the clock drains corpses, so
	// once the majority of the queue is dead we compact: filter the front
	// and every bucket in place, in order. The dispatch order is
	// untouched, so the trajectory is identical.
	if e.dead > compactMinDead && e.dead*2 > e.queue.len() {
		e.compact()
	}
}

func (e *Engine) compact() {
	e.queue.filter(func(i uint32) bool {
		if e.events[i].dead {
			e.recycle(i)
			return true
		}
		return false
	})
	e.dead = 0
}

// Run dispatches events until the queue is empty and returns the final
// virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Infinity) }

// RunUntil dispatches events with timestamps <= deadline. The clock is left
// at the timestamp of the last dispatched event, or at deadline if that is
// finite and later. The clock never moves backwards: a deadline before
// Now() dispatches nothing and leaves the clock where it is.
//
// A sampled engine runs the cluster's window loop on one shard: the
// events before the next tick, then the tick, for every tick at or
// before deadline; the tick after the engine drains is the final one.
// An unsampled engine, or one past its last tick, dispatches in one
// pass.
func (e *Engine) RunUntil(deadline Time) Time {
	for s := e.smp; s.armed() && s.next <= deadline; {
		e.runBefore(s.next)
		now := e.now
		e.now = s.next
		s.sample(e.live == 0)
		e.now = now
	}
	for e.queue.len() > 0 {
		at := e.queue.peek().time()
		if at > deadline {
			break
		}
		e.step(e.queue.pop(), at)
	}
	if deadline < Infinity && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// runBefore dispatches events with timestamps strictly before w and
// leaves the clock at the last dispatched event. It is one window of a
// sampled run or of a Cluster shard: exclusive of w, so events at the
// window bound run after the tick there, and after cross-shard arrivals
// (which are always >= w) have been merged in.
func (e *Engine) runBefore(w Time) {
	for e.queue.len() > 0 {
		at := e.queue.peek().time()
		if at >= w {
			return
		}
		e.step(e.queue.pop(), at)
	}
}

// step dispatches the slot just popped at time at, or recycles it if its
// event was cancelled.
func (e *Engine) step(x slot, at Time) {
	ev := &e.events[x.ev]
	if ev.dead {
		e.dead--
		e.recycle(x.ev)
		return
	}
	// Marking the event dead makes a late Cancel of a fired event a
	// no-op and keeps the live count exact; recycling before the call
	// lets the handler's own scheduling reuse the entry (the generation
	// bump keeps the old EventID inert).
	ev.dead = true
	e.live--
	e.now = at
	e.n.dispatched++
	h := ev.h
	e.recycle(x.ev)
	h.Handle()
}

// nextAt returns the timestamp of the earliest live event, sweeping any
// dead corpses off the front of the queue on the way.
func (e *Engine) nextAt() (Time, bool) {
	for e.queue.len() > 0 {
		next := e.queue.peek()
		if !e.events[next.ev].dead {
			return next.time(), true
		}
		e.queue.pop()
		e.dead--
		e.recycle(next.ev)
	}
	return 0, false
}

// Pending reports the number of live events still queued. It is O(1):
// the engine maintains a live-event count decremented on cancel and
// dispatch instead of scanning the queue.
func (e *Engine) Pending() int { return e.live }

// QueueLen reports occupied queue slots, live or dead. It exceeds
// Pending() by exactly the cancelled events not yet compacted or popped,
// which is what the compaction regression test pins down.
func (e *Engine) QueueLen() int { return e.queue.len() }
