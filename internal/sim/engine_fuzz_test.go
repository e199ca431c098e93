package sim

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// A FuzzEngineOrder program is a run of 4-byte ops: an opcode and three
// argument bytes. Each op runs on the engine and on the boxed reference
// (engine_reference_test.go) in lockstep.
const (
	opSchedule   = iota // Schedule at delay(a, b); c drives nested schedules
	opAtNow             // At(Now()), or At(-0) at time 0: a tie at the clock
	opBurst             // a%64+1 events at delay(b, c), tied or stepped
	opCancel            // cancel handle a<<8|b, which may be live or stale
	opCancelZero        // cancel the zero EventID
	opMassCancel        // cancel every (b%8+1)th handle from a
	opRunUntil          // RunUntil(Now() + delay(a, b)), negative delays as 0
	opRunBack           // RunUntil before Now(): must do nothing
	opRun               // Run()
	opNaN               // Schedule(NaN): must panic
	opNextAt            // nextAt(), which sweeps cancelled events
	numOrderOps

	maxOrderOps = 128
)

// orderOps builds FuzzEngineOrder inputs.
type orderOps []byte

func (o orderOps) op(code int, a, b, c byte) orderOps { return append(o, byte(code), a, b, c) }

// orderDelay decodes a delay. Class 0 gives ties and zero delays, class
// 1 whole seconds, class 2 one value in each of 16 binades from 2^-48 to
// 2^42 (or +Inf), class 3 -0 and negative delays, which clamp to zero.
func orderDelay(class, v byte) Time {
	switch class % 4 {
	case 0:
		return Time(v % 4)
	case 1:
		return Time(v)
	case 2:
		if v == 255 {
			return Time(math.Inf(1))
		}
		return Time(math.Ldexp(1+float64(v&15)/16, int(v>>4)*6-48))
	default:
		if v%2 == 0 {
			return Time(math.Copysign(0, -1))
		}
		return -Time(v)
	}
}

// orderSim is one side of the lockstep run.
type orderSim interface {
	now() Time
	at(t Time, fn func()) (cancel func())
	schedule(d Time, fn func()) (cancel func())
	cancelZero()
	runUntil(d Time)
	nextAt() (Time, bool)
}

type engineSim struct{ e *Engine }

func (s engineSim) now() Time { return s.e.Now() }
func (s engineSim) at(t Time, fn func()) func() {
	id := s.e.At(t, fn)
	return func() { s.e.Cancel(id) }
}
func (s engineSim) schedule(d Time, fn func()) func() {
	id := s.e.Schedule(d, fn)
	return func() { s.e.Cancel(id) }
}
func (s engineSim) cancelZero()          { s.e.Cancel(EventID{}) }
func (s engineSim) runUntil(d Time)      { s.e.RunUntil(d) }
func (s engineSim) nextAt() (Time, bool) { return s.e.nextAt() }

type boxedSim struct{ e *boxedEngine }

func (s boxedSim) now() Time { return s.e.Now() }
func (s boxedSim) at(t Time, fn func()) func() {
	ev := s.e.At(t, fn)
	return func() { s.e.Cancel(ev) }
}
func (s boxedSim) schedule(d Time, fn func()) func() {
	ev := s.e.Schedule(d, fn)
	return func() { s.e.Cancel(ev) }
}
func (s boxedSim) cancelZero()          { s.e.Cancel(nil) }
func (s boxedSim) runUntil(d Time)      { s.e.RunUntil(d) }
func (s boxedSim) nextAt() (Time, bool) { return s.e.nextAt() }

// orderRun is one side's program state: a cancel per scheduled event,
// by event number, and the event numbers in dispatch order.
type orderRun struct {
	sim     orderSim
	cancels []func()
	order   []int
}

// spawn schedules the next event number at delay d. When it fires it
// records itself, schedules nest&3 children (which nest by nest>>3), and
// with nest&4 cancels an earlier event, live or not.
func (r *orderRun) spawn(d Time, nest byte) {
	id := len(r.cancels)
	r.cancels = append(r.cancels, r.sim.schedule(d, func() {
		r.order = append(r.order, id)
		for k := 0; k < int(nest&3); k++ {
			r.spawn(d/Time(2+k), nest>>3)
		}
		if nest&4 != 0 {
			r.cancels[(id*7+3)%len(r.cancels)]()
		}
	}))
}

// apply runs one op; ref says whether r is the reference side, which
// skips the ops whose only correct engine outcome is a panic or no
// effect at all. For the engine side it reports whether an op that
// must panic did.
func (r *orderRun) apply(code, a, b, c byte, ref bool) (panicked bool) {
	switch int(code) % numOrderOps {
	case opSchedule:
		r.spawn(orderDelay(a, b), c)
	case opAtNow:
		t := r.sim.now()
		if t == 0 {
			t = Time(math.Copysign(0, -1))
		}
		id := len(r.cancels)
		r.cancels = append(r.cancels, r.sim.at(t, func() { r.order = append(r.order, id) }))
	case opBurst:
		d := orderDelay(b, c)
		for k := 0; k < int(a%64)+1; k++ {
			if a&64 != 0 {
				r.spawn(d*Time(1+k%5), 0)
			} else {
				r.spawn(d, 0)
			}
		}
	case opCancel:
		if len(r.cancels) > 0 {
			r.cancels[(int(a)<<8|int(b))%len(r.cancels)]()
		}
	case opCancelZero:
		r.sim.cancelZero()
	case opMassCancel:
		for i := int(a); i < len(r.cancels); i += int(b%8) + 1 {
			r.cancels[i]()
		}
	case opRunUntil:
		d := orderDelay(a, b)
		if d < 0 {
			d = 0
		}
		r.sim.runUntil(r.sim.now() + d)
	case opRunBack:
		if d := r.sim.now() - Time(a) - 1; d < r.sim.now() && !ref {
			r.sim.runUntil(d) // not at an infinite clock, where d is no earlier
		}
	case opRun:
		r.sim.runUntil(Infinity)
	case opNaN:
		if !ref {
			func() {
				defer func() { panicked = recover() != nil }()
				r.sim.schedule(Time(math.NaN()), func() {})
			}()
		}
	case opNextAt:
		r.sim.nextAt()
	}
	return panicked
}

// FuzzEngineOrder runs a decoded program of schedules (tied, zero, -0,
// negative and across many binades, nested from callbacks), cancels
// (live, stale, zero, and mass cancels past the compaction threshold),
// RunUntil deadlines that stop between events, and cancelled-event
// sweeps, on the engine and on the container/heap reference. After
// every op both must have dispatched the same events in the same order
// and read the same clock, and the engine's counters must close:
// scheduled = dispatched + cancelled + pending. A deadline before the
// clock must not move it, and a NaN time must panic.
func FuzzEngineOrder(f *testing.F) {
	// testdata/fuzz/FuzzEngineOrder adds the two clock bugs: a deadline
	// before the clock moving it back (events at 10 and 20, RunUntil(10),
	// RunUntil(5), then a zero delay), and a NaN time accepted and
	// dispatched first (NaN, then 3, 1 and 2).
	for _, seed := range []orderOps{
		// -0 at time 0 ties with +0.
		orderOps{}.op(opAtNow, 0, 0, 0).op(opSchedule, 3, 0, 0).op(opSchedule, 0, 0, 0).
			op(opAtNow, 0, 0, 0).op(opRun, 0, 0, 0).op(opAtNow, 0, 0, 0).op(opRun, 0, 0, 0),
		// Schedules into the gap a deadline leaves before the next event.
		orderOps{}.op(opSchedule, 1, 10, 0).op(opSchedule, 1, 20, 0).op(opRunUntil, 1, 15, 0).
			op(opSchedule, 2, 0x51, 0).op(opSchedule, 0, 3, 0).op(opSchedule, 1, 4, 0).
			op(opRunUntil, 2, 0x80, 0).op(opSchedule, 0, 0, 0).op(opRun, 0, 0, 0),
		// A mass cancel past the compaction threshold, then stale cancels.
		orderOps{}.op(opBurst, 63, 1, 50).op(opBurst, 64+40, 2, 0x7a).op(opSchedule, 1, 7, 0x1b).
			op(opMassCancel, 0, 0, 0).op(opCancel, 0, 3, 0).op(opCancelZero, 0, 0, 0).
			op(opRun, 0, 0, 0).op(opCancel, 0, 90, 0).op(opBurst, 10, 0, 1).op(opRun, 0, 0, 0),
		// A sweep of cancelled events carries the queue past the clock,
		// then schedules land between the two.
		orderOps{}.op(opSchedule, 1, 5, 0).op(opBurst, 20, 1, 6).op(opBurst, 8, 2, 0x9c).
			op(opCancel, 0, 0, 0).op(opNextAt, 0, 0, 0).op(opSchedule, 1, 1, 0).
			op(opSchedule, 2, 0x93, 0).op(opAtNow, 0, 0, 0).op(opRun, 0, 0, 0).
			op(opSchedule, 1, 2, 0).op(opSchedule, 1, 9, 0).op(opCancel, 0, 0x21, 0).
			op(opRun, 0, 0, 0).op(opSchedule, 0, 1, 0).op(opRun, 0, 0, 0),
		// A compaction that keeps part of the front, empties one bucket
		// and shortens another over a chunk boundary, then a tie run over
		// one chunk.
		orderOps{}.op(opBurst, 39, 0, 0).op(opBurst, 39, 2, 0x1f).op(opBurst, 63, 0, 2).
			op(opMassCancel, 20, 0, 0).op(opRun, 0, 0, 0),
		// A deadline stops inside a sorted front, and a compaction keeps
		// part of it.
		orderOps{}.op(opBurst, 9, 2, 0x84).op(opBurst, 9, 2, 0x88).op(opSchedule, 2, 0x80, 0).
			op(opRunUntil, 2, 0x80, 0).op(opBurst, 63, 1, 9).op(opMassCancel, 5, 0, 0).op(opRun, 0, 0, 0),
		// The same, with the whole front cancelled.
		orderOps{}.op(opBurst, 9, 2, 0x84).op(opBurst, 9, 2, 0x88).op(opSchedule, 2, 0x80, 0).
			op(opRunUntil, 2, 0x80, 0).op(opBurst, 63, 1, 9).op(opMassCancel, 0, 0, 0).op(opRun, 0, 0, 0),
		// A front over a chunk long, ties with its last key, then two
		// later keys pushed in descending order into one bucket.
		orderOps{}.op(opBurst, 39, 0, 1).op(opSchedule, 1, 3, 0).op(opSchedule, 1, 2, 0).op(opRun, 0, 0, 0),
		// A sweep of a cancelled event carries last to 250 with the clock
		// at 0; pushes below it fill the front until one lowers last.
		orderOps{}.op(opSchedule, 1, 100, 0).op(opSchedule, 1, 200, 0).op(opSchedule, 1, 201, 0).
			op(opSchedule, 1, 250, 0).op(opCancel, 0, 0, 0).op(opNextAt, 0, 0, 0).
			op(opSchedule, 1, 251, 0).op(opSchedule, 1, 255, 0).
			op(opBurst, 63, 1, 4).op(opBurst, 63, 1, 3).op(opBurst, 63, 1, 2).op(opBurst, 63, 1, 1).
			op(opBurst, 7, 1, 5).op(opRunUntil, 1, 2, 0).op(opBurst, 63+64, 0, 1).op(opRun, 0, 0, 0),
		// Nested schedules and cancels from callbacks.
		orderOps{}.op(opSchedule, 0, 1, 0xff).op(opSchedule, 0, 1, 0x5e).op(opSchedule, 2, 0x37, 0x9f).
			op(opRunUntil, 0, 1, 0).op(opSchedule, 0, 2, 0x0d).op(opRun, 0, 0, 0),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		reg := obs.NewRegistry()
		e := NewEngine()
		e.Instrument(reg, nil)
		eng := &orderRun{sim: engineSim{e}}
		ref := &orderRun{sim: boxedSim{&boxedEngine{}}}
		for step := 0; len(ops) > 0 && step < maxOrderOps; step++ {
			var w [4]byte
			ops = ops[copy(w[:], ops):]
			panicked := eng.apply(w[0], w[1], w[2], w[3], false)
			ref.apply(w[0], w[1], w[2], w[3], true)
			if int(w[0])%numOrderOps == opNaN && !panicked {
				t.Fatalf("op %d: scheduling at NaN did not panic", step)
			}
			if len(eng.order) != len(ref.order) {
				t.Fatalf("op %d (%d): engine dispatched %d events, reference %d", step, w[0]%numOrderOps, len(eng.order), len(ref.order))
			}
			for i := range ref.order {
				if eng.order[i] != ref.order[i] {
					t.Fatalf("op %d (%d): dispatch %d is event %d, reference %d", step, w[0]%numOrderOps, i, eng.order[i], ref.order[i])
				}
			}
			if eng.sim.now() != ref.sim.now() {
				t.Fatalf("op %d (%d): Now() = %v, reference %v", step, w[0]%numOrderOps, eng.sim.now(), ref.sim.now())
			}
			if s, d, c, p := e.n.scheduled, e.n.dispatched, e.n.cancelled, uint64(e.Pending()); s != d+c+p {
				t.Fatalf("op %d (%d): scheduled %d != dispatched %d + cancelled %d + pending %d", step, w[0]%numOrderOps, s, d, c, p)
			}
		}
		// The snapshot publishes the same three tallies.
		got := reg.Snapshot().Counters
		for name, want := range map[string]uint64{
			"sim.events_scheduled":  e.n.scheduled,
			"sim.events_dispatched": e.n.dispatched,
			"sim.events_cancelled":  e.n.cancelled,
		} {
			if got[name] != int64(want) {
				t.Fatalf("snapshot %s = %d, engine tally %d", name, got[name], want)
			}
		}
	})
}
