package sim

// The pre-rewrite event loop, preserved verbatim in spirit for
// benchmarking and as the dispatch-order oracle: container/heap with
// boxed push/pop, one allocation per scheduled event, lazy deletion with
// no compaction. The Benchmark* pairs in engine_perf_test.go measure the
// rewrite against this baseline (the speedups quoted in EXPERIMENTS.md
// come from these benchmarks), and TestEngineMatchesBoxedReference and
// FuzzEngineOrder check that the engine dispatches in exactly its order,
// so keep the reference faithful. Its RunUntil still moves the clock
// back for a deadline before Now() and it accepts NaN times; the fuzz
// target keeps both off the reference and checks the engine's fixed
// behaviour directly.

import (
	"container/heap"
	"testing"
)

type boxedEvent struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

type boxedQueue []*boxedEvent

func (q boxedQueue) Len() int { return len(q) }
func (q boxedQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q boxedQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *boxedQueue) Push(x any)   { *q = append(*q, x.(*boxedEvent)) }
func (q *boxedQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

type boxedEngine struct {
	now   Time
	seq   uint64
	queue boxedQueue
	live  int
}

func (e *boxedEngine) Schedule(delay Time, fn func()) *boxedEvent {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

func (e *boxedEngine) At(t Time, fn func()) *boxedEvent {
	ev := &boxedEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	e.live++
	return ev
}

func (e *boxedEngine) Cancel(ev *boxedEvent) {
	if ev != nil && !ev.dead {
		ev.dead = true
		e.live--
	}
}

func (e *boxedEngine) RunUntil(deadline Time) Time {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.at > deadline {
			if deadline < Infinity {
				e.now = deadline
			}
			return e.now
		}
		heap.Pop(&e.queue)
		if next.dead {
			continue
		}
		next.dead = true
		e.live--
		e.now = next.at
		next.fn()
	}
	if deadline < Infinity && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

func (e *boxedEngine) Run() Time { return e.RunUntil(Infinity) }

// nextAt is Engine.nextAt: the earliest live time, popping cancelled
// events off the top on the way.
func (e *boxedEngine) nextAt() (Time, bool) {
	for len(e.queue) > 0 {
		if next := e.queue[0]; !next.dead {
			return next.at, true
		}
		heap.Pop(&e.queue)
	}
	return 0, false
}

// BenchmarkBoxedEngineSchedule is BenchmarkEngineSchedule on the old
// engine.
func BenchmarkBoxedEngineSchedule(b *testing.B) {
	e := &boxedEngine{}
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 128; k++ {
			e.Schedule(Time(k%17)*1e-4, fn)
		}
		e.Run()
	}
}

// BenchmarkBoxedEngineCancelHeavy is BenchmarkEngineCancelHeavy on the
// old engine — the leaking case: cancelled far-future timers pile up in
// the heap forever, so per-iteration cost grows with b.N.
func BenchmarkBoxedEngineCancelHeavy(b *testing.B) {
	e := &boxedEngine{}
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		evs := make([]*boxedEvent, 0, 256)
		for k := 0; k < 256; k++ {
			evs = append(evs, e.Schedule(1e3+Time(k), fn))
		}
		for _, ev := range evs {
			e.Cancel(ev)
		}
		e.Schedule(1e-5, fn)
		e.RunUntil(e.Now() + 1e-4)
	}
}

func (e *boxedEngine) Now() Time { return e.now }

// dispatchOrder drives one engine through a seeded storm of tied
// timestamps, nested scheduling, mass cancellation (enough to trigger
// the engine's compaction) and cancels from inside callbacks, and
// returns the order in which event ids fired.
func dispatchOrder(schedule func(Time, func()) (cancel func()), run func()) []int {
	var order []int
	x := uint64(88172645463325252)
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	var cancels []func()
	var spawn func(depth int)
	spawn = func(depth int) {
		id := len(cancels)
		cancels = append(cancels, schedule(Time(rnd(8))*0.5, func() {
			order = append(order, id)
			if depth < 3 {
				for k := rnd(3); k > 0; k-- {
					spawn(depth + 1)
				}
			}
			if rnd(4) == 0 {
				cancels[rnd(len(cancels))]()
			}
		}))
	}
	for i := 0; i < 2000; i++ {
		spawn(0)
	}
	for i := 0; i < 1500; i++ {
		cancels[rnd(len(cancels))]()
	}
	run()
	return order
}

// TestEngineMatchesBoxedReference: the engine's heap, free list and
// compaction must not change which event runs next. Any correct
// (at, seq) priority queue dispatches in the reference's order.
func TestEngineMatchesBoxedReference(t *testing.T) {
	e := NewEngine()
	got := dispatchOrder(func(d Time, fn func()) func() {
		id := e.Schedule(d, fn)
		return func() { e.Cancel(id) }
	}, func() { e.Run() })
	ref := &boxedEngine{}
	want := dispatchOrder(func(d Time, fn func()) func() {
		ev := ref.Schedule(d, fn)
		return func() { ref.Cancel(ev) }
	}, func() { ref.Run() })
	if len(got) < 1000 {
		t.Fatalf("storm dispatched only %d events", len(got))
	}
	if len(got) != len(want) {
		t.Fatalf("engine dispatched %d events, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d: engine ran event %d, reference %d", i, got[i], want[i])
		}
	}
}
