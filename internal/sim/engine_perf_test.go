package sim

import (
	"fmt"
	"testing"
)

// TestCancelCompactionBoundsQueue is the regression test for the lazy-
// deletion leak: cancel-heavy workloads (incast retransmission timers)
// used to leave every corpse in the heap until the clock reached it, so
// the queue grew without bound. With compaction the heap never holds
// more than about twice the live events (plus the small compaction
// floor).
func TestCancelCompactionBoundsQueue(t *testing.T) {
	e := NewEngine()
	const n = 20000
	ids := make([]EventID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, e.Schedule(Time(1+i%97), func() {}))
	}
	// Cancel all but every 200th event.
	live := 0
	for i, id := range ids {
		if i%200 == 0 {
			live++
			continue
		}
		e.Cancel(id)
	}
	if got := e.Pending(); got != live {
		t.Fatalf("Pending() = %d, want %d", got, live)
	}
	if max := 2*live + compactMinDead + 1; e.QueueLen() > max {
		t.Fatalf("QueueLen() = %d after mass cancel, want <= %d (leak regression)", e.QueueLen(), max)
	}
	// Compaction must not reorder the survivors.
	var order []Time
	e2 := NewEngine()
	survivors := 0
	for i := 0; i < 2000; i++ {
		at := Time(1 + (i*37)%4999)
		id := e2.At(at, func() { order = append(order, at) })
		if i%40 != 0 {
			e2.Cancel(id)
		} else {
			survivors++
		}
	}
	e2.Run()
	if len(order) != survivors {
		t.Fatalf("dispatched %d survivors, want %d", len(order), survivors)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("out-of-order dispatch after compaction at %d: %v then %v", i, order[i-1], order[i])
		}
	}
}

// TestCancelAfterRecycleIsInert: an EventID whose event struct has been
// recycled into a new scheduling must not cancel the new occupant (the
// free-list ABA hazard the generation counter exists for).
func TestCancelAfterRecycleIsInert(t *testing.T) {
	e := NewEngine()
	id := e.Schedule(1, func() {})
	e.Run() // dispatches and recycles the struct
	fired := false
	e.Schedule(1, func() { fired = true }) // reuses the freed struct
	e.Cancel(id)                           // stale ID, must be a no-op
	e.Run()
	if !fired {
		t.Fatal("stale EventID cancelled a recycled event")
	}
}

// TestEngineScheduleSteadyStateAllocs pins the free-list contract: once
// warm, scheduling and dispatching allocates nothing.
func TestEngineScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	h := &countHandler{}
	warm := func() {
		for i := 0; i < 512; i++ {
			e.Schedule(Time(i%13)*1e-4, fn)
			e.ScheduleHandler(Time(i%7)*1e-4, h)
		}
		e.Run()
	}
	warm()
	if avg := testing.AllocsPerRun(20, warm); avg != 0 {
		t.Fatalf("steady-state schedule+run allocates %.1f times per cycle, want 0", avg)
	}
	if h.n != 22*512 { // the warm-up, AllocsPerRun's own warm-up, and 20 runs
		t.Fatalf("handler ran %d times, want %d", h.n, 22*512)
	}
}

// countHandler is a Handler that counts its dispatches.
type countHandler struct{ n int }

func (h *countHandler) Handle() { h.n++ }

// BenchmarkEngineSchedule measures the hot path: schedule a batch of
// out-of-order events and drain them. Compare with
// BenchmarkBoxedEngineSchedule (the pre-rewrite container/heap engine
// preserved in engine_reference_test.go).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 128; k++ {
			e.Schedule(Time(k%17)*1e-4, fn)
		}
		e.Run()
	}
}

// BenchmarkEngineCancelHeavy models retransmission-timer churn: every
// scheduled timer is cancelled before it can fire, while a sparse
// stream of real events keeps the clock moving. The old engine never
// reclaimed the corpses.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ids := make([]EventID, 0, 256)
		for k := 0; k < 256; k++ {
			ids = append(ids, e.Schedule(1e3+Time(k), fn)) // far-future timers
		}
		for _, id := range ids {
			e.Cancel(id)
		}
		e.Schedule(1e-5, fn)
		e.RunUntil(e.Now() + 1e-4)
	}
}

// TestServerSteadyStateAllocs pins the request free list: once warm, a
// Submit→finish cycle allocates nothing — neither the request nor its
// completion closure — whether the request starts at once or queues,
// and whether it completes through a func(Time) or a Handler.
func TestServerSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	done := func(Time) {}
	h := &countHandler{}
	const submits = 8
	cycle := func() {
		for i := 0; i < submits; i++ {
			if i%2 == 0 {
				s.Submit(Time(1+i%3)*1e-4, done)
			} else {
				s.SubmitHandler(Time(1+i%3)*1e-4, h)
			}
		}
		e.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle) / submits; avg != 0 {
		t.Fatalf("steady-state Submit allocates %.2f times per request, want 0", avg)
	}
	if h.n != 22*submits/2 {
		t.Fatalf("handler completions = %d, want %d", h.n, 22*submits/2)
	}
}

// TestServerResubmitFromDoneReusesRequest: finish recycles a request
// before its done runs, so a done that re-submits gets the same struct
// back. The re-submission must carry its own service time and callback,
// and the queue must be untouched: a done runs before the next waiter is
// admitted, so the re-submission takes the slot its predecessor freed
// and the waiters then follow in arrival order.
func TestServerResubmitFromDoneReusesRequest(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	type completion struct {
		name string
		at   Time
	}
	var got []completion
	record := func(name string) func(Time) {
		return func(at Time) { got = append(got, completion{name, at}) }
	}
	s.Submit(1, func(at Time) {
		record("a")(at)
		s.Submit(0.25, record("d"))
	})
	s.Submit(2, record("b"))
	s.Submit(3, record("c"))
	e.Run()
	want := []completion{{"a", 1}, {"d", 1.25}, {"b", 3.25}, {"c", 6.25}}
	if len(got) != len(want) {
		t.Fatalf("completions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completions = %v, want %v", got, want)
		}
	}
	if s.started != 4 || s.QueueLen() != 0 {
		t.Fatalf("started = %d, QueueLen() = %d, want 4, 0", s.started, s.QueueLen())
	}
}

// BenchmarkEngineDeepHeap is the hold model at two depths: 2048 pending
// events, about the mean depth at push of the sim_scale_2shard
// benchmark workload, and 64k, one shard carrying a whole rebuild-figure
// population. Each dispatch reschedules itself at a pseudo-random
// future time, so every operation is a pop and a push on a queue that
// stays at its depth. An op is one dispatched event.
func BenchmarkEngineDeepHeap(b *testing.B) {
	for _, depth := range []int{2048, 1 << 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchHold(b, depth) })
	}
}

func benchHold(b *testing.B, depth int) {
	e := NewEngine()
	x := uint64(88172645463325252)
	delay := func() Time { // xorshift64: uniform in [0, 2), mean 1
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return Time(x>>11) / (1 << 52)
	}
	var hold func()
	hold = func() { e.Schedule(delay(), hold) }
	for i := 0; i < depth; i++ {
		e.Schedule(delay(), hold)
	}
	// Warm up: run one mean delay so the free list and queue settle.
	e.RunUntil(1)
	start := e.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for e.Steps()-start < uint64(b.N) {
		e.RunUntil(e.Now() + 64/Time(depth))
	}
}
