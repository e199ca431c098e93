package sim

import (
	"math"
	"testing"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events dispatched out of insertion order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(1, func() {
		e.Schedule(1, func() {
			hits++
			if e.Now() != 2 {
				t.Errorf("nested event at %v, want 2", e.Now())
			}
		})
	})
	e.Run()
	if hits != 1 {
		t.Fatalf("nested event ran %d times, want 1", hits)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(1, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after run, want 0", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(1, func() { fired = append(fired, 1) })
	e.Schedule(5, func() { fired = append(fired, 5) })
	e.RunUntil(2)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %v, want 2 (clock advanced to deadline)", e.Now())
	}
	e.Run()
	if len(fired) != 2 {
		t.Fatalf("remaining event not dispatched: %v", fired)
	}
}

// TestRunUntilNeverMovesClockBack: a deadline before the clock
// dispatches nothing and leaves the clock where it is, whether or not
// events are pending, so a zero-delay event scheduled next runs at the
// clock, before every later event.
func TestRunUntilNeverMovesClockBack(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	e.Schedule(10, record)
	e.Schedule(20, record)
	e.RunUntil(10)
	if got := e.RunUntil(5); got != 10 || e.Now() != 10 {
		t.Fatalf("RunUntil(5) after RunUntil(10) = %v, Now() = %v; want the clock to stay at 10", got, e.Now())
	}
	e.Schedule(0, record)
	e.Run()
	if want := []Time{10, 10, 20}; len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("events fired at %v, want %v", fired, want)
	}
	if got := e.RunUntil(5); got != 20 {
		t.Fatalf("RunUntil(5) on a drained engine at 20 = %v, want 20", got)
	}
}

// TestEngineRejectsNaNTime: a NaN time orders nowhere, so scheduling at
// one panics like scheduling in the past, and the events after it run
// in time order at real times.
func TestEngineRejectsNaNTime(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := func() { fired = append(fired, e.Now()) }
	for _, schedule := range []func(){
		func() { e.Schedule(Time(math.NaN()), record) },
		func() { e.At(Time(math.NaN()), record) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduling at NaN did not panic")
				}
			}()
			schedule()
		}()
	}
	e.Schedule(3, record)
	e.Schedule(1, record)
	e.Schedule(2, record)
	e.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("events fired at %v, want [1 2 3]", fired)
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At() in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEngineScheduleNegativeDelayClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-1, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{1.5, "1.500s"},
		{0.002, "2.000ms"},
		{0.0000025, "2.500us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestServerSerializesRequests(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	var completions []Time
	for i := 0; i < 3; i++ {
		s.Submit(2, func(at Time) { completions = append(completions, at) })
	}
	e.Run()
	want := []Time{2, 4, 6}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v, want %v", completions, want)
		}
	}
	if s.served != 3 {
		t.Errorf("served = %d, want 3", s.served)
	}
}

func TestServerParallelCapacity(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	var completions []Time
	for i := 0; i < 4; i++ {
		s.Submit(2, func(at Time) { completions = append(completions, at) })
	}
	e.Run()
	// Two in service at once: finish at 2,2,4,4.
	want := []Time{2, 2, 4, 4}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v, want %v", completions, want)
		}
	}
}

func TestServerBusyTimeAndUtilization(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	s.Submit(3, nil)
	e.Run()
	// Idle until we submit more later.
	e.Schedule(7, func() { s.Submit(2, nil) }) // busy 10..12
	e.Run()
	if got := s.BusyTime(); got != 5 {
		t.Fatalf("BusyTime() = %v, want 5", got)
	}
	u := s.Utilization()
	if u < 0.41 || u > 0.42 {
		t.Fatalf("Utilization() = %v, want ~5/12", u)
	}
}

func TestBarrier(t *testing.T) {
	e := NewEngine()
	var doneAt Time = -1
	b := NewBarrier(e, 3, func(at Time) { doneAt = at })
	e.Schedule(1, b.Arrive)
	e.Schedule(2, b.Arrive)
	e.Schedule(9, b.Arrive)
	e.Run()
	if doneAt != 9 {
		t.Fatalf("barrier completed at %v, want 9 (last arrival)", doneAt)
	}
	if b.got != b.need {
		t.Fatalf("%d of %d arrivals after completion", b.got, b.need)
	}
}

func TestBarrierOverArrivalPanics(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 1, nil)
	b.Arrive()
	defer func() {
		if recover() == nil {
			t.Fatal("extra Arrive did not panic")
		}
	}()
	b.Arrive()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		s := NewServer(e, 1)
		var out []Time
		for i := 0; i < 50; i++ {
			d := Time(i%7) * 0.1
			e.Schedule(d, func() {
				s.Submit(0.05, func(at Time) { out = append(out, at) })
			})
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
