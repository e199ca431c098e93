package sim

import (
	"testing"

	"repro/internal/obs"
)

// sampledEngine returns an instrumented engine whose registry records
// series on a grid of the given window.
func sampledEngine(window float64) (*Engine, *obs.Registry) {
	reg := obs.NewRegistry()
	reg.EnableTimeSeries(window)
	e := NewEngine()
	e.Instrument(reg, nil)
	return e, reg
}

// tickTimes registers a series that records the engine's clock at each
// tick, as a model's series reads its clock.
func tickTimes(e *Engine, name string) *[]Time {
	var at []Time
	e.Series(name, func() float64 {
		at = append(at, e.Now())
		return float64(e.Now())
	})
	return &at
}

func equalTimes(got, want []Time) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestSampleCadenceAndTermination(t *testing.T) {
	e, _ := sampledEngine(1)
	at := tickTimes(e, "test.tick.at")
	// A model event keeps the engine alive past several ticks; one final
	// tick follows it, and the run ends at the event, not at that tick.
	e.Schedule(3.5, func() {})
	end := e.Run()
	if want := []Time{1, 2, 3, 4}; !equalTimes(*at, want) {
		t.Fatalf("sampled at %v, want %v", *at, want)
	}
	if end != 3.5 || e.Now() != 3.5 {
		t.Fatalf("Run ended at %v (clock %v), want 3.5: the last event, not the final tick", end, e.Now())
	}
	if e.smp.series != nil {
		t.Fatal("the sampler still holds its functions after the final tick")
	}
}

// TestSampleTicksFileUnderTheirOwnWindow: tick k is filed in window k,
// one row each, with no gap and no overwrite. At a 0.05 s and a 0.1 s
// window alike, the accumulated times of ticks 6 to 12 fall just below
// their grid points; filed by division, each lands one window early,
// over the tick before it, and window 12 stays empty.
func TestSampleTicksFileUnderTheirOwnWindow(t *testing.T) {
	for _, window := range []float64{0.05, 0.1} {
		e, reg := sampledEngine(window)
		ticks := 0
		e.Series("test.tick.count", func() float64 { ticks++; return float64(ticks) })
		e.Schedule(Time(19.5*window), func() {}) // 19 ticks before it, the final one after
		e.Run()
		s := reg.Snapshot().Series["test.tick.count"]
		if ticks != 20 || len(s.Values) != 20 {
			t.Fatalf("window %v: %d ticks filed in %d rows, want 20 in 20", window, ticks, len(s.Values))
		}
		for i, v := range s.Values {
			if k := i + 1; v != float64(k) || s.Times[i] != float64(k)*window {
				t.Fatalf("window %v: row %d holds tick %v at t=%v, want tick %d at %v",
					window, i, v, s.Times[i], k, float64(k)*window)
			}
		}
	}
}

// TestSampleLaterCallsJoinCadence: every series shares one grid, at the
// registry's window, including one registered by an event mid-run.
func TestSampleLaterCallsJoinCadence(t *testing.T) {
	e, _ := sampledEngine(2)
	a := tickTimes(e, "test.alpha.at")
	var b *[]Time
	e.Schedule(1, func() { b = tickTimes(e, "test.beta.at") })
	e.Schedule(5, func() {})
	e.Run()
	if want := []Time{2, 4, 6}; !equalTimes(*a, want) || !equalTimes(*b, want) {
		t.Fatalf("a sampled at %v, b at %v, want both %v", *a, *b, want)
	}
}

func TestSampleNoOpCases(t *testing.T) {
	// Series off: nothing is sampled and the run is the plain one.
	reg := obs.NewRegistry()
	e := NewEngine()
	e.Instrument(reg, nil)
	e.Series("test.never.at", func() float64 { t.Fatal("sampled with series off"); return 0 })
	// An uninstrumented engine has no registry to record into.
	bare := NewEngine()
	bare.Series("test.bare.at", func() float64 { t.Fatal("sampled without a registry"); return 0 })
	// A nil function arms nothing.
	on, _ := sampledEngine(1)
	on.Series("test.nil.at", nil)
	for _, eng := range []*Engine{e, bare} {
		eng.Schedule(1.5, func() {})
		if end := eng.Run(); end != 1.5 {
			t.Fatalf("Run ended at %v, want 1.5", end)
		}
	}
	if len(reg.Snapshot().Series) != 0 {
		t.Fatal("a registry without series recorded one")
	}
	if len(on.smp.series) != 1 { // sim.events.pending alone
		t.Fatalf("nil function registered: %d series", len(on.smp.series))
	}
}

// TestSampleTickPrecedesEventsAtItsTime: a tick at t samples after every
// event before t and before any event at t, whatever order they were
// scheduled in.
func TestSampleTickPrecedesEventsAtItsTime(t *testing.T) {
	e, reg := sampledEngine(1)
	fired := 0
	e.Schedule(2, func() { fired++ }) // scheduled before any tick exists
	e.Series("test.fired.count", func() float64 { return float64(fired) })
	e.Schedule(2, func() { fired++ })
	e.Run()
	s := reg.Snapshot().Series["test.fired.count"]
	wantT, wantV := []float64{1, 2, 3}, []float64{0, 0, 2}
	for i := range wantT {
		if len(s.Times) != len(wantT) || s.Times[i] != wantT[i] || s.Values[i] != wantV[i] {
			t.Fatalf("series = %v @ %v, want %v @ %v", s.Values, s.Times, wantV, wantT)
		}
	}
}

// TestSampleRunUntilDeadline: ticks at or before a finite deadline run;
// the final tick waits for the engine to drain.
func TestSampleRunUntilDeadline(t *testing.T) {
	e, _ := sampledEngine(1)
	at := tickTimes(e, "test.tick.at")
	e.Schedule(0.5, func() {})
	e.Schedule(2.5, func() {})
	if now := e.RunUntil(2); now != 2 {
		t.Fatalf("RunUntil(2) left the clock at %v", now)
	}
	if want := []Time{1, 2}; !equalTimes(*at, want) || !e.smp.armed() {
		t.Fatalf("sampled at %v (armed %v), want %v and still armed", *at, e.smp.armed(), want)
	}
	if end := e.Run(); end != 2.5 {
		t.Fatalf("Run ended at %v, want 2.5", end)
	}
	if want := []Time{1, 2, 3}; !equalTimes(*at, want) {
		t.Fatalf("sampled at %v, want %v", *at, want)
	}
	// The sampler has stopped for good: a later run samples nothing, and
	// a series registered now is not recorded.
	late := tickTimes(e, "test.late.at")
	e.Schedule(4, func() {})
	e.Run()
	if len(*at) != 3 || len(*late) != 0 {
		t.Fatalf("sampled after the final tick: %v, %v", *at, *late)
	}
}

// TestSampleCancelledEventsDoNotHoldTheRun: drained means no live event;
// a cancelled one left in the queue does not delay the final tick.
func TestSampleCancelledEventsDoNotHoldTheRun(t *testing.T) {
	e, _ := sampledEngine(1)
	at := tickTimes(e, "test.tick.at")
	e.Cancel(e.Schedule(10, func() {}))
	e.Schedule(1.5, func() {})
	if end := e.Run(); end != 1.5 {
		t.Fatalf("Run ended at %v, want 1.5", end)
	}
	if want := []Time{1, 2}; !equalTimes(*at, want) {
		t.Fatalf("sampled at %v, want %v", *at, want)
	}
}
