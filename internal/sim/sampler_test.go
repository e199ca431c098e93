package sim

import "testing"

func TestSampleCadenceAndTermination(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Sample(1, func(now Time) { at = append(at, now) })
	if e.sampleEvery != 1 {
		t.Fatalf("sampleEvery = %v, want 1", e.sampleEvery)
	}
	// A model event keeps the engine alive past several ticks; once it
	// fires and the queue drains, the sampler must stop rescheduling
	// itself so Run returns.
	e.Schedule(3.5, func() {})
	end := e.Run()
	want := []Time{1, 2, 3, 4}
	if len(at) != len(want) {
		t.Fatalf("sampled at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("sampled at %v, want %v", at, want)
		}
	}
	if end != 4 {
		t.Fatalf("Run ended at %v, want 4 (final sampler tick)", end)
	}
}

func TestSampleLaterCallsJoinCadence(t *testing.T) {
	e := NewEngine()
	var a, b int
	e.Sample(2, func(Time) { a++ })
	e.Sample(99, func(Time) { b++ }) // interval ignored: joins the grid
	if e.sampleEvery != 2 {
		t.Fatalf("sampleEvery = %v, want 2", e.sampleEvery)
	}
	e.Schedule(5, func() {})
	e.Run()
	if a != b || a != 3 {
		t.Fatalf("a=%d b=%d, want both 3 (ticks at 2,4,6)", a, b)
	}
}

func TestSampleNoOpCases(t *testing.T) {
	e := NewEngine()
	e.Sample(1, nil)
	e.Sample(0, func(Time) { t.Fatal("armed with non-positive interval") })
	if e.sampleEvery != 0 {
		t.Fatalf("sampleEvery = %v, want 0 (never armed)", e.sampleEvery)
	}
	e.Schedule(1, func() {})
	e.Run()
}
