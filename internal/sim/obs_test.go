package sim

import (
	"testing"

	"repro/internal/obs"
)

func TestEngineCancelAfterFiredIsNoOp(t *testing.T) {
	e := NewEngine()
	var id EventID
	fired := 0
	id = e.Schedule(1, func() { fired++ })
	e.Schedule(2, func() {})
	e.RunUntil(1)
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	// Cancelling the already-fired event must not corrupt the live count.
	e.Cancel(id)
	e.Cancel(id)
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after cancelling a fired event, want 1", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after run, want 0", got)
	}
}

func TestEnginePendingCountsLiveEvents(t *testing.T) {
	e := NewEngine()
	ids := make([]EventID, 5)
	for i := range ids {
		ids[i] = e.Schedule(Time(i+1), func() {})
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5", got)
	}
	e.Cancel(ids[1])
	e.Cancel(ids[3])
	e.Cancel(ids[3]) // double cancel must not double count
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after two cancels, want 3", got)
	}
	e.RunUntil(2)
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after dispatching one, want 2", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after run, want 0", got)
	}
}

func TestServerUtilizationWithCapacityTwo(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2)
	// Two overlapping requests at t=0 (finish at 2), one submitted at t=5
	// (finishes at 7): busy intervals [0,2] and [5,7] over an elapsed 7.
	s.Submit(2, nil)
	s.Submit(2, nil)
	e.Schedule(5, func() { s.Submit(2, nil) })
	e.Run()
	if got := s.BusyTime(); got != 4 {
		t.Fatalf("BusyTime() = %v, want 4 (overlap counted once)", got)
	}
	want := 4.0 / 7.0
	if got := s.Utilization(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("Utilization() = %v, want %v", got, want)
	}
}

func TestServerMeanWait(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	// First request starts immediately (wait 0), second waits 2, third 4.
	s.Submit(2, nil)
	s.Submit(2, nil)
	s.Submit(2, nil)
	e.Run()
	if got := s.waitedTime; got != 6 {
		t.Fatalf("waitedTime = %v, want 6", got)
	}
	if got := s.MeanWait(); got != 2 {
		t.Fatalf("MeanWait() = %v, want 2", got)
	}
}

func TestServerMeanWaitEmpty(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1)
	if got := s.MeanWait(); got != 0 {
		t.Fatalf("MeanWait() on idle server = %v, want 0", got)
	}
}

func TestEngineInstrumentCounters(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine()
	e.Instrument(reg, nil)
	id := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	e.Cancel(id)
	e.Run()
	s := reg.Snapshot()
	if got := s.Counters["sim.events_scheduled"]; got != 2 {
		t.Fatalf("events_scheduled = %d, want 2", got)
	}
	if got := s.Counters["sim.events_dispatched"]; got != 1 {
		t.Fatalf("events_dispatched = %d, want 1", got)
	}
	if got := s.Counters["sim.events_cancelled"]; got != 1 {
		t.Fatalf("events_cancelled = %d, want 1", got)
	}
	if got := s.Gauges["sim.pending"]; got != 0 {
		t.Fatalf("sim.pending = %v, want 0", got)
	}
	if got := s.Gauges["sim.queue_depth_max"]; got != 2 {
		t.Fatalf("sim.queue_depth_max = %v, want 2", got)
	}
}

func TestServerInstrumentHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine()
	e.Instrument(reg, nil)
	s := NewServer(e, 1)
	s.Instrument("test.srv")
	s.Submit(2, nil) // wait 0
	s.Submit(2, nil) // wait 2
	e.Run()
	snap := reg.Snapshot()
	h, ok := snap.Histograms["test.srv.wait_s"]
	if !ok || h.Count != 2 {
		t.Fatalf("wait histogram = %+v", h)
	}
	if h.Sum != 2 {
		t.Fatalf("wait histogram sum = %v, want 2", h.Sum)
	}
	svc, ok := snap.Histograms["test.srv.service_s"]
	if !ok || svc.Count != 2 || svc.Sum != 4 {
		t.Fatalf("service histogram = %+v", svc)
	}
	if got := snap.Gauges["test.srv.utilization"]; got != 1 {
		t.Fatalf("utilization gauge = %v, want 1", got)
	}
	if got := snap.Gauges["test.srv.mean_wait_s"]; got != 1 {
		t.Fatalf("mean_wait gauge = %v, want 1", got)
	}
}

func TestUninstrumentedServerStillAccounts(t *testing.T) {
	// No registry anywhere: the nil-instrument fast path must leave the
	// plain accounting intact.
	e := NewEngine()
	s := NewServer(e, 1)
	s.Instrument("ignored") // engine has no registry; stays disabled
	s.Submit(1, nil)
	s.Submit(1, nil)
	e.Run()
	if s.started != 2 || s.MeanWait() != 0.5 {
		t.Fatalf("started %d meanWait %v", s.started, s.MeanWait())
	}
}
