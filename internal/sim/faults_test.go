package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// recordingSink logs transitions with their virtual timestamps.
type recordingSink struct {
	eng   *Engine
	log   []string
	times []Time
}

func (s *recordingSink) CrashTarget(t string) {
	s.log = append(s.log, "crash "+t)
	s.times = append(s.times, s.eng.Now())
}

func (s *recordingSink) RecoverTarget(t string) {
	s.log = append(s.log, "recover "+t)
	s.times = append(s.times, s.eng.Now())
}

func TestFaultPlanSchedulesCrashAndRecovery(t *testing.T) {
	eng := NewEngine()
	sink := &recordingSink{eng: eng}
	plan := NewFaultPlan()
	plan.Add("oss1", 5, 2)
	plan.Add("oss0", 1, 0) // permanent
	plan.Schedule(eng, sink)
	eng.Run()

	wantLog := []string{"crash oss0", "crash oss1", "recover oss1"}
	wantTimes := []Time{1, 5, 7}
	if !reflect.DeepEqual(sink.log, wantLog) {
		t.Fatalf("log = %v, want %v", sink.log, wantLog)
	}
	if !reflect.DeepEqual(sink.times, wantTimes) {
		t.Fatalf("times = %v, want %v", sink.times, wantTimes)
	}
}

func TestFaultPlanEventsSortedStable(t *testing.T) {
	plan := NewFaultPlan()
	plan.Add("b", 3, 1)
	plan.Add("a", 1, 0)
	plan.Add("c", 3, 2) // same time as b: insertion order preserved
	evs := plan.Events()
	want := []FaultEvent{
		{Target: "a", At: 1},
		{Target: "b", At: 3, Downtime: 1},
		{Target: "c", At: 3, Downtime: 2},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("events = %v, want %v", evs, want)
	}
}

func TestNilAndEmptyFaultPlansAreNoOps(t *testing.T) {
	eng := NewEngine()
	sink := &recordingSink{eng: eng}
	var nilPlan *FaultPlan
	if nilPlan.Len() != 0 || nilPlan.Events() != nil {
		t.Fatal("nil plan not empty")
	}
	nilPlan.Schedule(eng, sink)
	NewFaultPlan().Schedule(eng, sink)
	if eng.Pending() != 0 {
		t.Fatalf("empty plans scheduled %d events", eng.Pending())
	}
	if eng.Run() != 0 || len(sink.log) != 0 {
		t.Fatal("empty plans produced transitions")
	}
}

func TestFaultPlanInstrumentsInjections(t *testing.T) {
	eng := NewEngine()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	eng.Instrument(reg, tr)
	plan := NewFaultPlan().Add("oss0", 1, 1).Add("oss1", 2, 0)
	plan.Schedule(eng, &recordingSink{eng: eng})
	eng.Run()
	s := reg.Snapshot()
	if got := s.Counters["sim.faults.injected"]; got != 2 {
		t.Fatalf("sim.faults.injected = %d, want 2", got)
	}
	if got := s.Counters["sim.faults.recovered"]; got != 1 {
		t.Fatalf("sim.faults.recovered = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct{ TraceEvents []obs.TraceEvent }
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if len(f.TraceEvents) != 3 { // 2 crashes + 1 recovery
		t.Fatalf("trace events = %d, want 3", len(f.TraceEvents))
	}
}

func TestFaultPlanNegativeTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative fault time")
		}
	}()
	NewFaultPlan().Add("oss0", -1, 0)
}

func TestFaultPlanValidateAcceptsSaneSchedules(t *testing.T) {
	cases := []*FaultPlan{
		nil,
		NewFaultPlan(),
		NewFaultPlan().Add("oss0", 1, 1).Add("oss1", 1, 1), // same time, different targets
		NewFaultPlan().Add("oss0", 1, 2).Add("oss0", 3, 0), // crash exactly at recovery
		NewFaultPlan().Add("oss0", 1, 1).Add("oss0", 10, 0).Add("oss1", 0, 0),
	}
	for i, p := range cases {
		if err := p.Validate(); err != nil {
			t.Errorf("case %d: Validate() = %v, want nil", i, err)
		}
	}
}

func TestFaultPlanValidateRejectsBadSchedules(t *testing.T) {
	cases := []struct {
		name   string
		plan   *FaultPlan
		reason string
	}{
		{"unsorted", NewFaultPlan().Add("oss0", 5, 1).Add("oss0", 1, 1), "unsorted"},
		{"overlap", NewFaultPlan().Add("oss0", 1, 10).Add("oss0", 5, 1), "overlapping"},
		{"after permanent", NewFaultPlan().Add("oss0", 1, 0).Add("oss0", 9, 1), "overlapping"},
		{"same instant", NewFaultPlan().Add("oss0", 2, 1).Add("oss0", 2, 1), "overlapping"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidPlan) {
			t.Errorf("%s: errors.Is(err, ErrInvalidPlan) = false for %v", tc.name, err)
		}
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %T is not *PlanError", tc.name, err)
			continue
		}
		if pe.Target != "oss0" || pe.Reason != tc.reason {
			t.Errorf("%s: got target %q reason %q, want oss0/%s", tc.name, pe.Target, pe.Reason, tc.reason)
		}
	}
}

func TestScheduleRejectsInvalidPlanArmsNothing(t *testing.T) {
	eng := NewEngine()
	sink := &recordingSink{eng: eng}
	plan := NewFaultPlan().Add("oss0", 5, 1).Add("oss0", 1, 1)
	if err := plan.Schedule(eng, sink); !errors.Is(err, ErrInvalidPlan) {
		t.Fatalf("Schedule() = %v, want ErrInvalidPlan", err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("invalid plan armed %d events", eng.Pending())
	}
	eng.Run()
	if len(sink.log) != 0 {
		t.Fatalf("invalid plan produced transitions: %v", sink.log)
	}
}
