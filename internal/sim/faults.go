package sim

import (
	"errors"
	"fmt"
	"sort"
)

// This file is the fault-injection half of the kernel: a FaultPlan is a
// deterministic schedule of crash/recovery events for named targets
// ("oss3", "mds", "link0" — the kernel does not interpret names), built
// either from fixed times or drawn from the failure distributions in
// internal/failure. Scheduling a plan on an engine turns the closed-form
// failure models into events that actually interrupt a running
// simulation: servers die mid-checkpoint, recover after a downtime, and
// the model under test (see internal/pfs) decides what that means.
//
// Determinism: a plan is plain data ordered by (time, insertion order),
// so the same plan scheduled on the same engine produces the same
// trajectory bit for bit — the property the golden same-seed tests in
// internal/workload assert across the whole stack.

// FaultEvent is one scheduled crash of a named target. A zero Downtime
// means the target never recovers within the run (a permanent failure);
// otherwise recovery fires at At+Downtime.
type FaultEvent struct {
	Target   string
	At       Time
	Downtime Time
}

// Permanent reports whether the event has no scheduled recovery.
func (e FaultEvent) Permanent() bool { return e.Downtime <= 0 }

// FaultSink receives crash/recovery callbacks from a scheduled plan.
// Implementations should still tolerate redundant events defensively, but
// Schedule validates the plan on arm: per-target schedules must be sorted
// and non-overlapping (see Validate), so a sink never observes a crash of
// an already-down target from a plan that armed successfully.
type FaultSink interface {
	CrashTarget(target string)
	RecoverTarget(target string)
}

// FanoutSink broadcasts every crash/recovery callback to each sink in
// order. It exists so one plan can drive several subsystems (the striped
// FS and the burst-buffer tier) while being scheduled exactly once —
// scheduling the same plan twice would double the sim.faults.* counters
// and duplicate the trace instants. Sinks ignore foreign targets by
// contract, so the fan-out needs no routing. Nil entries are skipped.
type FanoutSink []FaultSink

// CrashTarget implements FaultSink.
func (f FanoutSink) CrashTarget(target string) {
	for _, s := range f {
		if s != nil {
			s.CrashTarget(target)
		}
	}
}

// RecoverTarget implements FaultSink.
func (f FanoutSink) RecoverTarget(target string) {
	for _, s := range f {
		if s != nil {
			s.RecoverTarget(target)
		}
	}
}

// FaultPlan is an ordered set of fault events. The zero value and the nil
// plan are both valid, empty plans; scheduling them is a no-op, so the
// fault layer costs nothing when disabled.
type FaultPlan struct {
	events []FaultEvent
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// Add appends a crash of target at time at, recovering after downtime
// (zero = never). Negative times panic: a plan is authored before the
// run, so a negative timestamp is a model bug, not a schedule.
func (p *FaultPlan) Add(target string, at, downtime Time) *FaultPlan {
	if at < 0 || downtime < 0 {
		panic(fmt.Sprintf("sim: negative fault time for %s: at=%v downtime=%v", target, at, downtime))
	}
	p.events = append(p.events, FaultEvent{Target: target, At: at, Downtime: downtime})
	return p
}

// Len reports the number of scheduled crashes (0 on a nil plan).
func (p *FaultPlan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.events)
}

// Events returns the plan's events sorted by time (ties keep insertion
// order), as a copy safe to retain.
func (p *FaultPlan) Events() []FaultEvent {
	if p == nil {
		return nil
	}
	out := append([]FaultEvent(nil), p.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ErrInvalidPlan is the sentinel every plan-validation failure wraps;
// match it with errors.Is.
var ErrInvalidPlan = errors.New("sim: invalid fault plan")

// PlanError reports the first per-target schedule violation found by
// Validate: the offending pair of events (in insertion order) and why
// they cannot both arm. It unwraps to ErrInvalidPlan.
type PlanError struct {
	Target     string
	Prev, Next FaultEvent
	Reason     string // "unsorted" or "overlapping"
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("%v: target %q %s events: crash at %v (downtime %v) then crash at %v",
		ErrInvalidPlan, e.Target, e.Reason, e.Prev.At, e.Prev.Downtime, e.Next.At)
}

// Unwrap makes errors.Is(err, ErrInvalidPlan) hold.
func (e *PlanError) Unwrap() error { return ErrInvalidPlan }

// Validate checks every target's schedule in insertion order: event times
// must be nondecreasing ("unsorted" otherwise), and each crash must fire
// at or after the previous outage's recovery ("overlapping" otherwise — a
// second crash landing inside an outage would re-arm the recovery timer
// and silently cut the first outage short). A permanent failure admits no
// later events for its target. Nil and empty plans are valid.
func (p *FaultPlan) Validate() error {
	if p.Len() == 0 {
		return nil
	}
	last := make(map[string]FaultEvent, 8)
	for _, ev := range p.events {
		prev, seen := last[ev.Target]
		if seen {
			switch {
			case ev.At < prev.At:
				return &PlanError{Target: ev.Target, Prev: prev, Next: ev, Reason: "unsorted"}
			case prev.Permanent() || ev.At < prev.At+prev.Downtime:
				return &PlanError{Target: ev.Target, Prev: prev, Next: ev, Reason: "overlapping"}
			}
		}
		last[ev.Target] = ev
	}
	return nil
}

// Schedule arms every event on the engine against sink. Crashes and
// recoveries are ordinary events, so they interleave deterministically
// with the model's own traffic. Instrumented engines count injections
// and recoveries ("sim.faults.injected", "sim.faults.recovered") and
// mark each transition in the trace. A nil or empty plan schedules
// nothing. The plan is validated on arm: an unsorted or overlapping
// per-target schedule returns a *PlanError (wrapping ErrInvalidPlan)
// and arms nothing.
func (p *FaultPlan) Schedule(eng *Engine, sink FaultSink) error {
	if p.Len() == 0 || sink == nil {
		return nil
	}
	if err := p.Validate(); err != nil {
		return err
	}
	reg, tr := eng.Metrics(), eng.Tracer()
	n := new(struct{ injected, recovered int64 })
	if reg != nil {
		reg.CounterFunc("sim.faults.injected", func() int64 { return n.injected })
		reg.CounterFunc("sim.faults.recovered", func() int64 { return n.recovered })
	}
	for _, ev := range p.Events() {
		ev := ev
		eng.At(ev.At, func() {
			n.injected++
			if tr.Enabled() {
				tr.InstantArgs("fault", "crash "+ev.Target, 0, float64(eng.Now()),
					map[string]any{"downtime_s": float64(ev.Downtime)})
			}
			sink.CrashTarget(ev.Target)
		})
		if ev.Permanent() {
			continue
		}
		eng.At(ev.At+ev.Downtime, func() {
			n.recovered++
			if tr.Enabled() {
				tr.Instant("fault", "recover "+ev.Target, 0, float64(eng.Now()))
			}
			sink.RecoverTarget(ev.Target)
		})
	}
	return nil
}
