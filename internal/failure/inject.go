package failure

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/stats"
)

// This file bridges the package's closed-form failure models into the
// discrete-event simulator: instead of only *predicting* how often servers
// die (Figure 4) and what that does to utilization (Figure 5), a drawn
// FaultPlan makes servers actually die inside a running simulation, so the
// analytic models can be validated against injected-failure measurements
// (the `faults` experiment in cmd/pdsirepro).

// OSSFaultSpec parameterizes a fault draw for a striped file system's
// object storage servers. Each server fails independently with Weibull
// interarrival times of the given shape, scaled so the mean matches MTBF —
// the same machinery as GenerateTrace, aimed at storage servers instead
// of compute nodes.
type OSSFaultSpec struct {
	// Servers is the number of object storage servers ("oss0"..).
	Servers int

	// MTBF is each server's mean time between failures in seconds.
	MTBF float64

	// Shape is the Weibull shape of interarrivals: 1.0 is Poisson, <1
	// gives the bursty, decreasing-hazard behaviour of the LANL traces.
	Shape float64

	// Downtime is how long each crash keeps a server down, in seconds.
	// Zero or negative makes every failure permanent for the run.
	Downtime float64

	// Horizon bounds the draw: failures are generated in [0, Horizon).
	Horizon float64

	// Target overrides the "oss<i>" naming convention (the one
	// internal/pfs resolves) when the plan drives another subsystem.
	Target func(i int) string

	// Bursts adds correlated multi-server failures on top of the
	// independent per-server draw. The zero value disables bursts and
	// keeps the draw byte-identical to the burst-free one.
	Bursts BurstSpec
}

// BurstSpec parameterizes correlated failure bursts: simultaneous
// multi-drive crashes of the kind a shared power rail, cooling zone, or
// rack switch produces, which the independent per-server Weibull streams
// of DrawOSSFaults can never generate. Bursts arrive as a Poisson
// process and crash Size randomly chosen servers at the same instant —
// exactly the overlapping-failure pattern that defeats single-parity
// redundancy and that the rebuild experiment uses to probe k+m groups.
type BurstSpec struct {
	// MTBB is the mean time between bursts in seconds; <= 0 disables
	// bursts entirely.
	MTBB float64

	// Size is the number of servers each burst crashes simultaneously
	// (minimum 2; values below are raised to 2).
	Size int

	// Downtime is each burst member's outage in seconds; zero inherits
	// the spec's Downtime (so zero there too means permanent).
	Downtime float64
}

func (s OSSFaultSpec) validate() error {
	if s.Servers < 1 || s.MTBF <= 0 || s.Shape <= 0 || s.Horizon <= 0 {
		return fmt.Errorf("failure: invalid OSS fault spec %+v", s)
	}
	return nil
}

// BurstStats reports what a burst-enabled draw actually scheduled.
type BurstStats struct {
	// Bursts counts burst arrivals inside the horizon; Crashes counts
	// the member crash events added to the plan.
	Bursts  int
	Crashes int

	// Skipped counts members dropped because the burst landed inside an
	// existing outage of theirs (a sim.FaultPlan admits no overlapping
	// per-target events, and a crash during an outage is unobservable
	// anyway).
	Skipped int
}

// plannedEvent is one (crash, outage) pair during plan assembly.
type plannedEvent struct {
	at   sim.Time
	down sim.Time
}

// end returns the first instant after the outage; a permanent failure
// (down <= 0) never ends.
func (e plannedEvent) end(horizon float64) sim.Time {
	if e.down <= 0 {
		return sim.Time(horizon)
	}
	return e.at + e.down
}

// DrawOSSFaults draws a deterministic fault plan from the spec: the same
// spec and seed always produce the same plan, and the plan is plain data,
// so the whole fault-injected simulation inherits the engine's
// reproducibility. Server i draws from its own stream, PCG stream
// (seed, i), so adding a server never perturbs the others' schedules.
// With spec.Bursts armed, correlated multi-server crashes merge into the
// same plan (see DrawOSSFaultsDetailed for their accounting).
func DrawOSSFaults(spec OSSFaultSpec, seed int64) *sim.FaultPlan {
	plan, _ := DrawOSSFaultsDetailed(spec, seed)
	return plan
}

// burstStream is the stream number of the burst draw. Server indices
// are non-negative ints, so no server reads it.
const burstStream = 1<<64 - 1

// DrawOSSFaultsDetailed is DrawOSSFaults plus the burst accounting. The
// bursts are drawn from a stream of their own (independent of every
// per-server stream), each burst picks Size distinct members, and a
// member crash merges into that server's independent schedule unless it
// overlaps an existing outage — overlapping events are skipped (counted
// in Skipped) so the plan always validates.
func DrawOSSFaultsDetailed(spec OSSFaultSpec, seed int64) (*sim.FaultPlan, BurstStats) {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	target := spec.Target
	if target == nil {
		target = func(i int) string { return fmt.Sprintf("oss%d", i) }
	}
	scale := spec.MTBF / stats.Weibull{Shape: spec.Shape, Scale: 1}.Mean()
	d := stats.Weibull{Shape: spec.Shape, Scale: scale}
	down := sim.Time(spec.Downtime)
	if down < 0 {
		down = 0
	}
	events := make([][]plannedEvent, spec.Servers)
	var st stats.Stream // reseeded per server
	r := rand.New(&st)
	for i := 0; i < spec.Servers; i++ {
		st.Reset(seed, uint64(i))
		for t := d.Sample(r); t < spec.Horizon; t += d.Sample(r) {
			events[i] = append(events[i], plannedEvent{at: sim.Time(t), down: down})
			if down <= 0 {
				// Permanent failure: nothing later matters for this server.
				break
			}
			// Interarrivals restart after the recovery, not mid-outage.
			t += spec.Downtime
		}
	}
	var bs BurstStats
	if spec.Bursts.MTBB > 0 {
		// The burst draw reads its own stream, so arming bursts never
		// perturbs the independent draw.
		st.Reset(seed, burstStream)
		bs = drawBursts(spec, r, events)
	}
	plan := sim.NewFaultPlan()
	for i := 0; i < spec.Servers; i++ {
		name := target(i)
		for _, ev := range events[i] {
			plan.Add(name, ev.at, ev.down)
		}
	}
	return plan, bs
}

// drawBursts merges correlated burst crashes, drawn from r, into the
// per-server event lists, keeping each list sorted and overlap-free.
func drawBursts(spec OSSFaultSpec, r *rand.Rand, events [][]plannedEvent) BurstStats {
	var bs BurstStats
	size := spec.Bursts.Size
	if size < 2 {
		size = 2
	}
	if size > spec.Servers {
		size = spec.Servers
	}
	bdown := sim.Time(spec.Bursts.Downtime)
	if bdown <= 0 {
		bdown = sim.Time(spec.Downtime)
	}
	if bdown < 0 {
		bdown = 0
	}
	for t := r.ExpFloat64() * spec.Bursts.MTBB; t < spec.Horizon; t += r.ExpFloat64() * spec.Bursts.MTBB {
		bs.Bursts++
		members := make(map[int]bool, size)
		for len(members) < size {
			members[r.Intn(spec.Servers)] = true
		}
		// Map iteration order is not deterministic; the plan must be.
		ordered := make([]int, 0, size)
		for i := 0; i < spec.Servers && len(ordered) < size; i++ {
			if members[i] {
				ordered = append(ordered, i)
			}
		}
		for _, i := range ordered {
			if ev, ok := insertEvent(events[i], plannedEvent{at: sim.Time(t), down: bdown}, spec.Horizon); ok {
				events[i] = ev
				bs.Crashes++
			} else {
				bs.Skipped++
			}
		}
	}
	return bs
}

// insertEvent splices ev into the sorted schedule if it neither lands
// inside an existing outage nor swallows a later event, preserving the
// FaultPlan invariants (sorted, non-overlapping, permanent-is-last).
func insertEvent(evs []plannedEvent, ev plannedEvent, horizon float64) ([]plannedEvent, bool) {
	pos := len(evs)
	for i, e := range evs {
		if ev.at < e.at {
			pos = i
			break
		}
	}
	if pos > 0 && evs[pos-1].end(horizon) > ev.at {
		return evs, false // lands inside the previous outage
	}
	if pos < len(evs) && ev.end(horizon) > evs[pos].at {
		return evs, false // its outage would swallow the next event
	}
	evs = append(evs, plannedEvent{})
	copy(evs[pos+1:], evs[pos:])
	evs[pos] = ev
	return evs, true
}
