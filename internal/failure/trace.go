package failure

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
)

// Event is one interrupt/failure record, in the style of the released LANL
// trace (system, node, timestamp).
type Event struct {
	System int
	Node   int
	At     float64 // seconds since system deployment
}

// ClusterSpec describes one synthetic cluster for trace generation.
type ClusterSpec struct {
	System int
	Nodes  int
	// ChipsPerNode scales the per-node interrupt rate: interrupts are
	// proportional to chips, not nodes (the Figure 4 finding).
	ChipsPerNode int
	// PerChipRate is interrupts per chip-year.
	PerChipRate float64
	// Shape sets the Weibull shape of interarrival times; 1.0 is Poisson,
	// <1 produces the bursty, decreasing-hazard interarrivals observed in
	// the LANL data.
	Shape float64
}

// Chips returns the cluster's total chip count.
func (c ClusterSpec) Chips() int { return c.Nodes * c.ChipsPerNode }

// GenerateTrace produces years' worth of interrupt events for a cluster.
// Interarrivals are Weibull with the requested shape, scaled so the mean
// rate equals Chips * PerChipRate per year.
func GenerateTrace(spec ClusterSpec, years float64, seed int64) []Event {
	if spec.Nodes < 1 || spec.ChipsPerNode < 1 || spec.PerChipRate <= 0 || spec.Shape <= 0 {
		panic(fmt.Sprintf("failure: invalid cluster spec %+v", spec))
	}
	r := rand.New(rand.NewSource(seed))
	ratePerSec := spec.PerChipRate * float64(spec.Chips()) / SecondsPerYear
	meanGap := 1 / ratePerSec
	// Weibull with requested shape and mean == meanGap.
	scale := meanGap / stats.Weibull{Shape: spec.Shape, Scale: 1}.Mean()
	d := stats.Weibull{Shape: spec.Shape, Scale: scale}
	horizon := years * SecondsPerYear
	var events []Event
	t := 0.0
	for {
		t += d.Sample(r)
		if t >= horizon {
			break
		}
		events = append(events, Event{
			System: spec.System,
			Node:   r.Intn(spec.Nodes),
			At:     t,
		})
	}
	return events
}

// Interarrivals extracts the gaps between consecutive events.
func Interarrivals(events []Event) []float64 {
	if len(events) < 2 {
		return nil
	}
	out := make([]float64, 0, len(events)-1)
	for i := 1; i < len(events); i++ {
		out = append(out, events[i].At-events[i-1].At)
	}
	return out
}

// SystemStats summarizes one system's trace for the linear-in-chips fit.
type SystemStats struct {
	System         int
	Chips          int
	Events         int
	Years          float64
	PerYear        float64
	MTTISeconds    float64
	InterarrivalCV float64
}

// Analyze summarizes a trace.
func Analyze(spec ClusterSpec, events []Event, years float64) SystemStats {
	s := SystemStats{System: spec.System, Chips: spec.Chips(), Events: len(events), Years: years}
	if years > 0 {
		s.PerYear = float64(len(events)) / years
	}
	if len(events) > 0 {
		s.MTTISeconds = years * SecondsPerYear / float64(len(events))
	}
	gaps := Interarrivals(events)
	if len(gaps) > 1 {
		s.InterarrivalCV = stats.Summarize(gaps).CoefficientVar
	}
	return s
}

// FitInterruptsVsChips regresses annual interrupt counts against chip
// counts across systems — the Figure 4 "best simple model suggests the
// number of interrupts is linear in the number of processor chips" result.
func FitInterruptsVsChips(sys []SystemStats) (stats.LinearFit, error) {
	xs := make([]float64, len(sys))
	ys := make([]float64, len(sys))
	for i, s := range sys {
		xs[i] = float64(s.Chips)
		ys[i] = s.PerYear
	}
	return stats.FitLinear(xs, ys)
}

// LANLStyleFleet generates a set of clusters shaped like the released LANL
// data: many clusters of diverse sizes observed for up to nine years, all
// sharing a common per-chip interrupt rate.
func LANLStyleFleet(nClusters int, perChipRate, shape float64, seed int64) []ClusterSpec {
	r := rand.New(rand.NewSource(seed))
	sizes := []int{49, 128, 164, 256, 512, 1024, 2048, 4096}
	chips := []int{1, 2, 4}
	specs := make([]ClusterSpec, nClusters)
	for i := range specs {
		specs[i] = ClusterSpec{
			System:       i,
			Nodes:        sizes[r.Intn(len(sizes))],
			ChipsPerNode: chips[r.Intn(len(chips))],
			PerChipRate:  perChipRate,
			Shape:        shape,
		}
	}
	return specs
}
