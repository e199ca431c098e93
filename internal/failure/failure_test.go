package failure

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestDalyOptimalIntervalNearFirstOrder(t *testing.T) {
	d := Daly{Delta: 600, Restart: 600, MTTI: 24 * 3600}
	got := d.OptimalInterval()
	first := math.Sqrt(2 * d.Delta * d.MTTI)
	if got < first*0.6 || got > first*1.4 {
		t.Fatalf("optimal tau = %v, want near sqrt(2*delta*M) = %v", got, first)
	}
}

func TestDalyUtilizationDecreasesWithMTTI(t *testing.T) {
	u := func(mtti float64) float64 {
		return Daly{Delta: 600, Restart: 60, MTTI: mtti}.OptimalUtilization()
	}
	if !(u(1e6) > u(1e5) && u(1e5) > u(1e4) && u(1e4) > u(2e3)) {
		t.Fatalf("utilization not monotone in MTTI: %v %v %v %v", u(1e6), u(1e5), u(1e4), u(2e3))
	}
}

func TestDalyOptimalIsOptimalProperty(t *testing.T) {
	f := func(rawDelta uint16, rawMTTI uint32) bool {
		delta := float64(rawDelta%1000) + 1
		mtti := float64(rawMTTI%100000) + 10*delta
		d := Daly{Delta: delta, Restart: delta, MTTI: mtti}
		tau := d.OptimalInterval()
		best := d.Utilization(tau)
		for _, alt := range []float64{tau * 0.5, tau * 0.8, tau * 1.25, tau * 2} {
			if d.Utilization(alt) > best+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDalyInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid Daly did not panic")
		}
	}()
	Daly{Delta: 0, MTTI: 100}.OptimalInterval()
}

func TestProjectionChipsGrow(t *testing.T) {
	p := ReportProjection(18)
	if p.Chips(2008) != 20000 {
		t.Fatalf("base chips = %v, want 20000", p.Chips(2008))
	}
	// System 2x/yr, chips 1.587x/yr => chip count grows ~1.26x/yr.
	ratio := p.Chips(2009) / p.Chips(2008)
	if ratio < 1.2 || ratio > 1.3 {
		t.Fatalf("chip growth/yr = %v, want ~1.26", ratio)
	}
	// Slower chip speed growth means more chips.
	p30 := ReportProjection(30)
	if p30.Chips(2015) <= p.Chips(2015) {
		t.Fatal("slower per-chip growth should need more chips")
	}
}

func TestProjectionMTTIFallsToMinutesByExascale(t *testing.T) {
	// Figure 4's alarming conclusion: by the exascale era (~2018 with
	// 100%/yr growth from 1 PF in 2008) MTTI drops to tens of minutes or
	// less under Moore's-law chip growth.
	p := ReportProjection(18)
	m2008 := p.MTTISeconds(2008)
	m2018 := p.MTTISeconds(2018)
	if m2008 < 3600 {
		t.Fatalf("2008 MTTI = %v s, expected hours", m2008)
	}
	if m2018 > 3600 {
		t.Fatalf("2018 MTTI = %v s, expected well under an hour", m2018)
	}
	if m2018 >= m2008 {
		t.Fatal("MTTI must fall over time")
	}
}

func TestBalancedUtilizationCrossesBefore2014(t *testing.T) {
	// Figure 5: "the effective application utilization may cross under 50%
	// before 2014".
	p := ReportProjection(18)
	points := BalancedUtilization(p, 600, 600, 2008, 2020)
	year := CrossingYear(points, 0.5)
	if year == -1 || year > 2014 {
		t.Fatalf("50%% crossing year = %d, want <= 2014", year)
	}
	// And utilization in 2008 should still be healthy.
	if points[0].Utilization < 0.7 {
		t.Fatalf("2008 utilization = %v, want > 0.7", points[0].Utilization)
	}
	// Monotone decline.
	for i := 1; i < len(points); i++ {
		if points[i].Utilization >= points[i-1].Utilization {
			t.Fatalf("utilization not declining at %d", points[i].Year)
		}
	}
}

func TestSlowerChipGrowthCrossesEarlier(t *testing.T) {
	u18 := BalancedUtilization(ReportProjection(18), 600, 600, 2008, 2022)
	u30 := BalancedUtilization(ReportProjection(30), 600, 600, 2008, 2022)
	y18, y30 := CrossingYear(u18, 0.5), CrossingYear(u30, 0.5)
	if y30 == -1 || y18 == -1 || y30 > y18 {
		t.Fatalf("30-month doubling should cross earlier: y18=%d y30=%d", y18, y30)
	}
}

func TestDiskGrowthRates(t *testing.T) {
	// Balanced growth (100%/yr) on disks improving 20%/yr needs ~67%/yr
	// more disks.
	g := DiskGrowth(1.0, 0.2)
	if math.Abs(g-5.0/3.0) > 1e-12 {
		t.Fatalf("disk count growth = %v, want 1.667", g)
	}
}

func TestProcessPairsBeatsCheckpointingAtLowMTTI(t *testing.T) {
	// When MTTI gets very small, process pairs' flat ~50% beats
	// checkpoint/restart's collapsing utilization.
	d := Daly{Delta: 600, Restart: 600, MTTI: 1800}
	if cp := d.OptimalUtilization(); ProcessPairsUtilization(d) <= cp {
		t.Fatalf("process pairs %v should beat checkpointing %v at MTTI=30min",
			ProcessPairsUtilization(d), cp)
	}
}

func TestGenerateTraceRateMatchesSpec(t *testing.T) {
	spec := ClusterSpec{System: 0, Nodes: 1024, ChipsPerNode: 2, PerChipRate: 0.1, Shape: 1.0}
	years := 10.0
	events := GenerateTrace(spec, years, 7)
	wantPerYear := 0.1 * float64(spec.Chips())
	gotPerYear := float64(len(events)) / years
	if math.Abs(gotPerYear-wantPerYear)/wantPerYear > 0.15 {
		t.Fatalf("events/yr = %v, want ~%v", gotPerYear, wantPerYear)
	}
	// Events must be time ordered and in range.
	for i, e := range events {
		if e.At < 0 || e.At > years*SecondsPerYear {
			t.Fatalf("event %d at %v out of range", i, e.At)
		}
		if i > 0 && e.At < events[i-1].At {
			t.Fatal("events out of order")
		}
		if e.Node < 0 || e.Node >= spec.Nodes {
			t.Fatalf("event node %d out of range", e.Node)
		}
	}
}

func TestBurstyTraceHasHighCV(t *testing.T) {
	smooth := Analyze(ClusterSpec{Nodes: 512, ChipsPerNode: 2, PerChipRate: 0.2, Shape: 1.0},
		GenerateTrace(ClusterSpec{System: 0, Nodes: 512, ChipsPerNode: 2, PerChipRate: 0.2, Shape: 1.0}, 10, 3), 10)
	bursty := Analyze(ClusterSpec{Nodes: 512, ChipsPerNode: 2, PerChipRate: 0.2, Shape: 0.6},
		GenerateTrace(ClusterSpec{System: 1, Nodes: 512, ChipsPerNode: 2, PerChipRate: 0.2, Shape: 0.6}, 10, 3), 10)
	if bursty.InterarrivalCV <= smooth.InterarrivalCV {
		t.Fatalf("bursty CV %v should exceed Poisson CV %v", bursty.InterarrivalCV, smooth.InterarrivalCV)
	}
	if smooth.InterarrivalCV < 0.8 || smooth.InterarrivalCV > 1.2 {
		t.Fatalf("Poisson CV = %v, want ~1", smooth.InterarrivalCV)
	}
}

func TestFitInterruptsVsChipsIsLinear(t *testing.T) {
	// The Figure 4 experiment: across a fleet of diverse clusters sharing
	// a per-chip rate, annual interrupts regress linearly on chip count.
	specs := LANLStyleFleet(22, 0.25, 0.8, 11)
	var sys []SystemStats
	for i, spec := range specs {
		events := GenerateTrace(spec, 9, int64(100+i))
		sys = append(sys, Analyze(spec, events, 9))
	}
	fit, err := FitInterruptsVsChips(sys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.9 {
		t.Fatalf("R2 = %v, want >= 0.9 (linear in chips)", fit.R2)
	}
	if math.Abs(fit.Slope-0.25)/0.25 > 0.2 {
		t.Fatalf("slope = %v interrupts/chip-year, want ~0.25", fit.Slope)
	}
}

func TestInvalidClusterSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	GenerateTrace(ClusterSpec{}, 1, 1)
}

func TestObservedAFRFarExceedsDatasheet(t *testing.T) {
	// FAST'07 headline: field ARR of 2-6% vs datasheet ~0.88%.
	class := EnterpriseClass()
	fleet := SimulateFleet(class, 5000, 5, 21)
	afr := ObservedAFR(fleet)
	if afr < 2*class.DatasheetAFR() {
		t.Fatalf("observed AFR %v should far exceed datasheet %v", afr, class.DatasheetAFR())
	}
	if afr > 0.15 {
		t.Fatalf("observed AFR %v implausibly high", afr)
	}
}

func TestNoBathtubARRGrowsWithAge(t *testing.T) {
	fleet := SimulateFleet(EnterpriseClass(), 10000, 5, 22)
	// Year 1 must be the minimum (no infant mortality spike) and the
	// profile must climb.
	for _, y := range fleet[1:] {
		if y.ARR < fleet[0].ARR {
			t.Fatalf("year %d ARR %v below year 1 %v: bathtub-like", y.Year, y.ARR, fleet[0].ARR)
		}
	}
	if dep := fleet[len(fleet)-1].ARR / fleet[0].ARR; dep < 1.3 {
		t.Fatalf("ARR growth ratio = %v, want steady climb >= 1.3", dep)
	}
}

func TestEnterpriseAndNearlineSimilar(t *testing.T) {
	// The study found similar replacement rates for enterprise and
	// desktop-class drives.
	e := ObservedAFR(SimulateFleet(EnterpriseClass(), 5000, 5, 23))
	n := ObservedAFR(SimulateFleet(NearlineClass(), 5000, 5, 24))
	ratio := e / n
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("enterprise/nearline AFR ratio = %v, want within 2x", ratio)
	}
}

func TestReplacementInterarrivalsFitWeibull(t *testing.T) {
	gaps := ReplacementInterarrivals(EnterpriseClass(), 2000, 5, 25)
	if len(gaps) < 100 {
		t.Fatalf("too few replacement events: %d", len(gaps))
	}
	if _, err := stats.FitWeibull(gaps); err != nil {
		t.Fatal(err)
	}
}
