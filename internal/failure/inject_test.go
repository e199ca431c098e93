package failure

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func testSpec() OSSFaultSpec {
	return OSSFaultSpec{Servers: 4, MTBF: 100, Shape: 1, Downtime: 5, Horizon: 2000}
}

// rebuildFigureSpec is the rebuild figure's per-pod fault spec: 64
// drives, accelerated permanent failures, correlated 3-drive bursts.
func rebuildFigureSpec() OSSFaultSpec {
	return OSSFaultSpec{
		Servers: 64, MTBF: 30, Shape: 1, Downtime: 0, Horizon: 4,
		Bursts: BurstSpec{MTBB: 2, Size: 3},
	}
}

func TestDrawOSSFaultsDeterministic(t *testing.T) {
	a := DrawOSSFaults(testSpec(), 42).Events()
	b := DrawOSSFaults(testSpec(), 42).Events()
	if len(a) == 0 {
		t.Fatal("no faults drawn over 20 MTBFs")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec and seed drew different plans")
	}
	c := DrawOSSFaults(testSpec(), 43).Events()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical plans")
	}
}

func TestDrawOSSFaultsTargetsAndHorizon(t *testing.T) {
	spec := testSpec()
	for _, ev := range DrawOSSFaults(spec, 1).Events() {
		if !strings.HasPrefix(ev.Target, "oss") {
			t.Fatalf("target %q does not follow the oss<i> convention", ev.Target)
		}
		if float64(ev.At) >= spec.Horizon {
			t.Fatalf("event at %v beyond horizon %v", ev.At, spec.Horizon)
		}
		if ev.Permanent() {
			t.Fatalf("downtime %v drew a permanent event", spec.Downtime)
		}
	}
}

func TestDrawOSSFaultsPermanentStopsPerServer(t *testing.T) {
	spec := testSpec()
	spec.Downtime = 0
	perServer := map[string]int{}
	for _, ev := range DrawOSSFaults(spec, 7).Events() {
		if !ev.Permanent() {
			t.Fatalf("zero downtime drew recoverable event %+v", ev)
		}
		perServer[ev.Target]++
	}
	for target, n := range perServer {
		if n != 1 {
			t.Fatalf("permanently failed %s %d times", target, n)
		}
	}
}

func TestDrawOSSFaultsRateTracksMTBF(t *testing.T) {
	spec := OSSFaultSpec{Servers: 1, MTBF: 50, Shape: 1, Downtime: 1, Horizon: 500000}
	n := DrawOSSFaults(spec, 3).Len()
	// Expected ~ Horizon/(MTBF+Downtime) events; allow wide slack.
	want := spec.Horizon / (spec.MTBF + spec.Downtime)
	if f := float64(n) / want; f < 0.8 || f > 1.2 {
		t.Fatalf("drew %d events, want about %.0f", n, want)
	}
}

// TestDrawOSSFaultsCrashCountsAreBinomial: with bursts off, each of a
// rebuild pod's 64 drives fails inside the 4 s horizon with probability
// p = 1 − e^(−4/30), on its own, so a pod's crash count is binomial:
// mean 64p = 7.99 and SD 2.64. Drives whose draws moved together would
// spread the count wider or narrower; 4,000 pods, seeded as the figure
// seeds them, put the SD within ±0.3 of the binomial one.
func TestDrawOSSFaultsCrashCountsAreBinomial(t *testing.T) {
	spec := rebuildFigureSpec()
	spec.Bursts = BurstSpec{}
	const pods = 4000
	var sum, sumSq float64
	for p := 0; p < pods; p++ {
		n := float64(DrawOSSFaults(spec, 42+int64(p)*1_000_003).Len())
		sum += n
		sumSq += n * n
	}
	mean := sum / pods
	sd := math.Sqrt(sumSq/pods - mean*mean)
	t.Logf("crashes per pod over %d pods: mean %.2f, SD %.2f", pods, mean, sd)
	if mean < 7.8 || mean > 8.2 || sd < 2.35 || sd > 2.95 {
		t.Fatalf("crashes per pod: mean %.2f, SD %.2f; want mean in [7.8, 8.2] and SD in [2.35, 2.95] (binomial: 7.99, 2.64)",
			mean, sd)
	}
}

func TestDrawOSSFaultsTargetOverride(t *testing.T) {
	spec := testSpec()
	spec.Target = func(i int) string { return fmt.Sprintf("disk%d", i) }
	for _, ev := range DrawOSSFaults(spec, 1).Events() {
		if !strings.HasPrefix(ev.Target, "disk") {
			t.Fatalf("override ignored: target %q", ev.Target)
		}
	}
}

func TestDrawOSSFaultsBurstsScheduleSimultaneousCrashes(t *testing.T) {
	spec := testSpec()
	spec.Servers = 50
	spec.MTBF = 10000 // keep the independent draw sparse
	spec.Horizon = 200
	spec.Bursts = BurstSpec{MTBB: 20, Size: 4, Downtime: 3}
	plan, bs := DrawOSSFaultsDetailed(spec, 11)
	if err := plan.Validate(); err != nil {
		t.Fatalf("burst-merged plan invalid: %v", err)
	}
	if bs.Bursts == 0 || bs.Crashes == 0 {
		t.Fatalf("no bursts drawn over 10 MTBBs: %+v", bs)
	}
	// At least one burst must have >= 2 members crashing at the same
	// instant on distinct targets — the correlated signature.
	byTime := map[float64]map[string]bool{}
	for _, ev := range plan.Events() {
		at := float64(ev.At)
		if byTime[at] == nil {
			byTime[at] = map[string]bool{}
		}
		byTime[at][ev.Target] = true
	}
	simultaneous := 0
	for _, targets := range byTime {
		if len(targets) >= 2 {
			simultaneous++
		}
	}
	if simultaneous == 0 {
		t.Fatal("no simultaneous multi-target crashes in a burst-enabled draw")
	}

	// Determinism and independence: the same seed redraws the same plan,
	// and disarming bursts reproduces the burst-free independent draw.
	again, _ := DrawOSSFaultsDetailed(spec, 11)
	if !reflect.DeepEqual(plan.Events(), again.Events()) {
		t.Fatal("burst draw not deterministic")
	}
	noBursts := spec
	noBursts.Bursts = BurstSpec{}
	base := DrawOSSFaults(noBursts, 11)
	if plan.Len() != base.Len()+bs.Crashes {
		t.Fatalf("burst plan has %d events, want base %d + burst crashes %d",
			plan.Len(), base.Len(), bs.Crashes)
	}
}

func TestBurstInsertSkipsOverlaps(t *testing.T) {
	// One server already down for [10, 20): a burst at t=15 must be
	// skipped for it, and the plan must still validate.
	spec := OSSFaultSpec{Servers: 1, MTBF: 1, Shape: 1, Downtime: 10, Horizon: 100}
	evs := []plannedEvent{{at: 10, down: 10}}
	if _, ok := insertEvent(evs, plannedEvent{at: 15, down: 2}, spec.Horizon); ok {
		t.Fatal("insert inside an existing outage succeeded")
	}
	if _, ok := insertEvent(evs, plannedEvent{at: 5, down: 8}, spec.Horizon); ok {
		t.Fatal("insert whose outage swallows the next event succeeded")
	}
	out, ok := insertEvent(evs, plannedEvent{at: 25, down: 2}, spec.Horizon)
	if !ok || len(out) != 2 || out[1].at != 25 {
		t.Fatalf("clean insert failed: %v %v", out, ok)
	}
	// A permanent event admits nothing after it, and cannot be inserted
	// before later events.
	perm := []plannedEvent{{at: 10, down: 0}}
	if _, ok := insertEvent(perm, plannedEvent{at: 50, down: 1}, spec.Horizon); ok {
		t.Fatal("insert after a permanent failure succeeded")
	}
	if _, ok := insertEvent(evs, plannedEvent{at: 30, down: 0}, spec.Horizon); !ok {
		t.Fatal("trailing permanent insert failed")
	}
}

func TestDrawOSSFaultsInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec did not panic")
		}
	}()
	DrawOSSFaults(OSSFaultSpec{}, 0)
}

// BenchmarkDrawOSSFaults draws one rebuild-figure pod's plan: 64
// per-drive streams plus the burst stream.
func BenchmarkDrawOSSFaults(b *testing.B) {
	spec := rebuildFigureSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DrawOSSFaultsDetailed(spec, 42+int64(i)*1_000_003)
	}
}
