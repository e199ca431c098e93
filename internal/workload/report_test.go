package workload

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// analyticsRun executes a fault-injected checkpoint workload with the
// full analytics configuration armed (op timers plus sim-time series)
// and returns the rendered report and time-series CSV bytes.
func analyticsRun(t *testing.T) (report, csv []byte) {
	t.Helper()
	cfg, spec := goldenSpec()
	cfg.FailTimeout = sim.Time(5e-3)
	cfg.LeaseExpiry = sim.Time(20e-3)
	// 2+1 groups so crashes launch rebuilds the report and series see.
	cfg.Redundancy = pfs.Redundancy{K: 2, M: 1}
	plan := failure.DrawOSSFaults(failure.OSSFaultSpec{
		Servers:  cfg.NumServers,
		MTBF:     2,
		Shape:    1,
		Downtime: 0.1,
		Horizon:  10,
	}, 4242)
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	reg.EnableTimeSeries(0.01)
	RunFaults(cfg, FaultSpec{
		Spec:         spec,
		Checkpoints:  2,
		ComputeTime:  sim.Time(0.2),
		Plan:         plan,
		MaxRetries:   6,
		RetryBackoff: sim.Time(5e-3),
		MaxBackoff:   sim.Time(0.1),
	}, reg, nil)
	var rep, ts bytes.Buffer
	if err := obs.WriteReport(&rep, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSeriesCSV(&ts); err != nil {
		t.Fatal(err)
	}
	return rep.Bytes(), ts.Bytes()
}

// TestReportDeterministicAcrossRunsAndGOMAXPROCS is the analytics
// determinism golden test: the rendered report and time-series CSV must
// be byte-identical across independent runs and across GOMAXPROCS
// settings — simulated latency analytics may depend only on the event
// trajectory, never on host scheduling.
func TestReportDeterministicAcrossRunsAndGOMAXPROCS(t *testing.T) {
	rep1, csv1 := analyticsRun(t)
	rep2, csv2 := analyticsRun(t)
	if !bytes.Equal(rep1, rep2) {
		t.Fatalf("same-seed reports differ:\n%s\nvs\n%s", rep1, rep2)
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("same-seed time-series CSVs differ")
	}

	prev := runtime.GOMAXPROCS(1)
	repSerial, csvSerial := analyticsRun(t)
	runtime.GOMAXPROCS(4)
	repWide, csvWide := analyticsRun(t)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(rep1, repSerial) || !bytes.Equal(repSerial, repWide) {
		t.Fatal("report bytes depend on GOMAXPROCS")
	}
	if !bytes.Equal(csv1, csvSerial) || !bytes.Equal(csvSerial, csvWide) {
		t.Fatal("time-series CSV bytes depend on GOMAXPROCS")
	}

	// The report must carry real content, not just section headers.
	for _, want := range []string{
		"pfs.write.latency_s",
		"== Stage attribution",
		"== Top bottlenecks",
		"== Timelines",
		"pfs.ops.inflight",
	} {
		if !bytes.Contains(rep1, []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, rep1)
		}
	}
	if !bytes.HasPrefix(csv1, []byte("t_s,")) || bytes.Count(csv1, []byte("\n")) < 3 {
		t.Fatalf("time-series CSV suspiciously small:\n%s", csv1)
	}
}

// TestAnalyticsRetriesChargeBackoff checks the per-logical-op timer
// survives the workload harness's retry loop: a run that retried at
// least once must attribute backoff seconds.
func TestAnalyticsRetriesChargeBackoff(t *testing.T) {
	cfg, spec := goldenSpec()
	cfg.FailTimeout = sim.Time(5e-3)
	cfg.LeaseExpiry = sim.Time(20e-3)
	plan := failure.DrawOSSFaults(failure.OSSFaultSpec{
		Servers: cfg.NumServers, MTBF: 1, Shape: 1, Downtime: 0.05, Horizon: 10,
	}, 7)
	reg := obs.NewRegistry()
	reg.EnableOpTimers()
	res := RunFaults(cfg, FaultSpec{
		Spec: spec, Checkpoints: 2, ComputeTime: sim.Time(0.2), Plan: plan,
		MaxRetries: 6, RetryBackoff: sim.Time(5e-3), MaxBackoff: sim.Time(0.1),
	}, reg, nil)
	if res.Retries == 0 {
		t.Skip("fault draw produced no retries; nothing to attribute")
	}
	if q := reg.Snapshot().Quantiles["pfs.write.stage.backoff_s"]; q.Sum <= 0 {
		t.Fatalf("run retried %d times but backoff stage sum = %v", res.Retries, q.Sum)
	}
}

// TestAnalyticsOffMatchesPlainFaultRun pins the zero-perturbation
// contract on the fault path: arming analytics must not change the
// simulated outcome, and leaving them off must not change the metrics
// a plain probed run records.
func TestAnalyticsOffMatchesPlainFaultRun(t *testing.T) {
	cfg, spec := goldenSpec()
	run := func(arm bool) (FaultResult, []byte) {
		reg := obs.NewRegistry()
		if arm {
			reg.EnableOpTimers()
			reg.EnableTimeSeries(0.01)
		}
		res := RunFaults(cfg, FaultSpec{Spec: spec, Checkpoints: 2, ComputeTime: sim.Time(0.1)}, reg, nil)
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	plain, _ := run(false)
	armed, _ := run(true)
	if plain.Elapsed != armed.Elapsed || plain.Utilization != armed.Utilization {
		t.Fatalf("arming analytics changed the simulation: %v/%v vs %v/%v",
			plain.Elapsed, plain.Utilization, armed.Elapsed, armed.Utilization)
	}
}
