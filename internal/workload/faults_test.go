package workload

import (
	"bytes"
	"testing"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// goldenFaultSpec is a small fault-injected run: N-N checkpoints so the
// pattern itself is healthy, with servers crashing and recovering under
// it.
func goldenFaultSpec() (pfs.Config, FaultSpec) {
	cfg := pfs.PanFSLike(4)
	cfg.FailTimeout = sim.Time(5e-3)
	cfg.LeaseExpiry = sim.Time(20e-3)
	plan := failure.DrawOSSFaults(failure.OSSFaultSpec{
		Servers:  4,
		MTBF:     0.4,
		Shape:    1,
		Downtime: 0.1,
		Horizon:  5,
	}, 1234)
	return cfg, FaultSpec{
		Spec: Spec{
			Ranks:        4,
			BytesPerRank: 1 << 20,
			RecordSize:   1 << 18,
			Pattern:      NN,
		},
		Checkpoints:  3,
		ComputeTime:  sim.Time(0.5),
		Plan:         plan,
		MaxRetries:   4,
		RetryBackoff: sim.Time(2e-3),
		MaxBackoff:   sim.Time(50e-3),
	}
}

// TestSameSeedFaultRunsProduceIdenticalMetrics is the fault-injected
// golden determinism test: two runs of the same seeded plan serialize to
// byte-identical metrics snapshots and traces.
func TestSameSeedFaultRunsProduceIdenticalMetrics(t *testing.T) {
	run := func() ([]byte, []byte) {
		cfg, fspec := goldenFaultSpec()
		reg := obs.NewRegistry()
		tr := obs.NewTracer()
		RunFaults(cfg, fspec, reg, tr)
		var m, tb bytes.Buffer
		if err := reg.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), tb.Bytes()
	}
	m1, t1 := run()
	m2, t2 := run()
	if !bytes.Equal(m1, m2) {
		t.Fatalf("same-seed fault-run metrics snapshots differ:\n%s\nvs\n%s", m1, m2)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("same-seed fault-run trace files differ")
	}
}

// TestNoFaultRunMatchesRunProgramsProbed is the zero-cost regression: a
// RunFaults invocation with no plan and no retries must produce the same
// metrics snapshot, series, and trace as RunPrograms issuing the
// identical phase, with op timers, series, and tracing all on — the
// fault layer's presence may not perturb a single event, and both
// harnesses must drive the shared rank loop identically.
func TestNoFaultRunMatchesRunProgramsProbed(t *testing.T) {
	cfg, spec := goldenSpec()
	capture := func(run func(reg *obs.Registry, tr *obs.Tracer)) (snap, csv, trace []byte) {
		reg := obs.NewRegistry()
		reg.EnableOpTimers()
		reg.EnableTimeSeries(0.01)
		tr := obs.NewTracer()
		run(reg, tr)
		var m, c, tb bytes.Buffer
		if err := reg.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteSeriesCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&tb); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), c.Bytes(), tb.Bytes()
	}
	baseSnap, baseCSV, baseTrace := capture(func(reg *obs.Registry, tr *obs.Tracer) {
		RunPrograms(cfg, programs(spec, cfg.StripeUnit), reg, tr)
	})
	snap, csv, trace := capture(func(reg *obs.Registry, tr *obs.Tracer) {
		RunFaults(cfg, FaultSpec{Spec: spec, Checkpoints: 1}, reg, tr)
	})
	if !bytes.Equal(baseSnap, snap) {
		t.Fatalf("disabled fault layer perturbed the run:\n%s", firstDiff(baseSnap, snap))
	}
	if !bytes.Equal(baseCSV, csv) {
		t.Fatal("disabled fault layer perturbed the series")
	}
	if !bytes.Equal(baseTrace, trace) {
		t.Fatal("disabled fault layer perturbed the trace")
	}
	if len(baseCSV) == 0 || len(baseTrace) == 0 {
		t.Fatal("empty series or trace output")
	}
}

// TestFaultRunCompletesAndAccounts exercises the full stack: injected
// crashes must surface in the metrics, the run must complete despite
// them, and the slowdown must be application-visible.
func TestFaultRunCompletesAndAccounts(t *testing.T) {
	cfg, fspec := goldenFaultSpec()
	reg := obs.NewRegistry()
	res := RunFaults(cfg, fspec, reg, nil)
	if res.WallClock <= 0 || res.Elapsed <= 0 {
		t.Fatalf("fault run did not complete: %+v", res)
	}
	if res.Faults.Crashes == 0 {
		t.Fatal("plan injected no crashes")
	}
	s := reg.Snapshot()
	if s.Counters["sim.faults.injected"] != int64(fspec.Plan.Len()) {
		t.Fatalf("sim.faults.injected = %d, want %d", s.Counters["sim.faults.injected"], fspec.Plan.Len())
	}
	if s.Counters["pfs.faults.crashes"] == 0 {
		t.Fatal("no crashes visible in metrics")
	}
	if res.Retries == 0 {
		t.Fatal("no retries under sustained faults")
	}
	if s.Counters["workload.ckpt.retries"] != res.Retries {
		t.Fatalf("retry counter %d != result %d", s.Counters["workload.ckpt.retries"], res.Retries)
	}

	// The same workload without faults must be faster and have full
	// utilization headroom.
	clean := fspec
	clean.Plan = nil
	cleanRes := RunFaults(cfg, clean, nil, nil)
	if cleanRes.Elapsed >= res.Elapsed {
		t.Fatalf("faults did not slow checkpoints: clean %v vs faulty %v", cleanRes.Elapsed, res.Elapsed)
	}
	if cleanRes.Utilization <= res.Utilization {
		t.Fatalf("faults did not cost utilization: clean %v vs faulty %v", cleanRes.Utilization, res.Utilization)
	}
}

// TestPermanentTotalFailureStillTerminates drops every server forever
// mid-run: retries exhaust, ops are dropped, and the run still ends.
func TestPermanentTotalFailureStillTerminates(t *testing.T) {
	cfg := pfs.PanFSLike(2)
	cfg.FailTimeout = sim.Time(1e-3)
	plan := sim.NewFaultPlan().
		Add(pfs.OSSTarget(0), sim.Time(1e-3), 0).
		Add(pfs.OSSTarget(1), sim.Time(1e-3), 0)
	res := RunFaults(cfg, FaultSpec{
		Spec:         Spec{Ranks: 2, BytesPerRank: 1 << 20, RecordSize: 1 << 18, Pattern: NN},
		Checkpoints:  2,
		MaxRetries:   2,
		RetryBackoff: sim.Time(1e-3),
		Plan:         plan,
	}, nil, nil)
	if res.DroppedOps == 0 {
		t.Fatal("total permanent failure dropped no ops")
	}
	if res.WallClock <= 0 {
		t.Fatal("run did not terminate")
	}
}

func TestFaultSpecValidation(t *testing.T) {
	_, fspec := goldenFaultSpec()
	bad := fspec
	bad.Checkpoints = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid fault spec did not panic")
		}
	}()
	RunFaults(pfs.PanFSLike(2), bad, nil, nil)
}
