package workload

import (
	"bytes"
	"testing"

	"repro/internal/bb"
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

// TestRankLoopOpTimerAllocsPerOp is TestFaultRunAllocsPerOp's op-timer
// row for the other two harnesses on the shared rank loop: with op
// timers on, Run and RunIntegrity restart each rank's own stage timer
// for every op instead of allocating one, so an op allocates about
// nothing. Comparing a checkpoint three times as large with the base one
// cancels the set-up.
func TestRankLoopOpTimerAllocsPerOp(t *testing.T) {
	cfg := pfs.PanFSLike(4)
	sized := func(n int) Spec {
		return Spec{Ranks: 16, BytesPerRank: int64(n) << 22, RecordSize: 256 << 10, Pattern: NN}
	}
	ops := func(n int) int {
		var total int
		for r := 0; r < 16; r++ {
			total += len(rankOps(sized(n), cfg.StripeUnit, r))
		}
		return total
	}
	for _, tc := range []struct {
		name   string
		phases int // phases that issue the checkpoint's ops
		run    func(spec Spec, reg *obs.Registry)
	}{
		{"Run", 1, func(spec Spec, reg *obs.Registry) { Run(cfg, spec, reg, nil) }},
		{"RunIntegrity", 2, func(spec Spec, reg *obs.Registry) {
			RunIntegrity(cfg, IntegritySpec{Spec: spec}, reg, nil)
		}},
	} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(3, func() {
				reg := obs.NewRegistry()
				reg.EnableOpTimers()
				tc.run(sized(n), reg)
				reg.Snapshot()
			})
		}
		extra := tc.phases * (ops(3) - ops(1))
		perOp := (allocs(3) - allocs(1)) / float64(extra)
		t.Logf("%s with op timers: %.2f allocations per op over %d extra ops", tc.name, perOp, extra)
		if perOp > 0.25 {
			t.Errorf("%s with op timers: %.2f allocations per op, want at most 0.25", tc.name, perOp)
		}
	}
}

// TestFaultRunAllocsPerOp pins the harness's per-op cost at about zero
// allocations, straight into the file system and through a write-back
// burst-buffer tier: each rank's continuations and retry state, and the
// tier's absorb and drain state, are built once and reused. The op-timer
// row adds a registry with op timers on and takes its snapshot: each
// rank restarts one stage timer per op, and quantile samples land in
// chunks that growth never copies. Comparing a 3-round run with a
// 1-round run cancels the set-up, so what is left over the extra ops is
// what an op allocates once pools are warm.
func TestFaultRunAllocsPerOp(t *testing.T) {
	cfg := pfs.PanFSLike(4)
	spec := Spec{Ranks: 16, BytesPerRank: 4 << 20, RecordSize: 256 << 10, Pattern: NN}
	var opsPerRound int
	for r := 0; r < spec.Ranks; r++ {
		opsPerRound += len(rankOps(spec, cfg.StripeUnit, r))
	}
	tier := bb.DefaultConfig(2)
	for _, tc := range []struct {
		name     string
		bb       *bb.Config
		opTimers bool
	}{{"direct", nil, false}, {"write-back tier", &tier, false}, {"direct with op timers", nil, true}} {
		allocs := func(rounds int) float64 {
			fspec := FaultSpec{Spec: spec, Checkpoints: rounds, ComputeTime: sim.Time(0.5), BB: tc.bb}
			if !tc.opTimers {
				return testing.AllocsPerRun(3, func() { RunFaults(cfg, fspec, nil, nil) })
			}
			return testing.AllocsPerRun(3, func() {
				reg := obs.NewRegistry()
				reg.EnableOpTimers()
				RunFaults(cfg, fspec, reg, nil)
				reg.Snapshot()
			})
		}
		perOp := (allocs(3) - allocs(1)) / float64(2*opsPerRound)
		t.Logf("%s: %.2f allocations per logical op over %d extra ops", tc.name, perOp, 2*opsPerRound)
		if perOp > 0.25 {
			t.Errorf("%s: %.2f allocations per logical op, want at most 0.25", tc.name, perOp)
		}
	}
}

// BenchmarkRunFaultsReport times the instrumented path, as `pdsirepro
// -metrics -report` runs a figure: RunFaults on 4+1 groups under drawn
// OSS crashes with a registry and op timers on, then one Snapshot,
// which reads every count the models keep.
func BenchmarkRunFaultsReport(b *testing.B) {
	cfg := pfs.PanFSLike(8)
	cfg.Redundancy = pfs.Redundancy{K: 4, M: 1}
	fspec := FaultSpec{
		Spec:        Spec{Ranks: 16, BytesPerRank: 4 << 20, RecordSize: 47008, Pattern: N1Strided},
		Checkpoints: 3,
		ComputeTime: sim.Time(0.5),
		Plan: failure.DrawOSSFaults(failure.OSSFaultSpec{
			Servers: 8, MTBF: 2, Shape: 1, Downtime: 0.2, Horizon: 4,
		}, 1),
		MaxRetries:   20,
		RetryBackoff: sim.Time(5e-3),
		MaxBackoff:   sim.Time(100e-3),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		reg.EnableOpTimers()
		if res := RunFaults(cfg, fspec, reg, nil); res.Faults.Crashes == 0 {
			b.Fatalf("no crash applied: %+v", res.Faults)
		}
		reg.Snapshot()
	}
}
