package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bb"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// bbFaultSpec is the checkpoint-under-burst-buffer shape the bb
// experiment sweeps: N-N rounds against a write-back tier of two nodes.
func bbFaultSpec() (pfs.Config, FaultSpec) {
	cfg := pfs.PanFSLike(4)
	bcfg := bb.DefaultConfig(2)
	return cfg, FaultSpec{
		Spec: Spec{
			Ranks:        4,
			BytesPerRank: 1 << 20,
			RecordSize:   1 << 18,
			Pattern:      NN,
		},
		Checkpoints: 3,
		ComputeTime: sim.Time(0.5),
		BB:          &bcfg,
	}
}

// TestBufferedCheckpointHidesLatencyAndDrains: the tentpole behaviour.
// Write-back acks must shrink the application-visible checkpoint time
// well below the direct path, while the drain still delivers every
// byte to the striped FS before the run ends.
func TestBufferedCheckpointHidesLatencyAndDrains(t *testing.T) {
	cfg, fspec := bbFaultSpec()
	buffered := RunFaults(cfg, fspec, nil, nil)

	direct := fspec
	direct.BB = nil
	base := RunFaults(cfg, direct, nil, nil)

	if buffered.Elapsed <= 0 || base.Elapsed <= 0 {
		t.Fatalf("runs did not complete: buffered=%v direct=%v", buffered.Elapsed, base.Elapsed)
	}
	if buffered.Elapsed >= base.Elapsed/2 {
		t.Fatalf("buffered checkpoint %v not measurably below direct %v", buffered.Elapsed, base.Elapsed)
	}
	want := buffered.TotalBytes
	if buffered.BB.AbsorbedBytes != want {
		t.Fatalf("absorbed %d bytes, want %d", buffered.BB.AbsorbedBytes, want)
	}
	if buffered.BB.DrainedBytes != want {
		t.Fatalf("drained %d of %d bytes", buffered.BB.DrainedBytes, want)
	}
	if buffered.BB.LostBytes != 0 || buffered.BB.TornDrains != 0 {
		t.Fatalf("fault-free run lost data: %+v", buffered.BB)
	}
	if buffered.DrainedAt < buffered.WallClock {
		t.Fatalf("DrainedAt %v before WallClock %v", buffered.DrainedAt, buffered.WallClock)
	}
	if buffered.Utilization <= base.Utilization {
		t.Fatalf("latency hiding did not raise utilization: %v vs %v", buffered.Utilization, base.Utilization)
	}
}

// TestBufferSaturationStallsCheckpoint: shrink the buffer below one
// round and slow the drain so the race is lost — backpressure must
// surface and the hidden latency must come back.
func TestBufferSaturationStallsCheckpoint(t *testing.T) {
	cfg, fspec := bbFaultSpec()
	small := *fspec.BB
	small.Flash.UserPages = 256 // 1 MiB per node vs 2 MiB per round
	small.DrainBandwidth = 5e6
	sat := fspec
	sat.BB = &small
	sat.ComputeTime = sim.Time(1e-3) // rounds arrive back-to-back

	roomy := RunFaults(cfg, fspec, nil, nil)
	tight := RunFaults(cfg, sat, nil, nil)
	if tight.BB.Stalls == 0 || tight.BB.StallTime <= 0 {
		t.Fatalf("undersized buffer never stalled: %+v", tight.BB)
	}
	if tight.BB.PeakOccupancy < 0.9 {
		t.Fatalf("peak occupancy %v, want saturation", tight.BB.PeakOccupancy)
	}
	if tight.Elapsed <= roomy.Elapsed {
		t.Fatalf("saturated checkpoint %v not slower than roomy %v", tight.Elapsed, roomy.Elapsed)
	}
}

// TestBufferCrashLosesDirtyDataUnderWorkload drives a mixed plan — an
// OSS crash and a buffer-node crash — through the single fan-out sink:
// both layers must see their own targets and the write-back dirty loss
// must surface in the result.
func TestBufferCrashLosesDirtyDataUnderWorkload(t *testing.T) {
	cfg, fspec := bbFaultSpec()
	bcfg := *fspec.BB
	bcfg.DrainBandwidth = 2e6 // slow drain keeps data dirty when the node dies
	fspec.BB = &bcfg
	fspec.ComputeTime = sim.Time(0.1)
	fspec.MaxRetries = 4
	fspec.RetryBackoff = sim.Time(2e-3)
	fspec.Plan = sim.NewFaultPlan().
		Add(bb.NodeTarget(0), 0.15, 0.2).
		Add(pfs.OSSTarget(1), 0.3, 0.1)

	reg := obs.NewRegistry()
	res := RunFaults(cfg, fspec, reg, nil)
	if res.BB.Crashes != 1 {
		t.Fatalf("bb crashes = %d, want 1", res.BB.Crashes)
	}
	if res.Faults.Crashes != 1 {
		t.Fatalf("oss crashes = %d, want 1", res.Faults.Crashes)
	}
	if res.BB.LostBytes == 0 {
		t.Fatalf("write-back crash lost nothing: %+v", res.BB)
	}
	s := reg.Snapshot()
	if got := s.Counters["sim.faults.injected"]; got != 2 {
		t.Fatalf("sim.faults.injected = %d, want 2 (plan scheduled once through the fan-out)", got)
	}
	if s.Counters["bb.faults.lost_bytes"] != res.BB.LostBytes {
		t.Fatalf("bb.faults.lost_bytes = %d, want %d", s.Counters["bb.faults.lost_bytes"], res.BB.LostBytes)
	}
}

// TestSameSeedBufferedRunsAreByteIdentical is the golden determinism
// requirement for the bb experiment: two runs of the same buffered,
// fault-injected checkpoint, with op timers and series on, serialize
// byte-identical snapshots, series, and traces.
func TestSameSeedBufferedRunsAreByteIdentical(t *testing.T) {
	run := func() (snap, csv, trace []byte) {
		cfg, fspec := bbFaultSpec()
		fspec.MaxRetries = 4
		fspec.RetryBackoff = sim.Time(2e-3)
		fspec.Plan = sim.NewFaultPlan().
			Add(bb.NodeTarget(1), 0.2, 0.15).
			Add(pfs.OSSTarget(0), 0.4, 0.1)
		reg := obs.NewRegistry()
		reg.EnableOpTimers()
		reg.EnableTimeSeries(0.05)
		tr := obs.NewTracer()
		res := RunFaults(cfg, fspec, reg, tr)
		if res.BB.Crashes != 1 || res.Faults.Crashes != 1 {
			t.Fatalf("plan not applied: bb crashes %d, oss crashes %d", res.BB.Crashes, res.Faults.Crashes)
		}
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
	m1, c1, t1 := run()
	m2, c2, t2 := run()
	if !bytes.Equal(m1, m2) {
		t.Fatalf("bb snapshots diverge across same-seed runs:\n%s", firstDiff(m1, m2))
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("bb series diverge across same-seed runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("bb traces diverge across same-seed runs")
	}
}

// TestDisabledBufferRegistersNothing is the zero-cost contract for this
// layer: a BB-nil run must not register a single bb.* instrument (its
// byte-identity to the pre-tier path is pinned by the existing fault
// and golden snapshot tests).
func TestDisabledBufferRegistersNothing(t *testing.T) {
	cfg, fspec := goldenFaultSpec()
	reg := obs.NewRegistry()
	RunFaults(cfg, fspec, reg, nil)
	s := reg.Snapshot()
	for name := range s.Counters {
		if strings.HasPrefix(name, "bb.") {
			t.Fatalf("BB-nil run registered %q", name)
		}
	}
	for name := range s.Gauges {
		if strings.HasPrefix(name, "bb.") {
			t.Fatalf("BB-nil run registered %q", name)
		}
	}
}

// BenchmarkRunFaultsBuffered runs the bb experiment's shape end to end:
// rank loops, retry state, and the tier's admission, absorb and drain.
// Its allocs/op shows whether any of them allocates per op again.
func BenchmarkRunFaultsBuffered(b *testing.B) {
	cfg, fspec := bbFaultSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunFaults(cfg, fspec, nil, nil)
	}
}
