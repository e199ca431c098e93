// Package repro's root benchmark harness: ablation benches for the
// design choices the substrates expose. Each reports the quantity its
// knob moves via b.ReportMetric. The figures themselves are regenerated
// by `pdsirepro -fig all`, and pdsibench times each one.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/argon"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/flash"
	"repro/internal/giga"
	"repro/internal/incast"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkAblationBurstBuffer sweeps the flash/disk bandwidth ratio of
// the burst-buffer tier and reports achievable utilization at a 2014-era
// MTTI.
func BenchmarkAblationBurstBuffer(b *testing.B) {
	mtti := failure.ReportProjection(18).MTTISeconds(2014)
	for _, ratio := range []float64{1, 4, 10} {
		b.Run(fmt.Sprintf("flash=%gx", ratio), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				bb := failure.BurstBuffer{CheckpointBytes: 600, FlashBandwidth: ratio, DiskBandwidth: 1}
				util, _ = failure.BurstBufferUtilization(bb, 600, mtti)
			}
			b.ReportMetric(util*100, "utilization-%")
		})
	}
}

// --- Ablations (DESIGN.md "Design choices to ablate") ---

// BenchmarkAblationIndexCoalescing compares per-write index records with
// write-time coalescing in the PLFS container library.
func BenchmarkAblationIndexCoalescing(b *testing.B) {
	for _, coalesce := range []bool{false, true} {
		b.Run(fmt.Sprintf("coalesce=%v", coalesce), func(b *testing.B) {
			var entries int64
			buf := make([]byte, 4096)
			for i := 0; i < b.N; i++ {
				backend := core.NewMemBackend()
				c, err := core.CreateContainer(backend, "/c", core.Options{NumHostdirs: 4, CoalesceIndex: coalesce})
				if err != nil {
					b.Fatal(err)
				}
				w, err := c.OpenWriter(0)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 512; k++ {
					if _, err := w.WriteAt(buf, int64(k)*4096); err != nil {
						b.Fatal(err)
					}
				}
				_, entries, _ = w.Stats()
				w.Close()
			}
			b.ReportMetric(float64(entries), "index-entries")
		})
	}
}

// BenchmarkAblationHostdirs measures PLFS container-setup cost with one
// hostdir (all per-rank logs created in a single hot directory, whose
// lock serializes the creates) versus spread hostdirs.
func BenchmarkAblationHostdirs(b *testing.B) {
	for _, hd := range []int{1, 32} {
		b.Run(fmt.Sprintf("hostdirs=%d", hd), func(b *testing.B) {
			var setup, total float64
			for i := 0; i < b.N; i++ {
				res := workload.Run(pfs.PanFSLike(8), workload.Spec{
					Ranks: 128, BytesPerRank: 256 << 10, RecordSize: 47008,
					Pattern: workload.PLFSPattern, PLFSHostdirs: hd, PLFSIndexFlushEvery: 64,
				}, nil, nil)
				setup = float64(res.SetupElapsed)
				total = float64(res.SetupElapsed + res.Elapsed)
			}
			b.ReportMetric(setup*1e3, "setup-ms")
			b.ReportMetric(total*1e3, "total-ms")
		})
	}
}

// BenchmarkAblationGigaStaleMaps compares lazy stale client maps against
// synchronous invalidation.
func BenchmarkAblationGigaStaleMaps(b *testing.B) {
	for _, syncInval := range []bool{false, true} {
		b.Run(fmt.Sprintf("syncInvalidate=%v", syncInval), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := giga.DefaultConfig(8)
				cfg.SplitThreshold = 100
				cfg.SyncInvalidate = syncInval
				rate = giga.CreateStorm(cfg, 16, 8000).CreatesPerSecond
			}
			b.ReportMetric(rate, "creates/sec")
		})
	}
}

// BenchmarkAblationRTOmin sweeps the minimum retransmission timeout.
func BenchmarkAblationRTOmin(b *testing.B) {
	for _, rto := range []float64{200e-3, 10e-3, 1e-3} {
		b.Run(fmt.Sprintf("rto=%.0fms", rto*1e3), func(b *testing.B) {
			var goodput float64
			for i := 0; i < b.N; i++ {
				p := incast.DefaultParams(32)
				p.SRUBytes = 64 << 10
				p.Rounds = 2
				p.MinRTO = sim.Time(rto)
				goodput = incast.Run(p, nil, nil).GoodputBps
			}
			b.ReportMetric(goodput*8/1e6, "Mbps")
		})
	}
}

// BenchmarkAblationTimeslice sweeps the Argon slice length: too short
// approaches interleaving (guard band dominates), too long starves the
// other tenant's latency.
func BenchmarkAblationTimeslice(b *testing.B) {
	for _, slice := range []float64{10e-3, 100e-3, 500e-3} {
		b.Run(fmt.Sprintf("slice=%.0fms", slice*1e3), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				cfg := argon.DefaultConfig(1, argon.TimesliceCoSched)
				cfg.Slice = sim.Time(slice)
				cfg.Duration = 5
				frac = argon.Measure(cfg).StreamFraction
			}
			b.ReportMetric(frac, "stream-frac")
		})
	}
}

// BenchmarkAblationOverprovision sweeps flash spare area and reports the
// steady-state random write rate.
func BenchmarkAblationOverprovision(b *testing.B) {
	for _, spare := range []float64{0.07, 0.2, 0.45} {
		b.Run(fmt.Sprintf("spare=%.0f%%", spare*100), func(b *testing.B) {
			spec := flash.IntelX25M()
			spec.SpareFraction = spare
			var steady float64
			for i := 0; i < b.N; i++ {
				steady = flash.SteadyRandomWriteRate(spec, 5)
			}
			b.ReportMetric(steady, "steady-IOPS")
		})
	}
}

// BenchmarkAblationCompression sweeps on-the-fly checkpoint compression
// ratios (the PLFS follow-on) at a fixed 500 MB/s per-rank compressor.
func BenchmarkAblationCompression(b *testing.B) {
	for _, ratio := range []float64{1, 2, 4} {
		b.Run(fmt.Sprintf("ratio=%gx", ratio), func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				spec := workload.Spec{
					Ranks: 32, BytesPerRank: 4 << 20, RecordSize: 47008,
					Pattern: workload.PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
				}
				if ratio > 1 {
					spec.CompressRatio = ratio
					spec.CompressBW = 500e6
				}
				elapsed = float64(workload.Run(pfs.PanFSLike(8), spec, nil, nil).Elapsed)
			}
			b.ReportMetric(elapsed*1e3, "ckpt-ms")
		})
	}
}
