// Package repro's root benchmark harness: one benchmark per table and
// figure of the PDSI final report (see DESIGN.md's experiment index), plus
// ablation benches for the design choices the substrates expose. Each
// bench reports the figure's headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/argon"
	"repro/internal/cloudfs"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/failure"
	"repro/internal/flash"
	"repro/internal/fsstats"
	"repro/internal/fsva"
	"repro/internal/giga"
	"repro/internal/hdf5sim"
	"repro/internal/incast"
	"repro/internal/mdindex"
	"repro/internal/pfs"
	"repro/internal/placement"
	"repro/internal/pnfs"
	"repro/internal/posixext"
	"repro/internal/sim"
	"repro/internal/tape"
	"repro/internal/workload"
)

// BenchmarkFig2S3DWeakScaling regenerates Figure 2: S3D checkpoint time
// under weak scaling, and the predicted 12-hour I/O fraction.
func BenchmarkFig2S3DWeakScaling(b *testing.B) {
	for _, ranks := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var last workload.S3DPoint
			for i := 0; i < b.N; i++ {
				pts := workload.S3DWeakScaling(pfs.PanFSLike(8), workload.DefaultS3D(), []int{ranks})
				last = pts[0]
			}
			b.ReportMetric(float64(last.CheckpointTime), "ckpt-sec")
			b.ReportMetric(last.Predicted12hFraction*100, "12h-io-%")
		})
	}
}

// BenchmarkFig3FsstatsCDF regenerates Figure 3: file size CDFs over the
// eleven synthetic survey populations.
func BenchmarkFig3FsstatsCDF(b *testing.B) {
	specs := fsstats.ElevenSystems(20000)
	var median float64
	for i := 0; i < b.N; i++ {
		for j, spec := range specs {
			rep := fsstats.Survey(spec.Name, fsstats.Generate(spec, int64(j)))
			median = rep.MedianSize
		}
	}
	b.ReportMetric(median, "median-bytes")
}

// BenchmarkFig4MTTI regenerates Figure 4: the linear interrupts-vs-chips
// fit over a synthetic LANL-style fleet and the MTTI projection.
func BenchmarkFig4MTTI(b *testing.B) {
	var r2, mtti2018 float64
	for i := 0; i < b.N; i++ {
		specs := failure.LANLStyleFleet(22, 0.25, 0.8, 11)
		var sys []failure.SystemStats
		for j, spec := range specs {
			sys = append(sys, failure.Analyze(spec, failure.GenerateTrace(spec, 9, int64(100+j)), 9))
		}
		fit, err := failure.FitInterruptsVsChips(sys)
		if err != nil {
			b.Fatal(err)
		}
		r2 = fit.R2
		mtti2018 = failure.ReportProjection(18).MTTISeconds(2018)
	}
	b.ReportMetric(r2, "fit-R2")
	b.ReportMetric(mtti2018/60, "2018-MTTI-min")
}

// BenchmarkFig5Utilization regenerates Figure 5: utilization projection
// and its sub-50% crossing year.
func BenchmarkFig5Utilization(b *testing.B) {
	var year int
	for i := 0; i < b.N; i++ {
		pts := failure.BalancedUtilization(failure.ReportProjection(18), 600, 600, 2008, 2020)
		year = failure.CrossingYear(pts, 0.5)
	}
	b.ReportMetric(float64(year), "50%-crossing-year")
}

// BenchmarkFig7GigaScaling regenerates Figure 7: GIGA+ create throughput
// per server count.
func BenchmarkFig7GigaScaling(b *testing.B) {
	for _, servers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := giga.DefaultConfig(servers)
				cfg.SplitThreshold = 200
				rate = giga.CreateStorm(cfg, 32, 20000).CreatesPerSecond
			}
			b.ReportMetric(rate, "creates/sec")
		})
	}
}

// BenchmarkFig8PLFSSpeedup regenerates Figure 8: PLFS vs direct N-1 on the
// three file system presets.
func BenchmarkFig8PLFSSpeedup(b *testing.B) {
	for _, cfg := range pfs.AllPresets(8) {
		b.Run(cfg.Name, func(b *testing.B) {
			var ratio, plfsBW float64
			for i := 0; i < b.N; i++ {
				_, viaPLFS, r := workload.Speedup(cfg, 32, 4<<20, 47008)
				ratio, plfsBW = r, viaPLFS.Bandwidth
			}
			b.ReportMetric(ratio, "speedup-x")
			b.ReportMetric(plfsBW/1e6, "plfs-MB/s")
		})
	}
}

// BenchmarkFig9Incast regenerates Figure 9: goodput at the collapse point
// with the default and fixed minimum RTO.
func BenchmarkFig9Incast(b *testing.B) {
	run := func(b *testing.B, minRTO float64) {
		var goodput float64
		for i := 0; i < b.N; i++ {
			p := incast.DefaultParams(32)
			p.SRUBytes = 64 << 10
			p.Rounds = 2
			p.MinRTO = sim.Time(minRTO)
			goodput = incast.Run(p, nil, nil).GoodputBps
		}
		b.ReportMetric(goodput*8/1e6, "Mbps")
	}
	b.Run("rto=200ms", func(b *testing.B) { run(b, 200e-3) })
	b.Run("rto=1ms", func(b *testing.B) { run(b, 1e-3) })
}

// BenchmarkFig10Argon regenerates Figure 10: insulation fractions and the
// co-scheduling advantage.
func BenchmarkFig10Argon(b *testing.B) {
	b.Run("insulation", func(b *testing.B) {
		var frac float64
		for i := 0; i < b.N; i++ {
			cfg := argon.DefaultConfig(1, argon.TimesliceCoSched)
			cfg.Duration = 5
			frac = argon.Measure(cfg).StreamFraction
		}
		b.ReportMetric(frac, "stream-frac")
	})
	b.Run("cosched-vs-unsync", func(b *testing.B) {
		var adv float64
		for i := 0; i < b.N; i++ {
			u := argon.DefaultConfig(8, argon.TimesliceUnsync)
			u.Duration = 5
			c := argon.DefaultConfig(8, argon.TimesliceCoSched)
			c.Duration = 5
			adv = argon.Run(c).StreamBps / argon.Run(u).StreamBps
		}
		b.ReportMetric(adv, "cosched-advantage-x")
	})
}

// BenchmarkFig11Flash regenerates Table 1 / Figure 11: per-device rates.
func BenchmarkFig11Flash(b *testing.B) {
	for _, spec := range flash.AllTable1Devices() {
		b.Run(spec.Name, func(b *testing.B) {
			var rd, wrFresh, wrSteady float64
			for i := 0; i < b.N; i++ {
				rd = flash.RandomReadRate(spec, 2000, 3)
				wrFresh = flash.FreshRandomWriteRate(spec, 5)
				wrSteady = flash.SteadyRandomWriteRate(spec, 5)
			}
			b.ReportMetric(rd, "rd-IOPS")
			b.ReportMetric(wrFresh, "wr-fresh-IOPS")
			b.ReportMetric(wrSteady, "wr-steady-IOPS")
		})
	}
}

// BenchmarkFig12CloudFS regenerates Figure 12: the four Hadoop stacks.
func BenchmarkFig12CloudFS(b *testing.B) {
	for _, mode := range []cloudfs.Mode{cloudfs.HDFSNative, cloudfs.PVFSNaive, cloudfs.PVFSReadahead, cloudfs.PVFSLayout} {
		b.Run(mode.String(), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				tput = cloudfs.Run(cloudfs.DefaultParams(16, 64), mode).Throughput
			}
			b.ReportMetric(tput/1e6, "scan-MB/s")
		})
	}
}

// BenchmarkFig13HDF5 regenerates Figure 13: the optimization stack.
func BenchmarkFig13HDF5(b *testing.B) {
	for _, code := range []hdf5sim.Code{hdf5sim.Chombo, hdf5sim.GCRM} {
		b.Run(code.String(), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				rs := hdf5sim.RunStack(pfs.LustreLike(8), code, 32, 2<<20)
				speedup = rs[len(rs)-1].SpeedupVsBaseline
			}
			b.ReportMetric(speedup, "full-stack-x")
		})
	}
}

// BenchmarkFig14FlashDegradation regenerates Figure 14: the sustained
// random write cliff per device.
func BenchmarkFig14FlashDegradation(b *testing.B) {
	for _, spec := range []flash.Spec{flash.IntelX25M(), flash.RamSan20()} {
		b.Run(spec.Name, func(b *testing.B) {
			var deg float64
			for i := 0; i < b.N; i++ {
				res := flash.SustainedRandomWrite(spec, 1.0, 60, 1, 99, nil, "")
				deg = res[0].IOPS / res[len(res)-1].IOPS
			}
			b.ReportMetric(deg, "degradation-x")
		})
	}
}

// BenchmarkTapeVerification regenerates the §5.2.3 media statistics.
func BenchmarkTapeVerification(b *testing.B) {
	var readable float64
	for i := 0; i < b.N; i++ {
		readable = tape.Campaign(tape.NERSCArchive(), 5, 42).ReadabilityFraction
	}
	b.ReportMetric(readable*100, "readable-%")
}

// BenchmarkPlacement regenerates the placement strategy comparison.
func BenchmarkPlacement(b *testing.B) {
	chunks := placement.CheckpointChunks(256, 64, 1<<20)
	for _, s := range []placement.Strategy{placement.RoundRobin{}, placement.FileOffsetStripe{}, placement.CRUSHLike{}} {
		b.Run(s.Name(), func(b *testing.B) {
			var moved float64
			for i := 0; i < b.N; i++ {
				moved = placement.MovedFraction(s, chunks, 8, 9, 1)
			}
			b.ReportMetric(moved, "moved-frac-on-growth")
		})
	}
}

// BenchmarkRestart measures PLFS read-back: uniform vs shifted restart
// (the PDSW'09 "...And eat it too" read-performance follow-on).
func BenchmarkRestart(b *testing.B) {
	spec := workload.Spec{
		Ranks: 16, BytesPerRank: 2 << 20, RecordSize: 47008,
		Pattern: workload.PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}
	for _, kind := range []workload.RestartKind{workload.UniformRestart, workload.ShiftedRestart} {
		b.Run(kind.String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = workload.RunRestart(pfs.PanFSLike(8), spec, kind, nil, nil).Bandwidth
			}
			b.ReportMetric(bw/1e6, "MB/s")
		})
	}
}

// BenchmarkMetadataSearch compares the Spyglass-style partitioned index
// against a flat database-style scan — the 10-1000x claim of §4.2.2.
func BenchmarkMetadataSearch(b *testing.B) {
	records := make([]mdindex.FileMeta, 0, 100000)
	for p := 0; p < 250; p++ {
		for f := 0; f < 400; f++ {
			ext := []string{".h5", ".nc", ".dat", ".txt"}[p%4]
			records = append(records, mdindex.FileMeta{
				Path:  fmt.Sprintf("/proj%03d/run%02d/f%05d%s", p, f%8, f, ext),
				Size:  int64((p*37 + f*13) % (1 << 24)),
				MTime: int64(p*1000 + f),
				Owner: uint32(p % 50),
				Ext:   ext,
			})
		}
	}
	owner := uint32(8)
	maxSize := int64(4096)
	q := mdindex.Query{Owner: &owner, Ext: ".h5", MaxSize: &maxSize}
	b.Run("flat-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(mdindex.FlatScan(records, q)) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("partitioned-index", func(b *testing.B) {
		ix := mdindex.Build(records, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(ix.Search(q)) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

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

// BenchmarkPNFS regenerates the pNFS-vs-NFS scaling comparison (s2.2).
func BenchmarkPNFS(b *testing.B) {
	for _, stack := range []pnfs.Stack{pnfs.PlainNFS, pnfs.PNFSFiles} {
		b.Run(stack.String(), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = pnfs.Run(pnfs.DefaultConfig(16, 8, stack)).AggregateBps
			}
			b.ReportMetric(bw/1e6, "MB/s")
		})
	}
}

// BenchmarkFSVA regenerates the virtual-appliance forwarding overheads
// (s4.2.1).
func BenchmarkFSVA(b *testing.B) {
	for _, tr := range []fsva.Transport{fsva.Native, fsva.SyncVMRPC, fsva.SharedMemRing} {
		b.Run(tr.String(), func(b *testing.B) {
			var ops float64
			for i := 0; i < b.N; i++ {
				ops = fsva.Run(fsva.DefaultConfig(tr)).OpsPerSecond
			}
			b.ReportMetric(ops/1e3, "kops/sec")
		})
	}
}

// BenchmarkGroupOpen regenerates the openg()/openfh() POSIX-extension
// open-storm comparison (s2.2).
func BenchmarkGroupOpen(b *testing.B) {
	for _, mode := range []posixext.OpenMode{posixext.PosixOpen, posixext.GroupOpen} {
		b.Run(mode.String(), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				ms = float64(posixext.RunOpen(posixext.DefaultOpenConfig(1024, mode)).Elapsed) * 1e3
			}
			b.ReportMetric(ms, "open-storm-ms")
		})
	}
}

// BenchmarkDiagnosis regenerates the §4.2.6 peer-comparison evaluation.
func BenchmarkDiagnosis(b *testing.B) {
	var tp float64
	for i := 0; i < b.N; i++ {
		tp = diagnose.Evaluate(20, 30, 100, 5).TPRate
	}
	b.ReportMetric(tp*100, "true-positive-%")
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
