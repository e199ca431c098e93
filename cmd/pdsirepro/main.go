// Command pdsirepro regenerates every table and figure of the PDSI final
// report's evaluation from the simulated substrates in this repository.
//
// Usage:
//
//	pdsirepro -fig all        # everything (the EXPERIMENTS.md content)
//	pdsirepro -fig 8          # just the PLFS speedup experiment
//	pdsirepro -fig 9,11,tape  # a comma-separated subset
//
// Known experiment ids: 2 3 4 5 7 8 9 10 11 12 13 14 tape place diag
// search restart power security prefetch trace pnfs fsva posix disc index
// faults integrity scale bb rebuild.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"repro/internal/archive"
	"repro/internal/bb"
	"repro/internal/cloudfs"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/diskreduce"
	"repro/internal/failure"
	"repro/internal/flash"
	"repro/internal/fsstats"
	"repro/internal/fsva"
	"repro/internal/giga"
	"repro/internal/hdf5sim"
	"repro/internal/incast"
	"repro/internal/mdindex"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/placement"
	"repro/internal/pnfs"
	"repro/internal/posixext"
	"repro/internal/prefetch"
	"repro/internal/scalatrace"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/tape"
	"repro/internal/workload"

	"repro/internal/argon"
)

// figure is one experiment: its -fig id and the method that prints it.
type figure struct {
	id    string
	print func(*run)
}

// figures is every experiment, in the order -fig all prints them.
var figures = []figure{
	{"2", (*run).fig2},
	{"3", (*run).fig3},
	{"4", (*run).fig4},
	{"5", (*run).fig5},
	{"7", (*run).fig7},
	{"8", (*run).fig8},
	{"9", (*run).fig9},
	{"10", (*run).fig10},
	{"11", (*run).fig11},
	{"12", (*run).fig12},
	{"13", (*run).fig13},
	{"14", (*run).fig14},
	{"tape", (*run).figTape},
	{"place", (*run).figPlace},
	{"diag", (*run).figDiag},
	{"search", (*run).figSearch},
	{"restart", (*run).figRestart},
	{"power", (*run).figPower},
	{"security", (*run).figSecurity},
	{"prefetch", (*run).figPrefetch},
	{"trace", (*run).figTraceComp},
	{"pnfs", (*run).figPNFS},
	{"fsva", (*run).figFSVA},
	{"posix", (*run).figPosixExt},
	{"disc", (*run).figDiskReduce},
	{"index", (*run).figIndex},
	{"faults", (*run).figFaults},
	{"integrity", (*run).figIntegrity},
	{"scale", (*run).figScale},
	{"bb", (*run).figBB},
	{"rebuild", (*run).figRebuild},
}

// run is one pdsirepro invocation, built from its command line by
// newRun: the figures to print and the writer they print to, the
// observability probe, the output files written from the probe after
// the figures, and the scale and rebuild settings. reg is non-nil when
// -metrics, -report or -timeseries is given, tr when -trace is;
// simulation-backed figures thread them into their engines, and
// successive figures accumulate into the same registry and trace.
type run struct {
	figs []figure
	out  io.Writer
	reg  *obs.Registry
	tr   *obs.Tracer

	metrics, trace, report, timeseries, cpuprofile string

	// scale is the scale figure's spec on one shard (it sweeps the
	// count); the rebuild sweep is sized by its drive population,
	// drives (OSSes) per pod, and foreground rounds.
	scale                                    workload.ScaleSpec
	rebuildDrives, rebuildOSS, rebuildRounds int
}

func main() {
	r, err := newRun(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProfile, err := obs.StartCPUProfile(r.cpuprofile)
	if err == nil {
		r.printFigures()
		err = stopProfile()
	}
	if err == nil {
		err = r.writeFiles()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// newRun parses a pdsirepro command line into a run that prints to out.
// A flag value no figure can run with, or an unknown -fig id, is an
// error returned before any figure prints; a malformed flag exits as
// flag.Parse does.
func newRun(args []string, out io.Writer) (*run, error) {
	r := &run{out: out, scale: workload.ScaleSpec{BytesPerRank: 64 << 10, ComputeTime: 0.25, InterPodLatency: 5e-6, Shards: 1}}
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	figs := fs.String("fig", "all", "comma-separated experiment ids, or 'all'")
	fs.StringVar(&r.metrics, "metrics", "", "write a deterministic metrics snapshot (JSON) to this file")
	fs.StringVar(&r.trace, "trace", "", "write a Chrome trace-event file (Perfetto/chrome://tracing) to this file")
	fs.StringVar(&r.report, "report", "", "write a latency/SLO dashboard (exact quantiles, stage attribution, bottlenecks) to this file, or '-' for stdout; enables per-op stage timers")
	fs.StringVar(&r.timeseries, "timeseries", "", "write sim-time series as CSV to this file; enables windowed sampling")
	tsWindow := fs.Float64("ts-window", 0.1, "sim-time series window in seconds (with -timeseries)")
	fs.StringVar(&r.cpuprofile, "cpuprofile", "", "write a CPU profile (runtime/pprof) of the experiments to this file")
	fs.IntVar(&r.scale.Pods, "scale-pods", 8, "scale experiment: number of file-system pods")
	fs.IntVar(&r.scale.RanksPerPod, "scale-ranks", 32, "scale experiment: checkpointing ranks per pod")
	fs.IntVar(&r.scale.ServersPerPod, "scale-oss", 4, "scale experiment: object storage servers per pod")
	fs.IntVar(&r.scale.Rounds, "scale-rounds", 2, "scale experiment: globally barriered checkpoint rounds")
	fs.IntVar(&r.rebuildDrives, "rebuild-drives", 10240, "rebuild experiment: simulated drive population at the large sweep scale")
	fs.IntVar(&r.rebuildOSS, "rebuild-oss", 64, "rebuild experiment: object storage servers (drives) per pod")
	fs.IntVar(&r.rebuildRounds, "rebuild-rounds", 3, "rebuild experiment: foreground checkpoint rounds per pod")
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits before Parse returns
	if err := r.validate(); err != nil {
		return nil, err
	}
	if *figs == "all" {
		r.figs = figures
	} else {
		for _, id := range strings.Split(*figs, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(figures, func(f figure) bool { return f.id == id })
			if i < 0 {
				return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, figureIDs())
			}
			r.figs = append(r.figs, figures[i])
		}
	}
	if r.metrics != "" || r.report != "" || r.timeseries != "" {
		r.reg = obs.NewRegistry()
	}
	if r.report != "" {
		r.reg.EnableOpTimers()
	}
	if r.timeseries != "" {
		r.reg.EnableTimeSeries(*tsWindow)
	}
	if r.trace != "" {
		r.tr = obs.NewTracer()
	}
	return r, nil
}

// validate checks every spec the experiment flags build, so a bad value
// stops the run before any figure prints.
func (r *run) validate() error {
	if err := r.scale.Validate(); err != nil {
		return fmt.Errorf("invalid -scale-* flags: %w", err)
	}
	for _, drives := range r.rebuildScales() {
		for _, km := range rebuildCodes {
			for _, ratio := range rebuildRatios {
				if err := r.rebuildSpec(drives, km[0], km[1], ratio, true).Validate(); err != nil {
					return fmt.Errorf("invalid -rebuild-* flags: %w", err)
				}
			}
		}
	}
	return nil
}

// figureIDs lists the known -fig ids in -fig all order.
func figureIDs() string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return strings.Join(ids, " ")
}

// printFigures prints the run's figures in order, each followed by a
// blank line.
func (r *run) printFigures() {
	for _, f := range r.figs {
		f.print(r)
		fmt.Fprintln(r.out)
	}
}

// writeFiles writes the output files the flags named from the run's
// probe: metrics, report, series, then trace.
func (r *run) writeFiles() error {
	return obs.WriteFiles(r.out, r.reg, r.tr, r.metrics, r.report, r.timeseries, r.trace)
}

func (r *run) header(title string) {
	fmt.Fprintln(r.out, strings.Repeat("=", 72))
	fmt.Fprintln(r.out, title)
	fmt.Fprintln(r.out, strings.Repeat("=", 72))
}

func mb(bps float64) float64 { return bps / 1e6 }

// fig2: S3D weak-scaling checkpoint time and predicted 12-hour fraction.
func (r *run) fig2() {
	r.header("Figure 2 — S3D checkpoint I/O, weak scaling (c2h4-style problem)")
	fsCfg := pfs.PanFSLike(8)
	points := workload.S3DWeakScaling(fsCfg, workload.DefaultS3D(), []int{16, 32, 64, 128, 256})
	fmt.Fprintf(r.out, "%8s %16s %14s %22s\n", "ranks", "ckpt time (s)", "I/O fraction", "12h predicted I/O frac")
	for _, p := range points {
		fmt.Fprintf(r.out, "%8d %16.2f %14.3f %22.3f\n",
			p.Ranks, float64(p.CheckpointTime), p.FractionIO, p.Predicted12hFraction)
	}
	fmt.Fprintln(r.out, "shape check: I/O fraction grows with scale (1% at small N -> tens of % at large N)")
}

// fig3: CDF of file sizes across eleven surveyed file systems.
func (r *run) fig3() {
	r.header("Figure 3 — CDF of file sizes across eleven non-archival file systems")
	fmt.Fprintf(r.out, "%-16s %10s %12s %12s %14s %16s\n",
		"system", "files", "median", "p90", "%files<=64K", "%bytes>1M")
	for i, spec := range fsstats.ElevenSystems(40000) {
		rep := fsstats.Survey(spec.Name, fsstats.Generate(spec, int64(100+i)))
		fmt.Fprintf(r.out, "%-16s %10d %12.0f %12.0f %14.1f %16.1f\n",
			rep.Name, rep.Count, rep.MedianSize, rep.P90Size,
			rep.FractionFilesUnder[64<<10]*100, rep.FractionBytesOver[1<<20]*100)
	}
	fmt.Fprintln(r.out, "shape check: medians are small (KBs) while most bytes sit in >1MB files")
}

// fig4: interrupts linear in chips; MTTI projection.
func (r *run) fig4() {
	r.header("Figure 4 — interrupts linear in #chips; projected MTTI vs year")
	specs := failure.LANLStyleFleet(22, 0.25, 0.8, 11)
	var sys []failure.SystemStats
	for i, spec := range specs {
		sys = append(sys, failure.Analyze(spec, failure.GenerateTrace(spec, 9, int64(100+i)), 9))
	}
	fit, err := failure.FitInterruptsVsChips(sys)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(r.out, "fleet fit: interrupts/yr = %.3f * chips + %.1f   (R2 = %.3f)\n",
		fit.Slope, fit.Intercept, fit.R2)
	fmt.Fprintf(r.out, "\n%6s %18s %18s %18s\n", "year", "MTTI (18mo chip 2x)", "MTTI (24mo)", "MTTI (30mo)")
	for y := 2008; y <= 2020; y += 2 {
		m18 := failure.ReportProjection(18).MTTISeconds(y)
		m24 := failure.ReportProjection(24).MTTISeconds(y)
		m30 := failure.ReportProjection(30).MTTISeconds(y)
		fmt.Fprintf(r.out, "%6d %15.1f min %15.1f min %15.1f min\n", y, m18/60, m24/60, m30/60)
	}
	fmt.Fprintln(r.out, "shape check: MTTI falls from hours toward minutes approaching exascale")
}

// fig5: effective application utilization under balanced growth.
func (r *run) fig5() {
	r.header("Figure 5 — effective application utilization (checkpoint/restart)")
	fmt.Fprintf(r.out, "%6s %14s %14s %14s %16s\n", "year", "util (18mo)", "util (24mo)", "util (30mo)", "process pairs")
	series := map[float64][]failure.UtilizationPoint{}
	for _, m := range []float64{18, 24, 30} {
		series[m] = failure.BalancedUtilization(failure.ReportProjection(m), 600, 600, 2008, 2020)
	}
	for i := range series[18] {
		p18, p24, p30 := series[18][i], series[24][i], series[30][i]
		pp := failure.ProcessPairsUtilization(failure.Daly{Delta: 600, Restart: 600, MTTI: p18.MTTI})
		fmt.Fprintf(r.out, "%6d %14.3f %14.3f %14.3f %16.3f\n",
			p18.Year, p18.Utilization, p24.Utilization, p30.Utilization, pp)
	}
	for _, m := range []float64{18, 24, 30} {
		fmt.Fprintf(r.out, "50%% crossing (chip 2x every %.0f mo): %d\n",
			m, failure.CrossingYear(series[m], 0.5))
	}
	bbSeries := failure.BurstBufferProjection(failure.ReportProjection(18), 600, 600, 10, 2008, 2020)
	fmt.Fprintf(r.out, "with a 10x flash burst buffer the crossing moves to: %d\n",
		failure.CrossingYear(bbSeries, 0.5))
	fmt.Fprintln(r.out, "shape check: utilization crosses below 50% before 2014")
}

// fig7: GIGA+ create throughput scaling.
func (r *run) fig7() {
	r.header("Figure 7 — GIGA+ directory create throughput vs metadata servers")
	fmt.Fprintf(r.out, "%8s %16s %12s %10s %12s %12s\n",
		"servers", "creates/sec", "partitions", "splits", "addr errs", "imbalance")
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		cfg := giga.DefaultConfig(s)
		cfg.SplitThreshold = 200
		res := giga.CreateStorm(cfg, 64, 40000)
		fmt.Fprintf(r.out, "%8d %16.0f %12d %10d %12d %12.2f\n",
			s, res.CreatesPerSecond, res.Partitions, res.Splits, res.AddressingErrors, res.LoadImbalance)
	}
	base := giga.SingleServerBaseline(giga.DefaultConfig(1).InsertTime, giga.DefaultConfig(1).RPC, 64, 40000)
	fmt.Fprintf(r.out, "conventional single metadata server baseline: %.0f creates/sec\n", base.CreatesPerSecond)
	fmt.Fprintln(r.out, "shape check: near-linear scaling with servers; baseline flat")
}

// fig8: PLFS checkpoint speedups on three file system presets.
func (r *run) fig8() {
	r.header("Figure 8 — PLFS checkpoint bandwidth vs direct N-1 strided writes")
	fmt.Fprintf(r.out, "%-14s %16s %16s %16s %10s\n",
		"file system", "N-1 direct MB/s", "PLFS MB/s", "N-N MB/s", "speedup")
	for _, cfg := range pfs.AllPresets(8) {
		base := workload.Spec{Ranks: 32, BytesPerRank: 4 << 20, RecordSize: 47008, Pattern: workload.N1Strided}
		direct := workload.Run(cfg, base, r.reg, r.tr)
		viaSpec := base
		viaSpec.Pattern = workload.PLFSPattern
		viaSpec.PLFSHostdirs = 32
		viaSpec.PLFSIndexFlushEvery = 64
		viaPLFS := workload.Run(cfg, viaSpec, r.reg, r.tr)
		nnSpec := base
		nnSpec.Pattern = workload.NN
		nn := workload.Run(cfg, nnSpec, r.reg, r.tr)
		var ratio float64
		if direct.Bandwidth > 0 {
			ratio = viaPLFS.Bandwidth / direct.Bandwidth
		}
		fmt.Fprintf(r.out, "%-14s %16.1f %16.1f %16.1f %9.1fx\n",
			cfg.Name, mb(direct.Bandwidth), mb(viaPLFS.Bandwidth), mb(nn.Bandwidth), ratio)
	}
	fmt.Fprintln(r.out, "shape check: order-of-magnitude speedups (LANL saw 5-28x in production,")
	fmt.Fprintln(r.out, "10x Chombo, ~100x FLASH); PLFS lands within a small factor of native N-N")
}

// fig9: TCP incast goodput collapse and the low-RTO fix.
func (r *run) fig9() {
	r.header("Figure 9 — TCP incast: goodput vs number of synchronized senders")
	counts := []int{1, 2, 4, 8, 16, 32, 48, 64}
	fmt.Fprintf(r.out, "%8s %20s %20s %22s\n", "senders", "200ms RTO (Mbps)", "1ms RTO (Mbps)", "1ms+random (Mbps)")
	slow := incast.Sweep(counts, nil, r.reg, r.tr)
	fast := incast.Sweep(counts, func(p *incast.Params) { p.MinRTO = 1e-3 }, r.reg, r.tr)
	rnd := incast.Sweep(counts, func(p *incast.Params) { p.MinRTO = 1e-3; p.RTORandomize = true }, r.reg, r.tr)
	for i, n := range counts {
		fmt.Fprintf(r.out, "%8d %20.1f %20.1f %22.1f\n",
			n, slow[i].GoodputBps*8/1e6, fast[i].GoodputBps*8/1e6, rnd[i].GoodputBps*8/1e6)
	}
	fmt.Fprintln(r.out, "shape check: default-RTO goodput collapses >10x past the buffer limit;")
	fmt.Fprintln(r.out, "1ms minimum RTO restores most of the link bandwidth")
}

// fig10: Argon performance insulation.
func (r *run) fig10() {
	r.header("Figure 10 — Argon: insulation of a stream vs a random-I/O tenant")
	fmt.Fprintf(r.out, "%-20s %18s %18s\n", "policy", "stream frac of solo", "random frac of solo")
	for _, pol := range []argon.Policy{argon.Interleave, argon.TimesliceCoSched} {
		cfg := argon.DefaultConfig(1, pol)
		cfg.Duration = 10
		ins := argon.Measure(cfg)
		fmt.Fprintf(r.out, "%-20s %18.2f %18.2f\n", pol, ins.StreamFraction, ins.RandFraction)
	}
	fmt.Fprintln(r.out, "\ncluster co-scheduling (8 servers, striped synchronous client):")
	fmt.Fprintf(r.out, "%-20s %16s\n", "policy", "stream MB/s")
	for _, pol := range []argon.Policy{argon.TimesliceUnsync, argon.TimesliceCoSched} {
		cfg := argon.DefaultConfig(8, pol)
		cfg.Duration = 10
		res := argon.Run(cfg)
		fmt.Fprintf(r.out, "%-20s %16.1f\n", pol, mb(res.StreamBps))
	}
	fmt.Fprintln(r.out, "shape check: timeslicing gives each tenant ~fair share minus a <10% guard")
	fmt.Fprintln(r.out, "band; co-scheduled slices recover ~90% of best case vs unsynchronized")
}

// fig11: Table 1 + flash vs disk characteristics.
func (r *run) fig11() {
	r.header("Figure 11 / Table 1 — flash device characteristics vs magnetic disk")
	fmt.Fprintf(r.out, "%-32s %12s %14s %14s %14s\n",
		"device", "seq MB/s", "rd 4K IOPS", "wr 4K fresh", "wr 4K steady")
	for _, spec := range flash.AllTable1Devices() {
		fmt.Fprintf(r.out, "%-32s %12.0f %14.0f %14.0f %14.0f\n",
			spec.Name,
			flash.SequentialWriteRate(spec)/1e6,
			flash.RandomReadRate(spec, 2000, 3),
			flash.FreshRandomWriteRate(spec, 5),
			flash.SteadyRandomWriteRate(spec, 5))
	}
	fmt.Fprintln(r.out, "magnetic disk reference: ~70-90 MB/s sequential, ~100-150 random 4K IOPS")
	fmt.Fprintln(r.out, "shape check: flash random reads 100-1000x disk; sustained random writes")
	fmt.Fprintln(r.out, "degrade sharply once the pre-erased pool drains")
}

// fig12: Hadoop-on-PVFS vs HDFS.
func (r *run) fig12() {
	r.header("Figure 12 — Hadoop text search: HDFS vs PVFS shim variants")
	fmt.Fprintf(r.out, "%-30s %12s %14s %10s %10s\n", "stack", "job (s)", "scan MB/s", "local", "remote")
	for _, res := range cloudfs.Compare(cloudfs.DefaultParams(16, 64)) {
		fmt.Fprintf(r.out, "%-30s %12.2f %14.1f %10d %10d\n",
			res.Mode, float64(res.Elapsed), mb(res.Throughput), res.LocalReads, res.RemoteReads)
	}
	fmt.Fprintln(r.out, "shape check: naive shim > 2x slower than HDFS; readahead closes most of")
	fmt.Fprintln(r.out, "the gap; exposing replica layout reaches parity")
}

// fig13: HDF5 optimization stack.
func (r *run) fig13() {
	r.header("Figure 13 — cumulative HDF5 optimization benefits (Chombo, GCRM)")
	fsCfg := pfs.LustreLike(8)
	for _, code := range []hdf5sim.Code{hdf5sim.Chombo, hdf5sim.GCRM} {
		fmt.Fprintf(r.out, "%s:\n", code)
		for _, lv := range hdf5sim.RunStack(fsCfg, code, 32, 2<<20) {
			fmt.Fprintf(r.out, "  %-26s %12.1f MB/s %10.1fx\n", lv.Level, mb(lv.Bandwidth), lv.SpeedupVsBaseline)
		}
	}
	fmt.Fprintln(r.out, "shape check: each optimization compounds; full stack reaches an order of")
	fmt.Fprintln(r.out, "magnitude (report: up to 33x) and approaches the file system's peak")
}

// fig14: sustained random write degradation.
func (r *run) fig14() {
	r.header("Figure 14 — sustained 4K random write IOPS over time per device")
	for i, spec := range flash.AllTable1Devices() {
		res := flash.SustainedRandomWrite(spec, 1.0, 60, 5, 99,
			r.reg, fmt.Sprintf("flash.dev%02d", i))
		fmt.Fprintf(r.out, "%-32s ", spec.Name)
		for _, w := range res {
			fmt.Fprintf(r.out, "%8.0f", w.IOPS)
		}
		fmt.Fprintf(r.out, "   (IOPS per 5s window; WA end %.2f)\n", res[len(res)-1].WriteAmp)
	}
	fmt.Fprintln(r.out, "shape check: SATA-class (low spare area) devices fall off a cliff;")
	fmt.Fprintln(r.out, "PCIe-class (high overprovisioning) decline far more gently")
}

// figTape: NERSC tape verification statistics.
func (r *run) figTape() {
	r.header("Tape verification — NERSC media migration (§5.2.3)")
	migration := tape.Campaign(tape.NERSCArchive(), 5, 42)
	appliance := tape.Campaign(tape.NERSCArchive(), 1, 42)
	fmt.Fprintf(r.out, "tapes read:                  %d (%.1f TB)\n", migration.Tapes, migration.DataGB/1e3)
	fmt.Fprintf(r.out, "fully readable (5 retries):  %d (%.3f%%)\n",
		migration.FullyRead, migration.ReadabilityFraction*100)
	fmt.Fprintf(r.out, "unreadable after retries:    %d tapes, %d files, %.1f GB\n",
		migration.Unreadable, migration.LostFiles, migration.LostGB)
	fmt.Fprintf(r.out, "single-pass appliance flags: %d (overstates by %.1fx)\n",
		appliance.Unreadable, float64(appliance.Unreadable)/float64(migration.Unreadable))
	fmt.Fprintln(r.out, "shape check: ~99.95% of media fully readable; appliance needs 3-5 rereads")
}

// figPlace: placement strategy comparison.
func (r *run) figPlace() {
	r.header("Placement — strategy comparison (§4.2.3 parallel layout study)")
	chunks := placement.CheckpointChunks(256, 64, 1<<20)
	small := placement.CheckpointChunks(4096, 1, 1<<20)
	fmt.Fprintf(r.out, "%-20s %12s %16s %14s\n", "strategy", "imbalance", "small-file imbal", "moved 8->9")
	for _, s := range []placement.Strategy{placement.RoundRobin{}, placement.FileOffsetStripe{}, placement.CRUSHLike{}} {
		ev := placement.Evaluate(s, chunks, 8, 1)
		evs := placement.Evaluate(s, small, 8, 1)
		moved := placement.MovedFraction(s, chunks, 8, 9, 1)
		fmt.Fprintf(r.out, "%-20s %12.2f %16.2f %14.2f\n", s.Name(), ev.Imbalance, evs.Imbalance, moved)
	}
	fmt.Fprintln(r.out, "shape check: round-robin convoys small files on server 0; CRUSH-like")
	fmt.Fprintln(r.out, "placement moves only ~1/n of data on growth")
}

// figSearch: partitioned metadata search vs flat scan.
func (r *run) figSearch() {
	r.header("Metadata search — Spyglass-style partitioned index (§4.2.2)")
	records := make([]mdindex.FileMeta, 0, 200000)
	for p := 0; p < 500; p++ {
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
	ix := mdindex.Build(records, 1)
	owner := uint32(8)
	maxSize := int64(4096)
	q := mdindex.Query{Owner: &owner, Ext: ".h5", MaxSize: &maxSize}

	// Warm both paths, then time several iterations for stable numbers.
	flat := mdindex.FlatScan(records, q)
	idx := ix.Search(q)
	const iters = 20
	swFlat := obs.StartStopwatch()
	for i := 0; i < iters; i++ {
		mdindex.FlatScan(records, q)
	}
	flatDur := swFlat.Elapsed() / iters
	swIdx := obs.StartStopwatch()
	for i := 0; i < iters; i++ {
		ix.Search(q)
	}
	idxDur := swIdx.Elapsed() / iters

	fmt.Fprintf(r.out, "corpus:          %d files in %d partitions\n", ix.Len(), ix.Partitions())
	fmt.Fprintf(r.out, "query:           owner=8 AND ext=.h5 AND size<=4K -> %d matches (flat scan agrees: %v)\n",
		len(idx), len(idx) == len(flat))
	fmt.Fprintf(r.out, "flat scan:       %v over %d records\n", flatDur, len(records))
	perQuery := ix.RecordsScanned / (iters + 1)
	fmt.Fprintf(r.out, "partitioned:     %v over %d records (%.0fx wall, %.0fx fewer records)\n",
		idxDur, perQuery, float64(flatDur)/float64(idxDur),
		float64(len(records))/float64(perQuery))
	fmt.Fprintln(r.out, "shape check: 10-1000x over a database-style scan on selective queries")
}

// figRestart: PLFS read-back performance.
func (r *run) figRestart() {
	r.header("Restart — PLFS read-back (PDSW'09 '...And eat it too')")
	cfg := pfs.PanFSLike(8)
	spec := workload.Spec{
		Ranks: 16, BytesPerRank: 4 << 20, RecordSize: 47008,
		Pattern: workload.PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}
	uni := workload.RunRestart(cfg, spec, workload.UniformRestart, r.reg, r.tr)
	sh := workload.RunRestart(cfg, spec, workload.ShiftedRestart, r.reg, r.tr)
	direct := workload.RunRestart(cfg, workload.Spec{
		Ranks: 16, BytesPerRank: 4 << 20, RecordSize: 47008, Pattern: workload.N1Strided,
	}, workload.UniformRestart, r.reg, r.tr)
	fmt.Fprintf(r.out, "%-34s %12s %14s\n", "scenario", "time (s)", "MB/s moved")
	fmt.Fprintf(r.out, "%-34s %12.2f %14.1f\n", "PLFS write + uniform restart", float64(uni.Elapsed), mb(uni.Bandwidth))
	fmt.Fprintf(r.out, "%-34s %12.2f %14.1f\n", "PLFS write + shifted restart", float64(sh.Elapsed), mb(sh.Bandwidth))
	fmt.Fprintf(r.out, "%-34s %12.2f %14.1f\n", "direct N-1 write + restart", float64(direct.Elapsed), mb(direct.Bandwidth))
	fmt.Fprintln(r.out, "shape check: uniform restart streams each rank's own log; shifted")
	fmt.Fprintln(r.out, "restart pays scattered log reads but still beats the direct pattern")
}

// figIndex: PLFS global-index build scaling (sweep-line merge).
func (r *run) figIndex() {
	r.header("Index build — sweep-line global-index merge, N-1 strided entries")
	fmt.Fprintf(r.out, "%12s %12s %14s %16s\n", "entries", "extents", "build (ms)", "entries/s")
	for _, n := range []int{1 << 14, 1 << 16, 1 << 18, 1 << 20} {
		entries := make([]core.IndexEntry, n)
		const writers, rec = 64, 4096
		for i := range entries {
			w := i % writers
			entries[i] = core.IndexEntry{
				LogicalOffset: int64(i) * rec,
				Length:        rec,
				Writer:        int32(w),
				LogOffset:     int64(i/writers) * rec,
				Timestamp:     uint64(i + 1),
			}
		}
		sw := obs.StartStopwatch()
		g := core.BuildGlobalIndex(entries)
		dur := sw.Elapsed()
		fmt.Fprintf(r.out, "%12d %12d %14.1f %16.0f\n",
			n, g.NumExtents(), float64(dur.Microseconds())/1e3, float64(n)/dur.Seconds())
	}
	fmt.Fprintln(r.out, "shape check: wall time grows near-linearly on these checkpoint-ordered")
	fmt.Fprintln(r.out, "entries, O(n log n) at worst (the pre-rewrite overlay was quadratic:")
	fmt.Fprintln(r.out, "32k entries took seconds, 1M was infeasible); timings are measured on")
	fmt.Fprintln(r.out, "this host, so only the scaling shape is reproducible")
}

// figPower: power-managed archival storage.
func (r *run) figPower() {
	r.header("Archival power — Pergamum-style spin-down archive (§4.2.4/UCSC)")
	fmt.Fprintf(r.out, "%-18s %12s %12s %12s %14s\n",
		"policy", "avg watts", "spin-ups", "sleep frac", "p99 latency")
	for _, pol := range []archive.Policy{archive.Striped, archive.Packed, archive.SemanticGroups} {
		res := archive.Run(archive.DefaultConfig(16, pol))
		fmt.Fprintf(r.out, "%-18s %12.1f %12d %12.2f %14v\n",
			pol, res.AvgWatts, res.SpinUps, res.DiskSleepFrac, res.P99Latency)
	}
	fmt.Fprintf(r.out, "always-on array baseline: %.1f watts\n",
		archive.AlwaysOnWatts(archive.DefaultConfig(16, archive.Packed)))
	fmt.Fprintln(r.out, "shape check: spin-down archives run far below always-on power;")
	fmt.Fprintln(r.out, "semantic grouping minimizes wake-ups; striping wakes everything")
}

// figSecurity: Maat capability overheads.
func (r *run) figSecurity() {
	r.header("Security — scalable capabilities for parallel file systems (§4.2.4)")
	fmt.Fprintf(r.out, "%-24s %18s %18s\n", "scheme", "shared-file ovhd", "private-file ovhd")
	for _, mode := range []security.Mode{security.PerFileCaps, security.ExtendedCaps} {
		sh := security.Overhead(security.DefaultConfig(32, mode, true))
		pr := security.Overhead(security.DefaultConfig(32, mode, false))
		fmt.Fprintf(r.out, "%-24s %17.1f%% %17.1f%%\n", mode, sh*100, pr*100)
	}
	fmt.Fprintln(r.out, "shape check: Maat's extended capabilities keep overhead at 1-2%")
	fmt.Fprintln(r.out, "typical and under 6-7% on shared-file/shared-disk workloads")
}

// figPrefetch: GMC multi-order prefetching.
func (r *run) figPrefetch() {
	r.header("Prefetching — Global Multi-order Context analysis (§5.4.2)")
	stream := prefetch.MixedPhases(64, 4, 12)
	fmt.Fprintf(r.out, "%8s %12s %12s\n", "order", "accuracy", "coverage")
	for _, order := range []int{1, 2, 3} {
		m := prefetch.Evaluate(stream, order)
		fmt.Fprintf(r.out, "%8d %12.3f %12.3f\n", m.Order, m.Accuracy, m.Coverage)
	}
	m1 := prefetch.Evaluate(stream, 1)
	m3 := prefetch.Evaluate(stream, 3)
	fmt.Fprintf(r.out, "GMC (order 3) coverage gain over order 1: %.0f%%\n",
		(m3.Coverage/m1.Coverage-1)*100)
	fmt.Fprintln(r.out, "shape check: multi-order context raises coverage while keeping")
	fmt.Fprintln(r.out, "accuracy (the paper's layout/prefetch work reported >= 24% benefit)")
}

// figTraceComp: ScalaTrace-style trace compression.
func (r *run) figTraceComp() {
	r.header("Trace compression — ScalaTrace-style loop folding (§5.4.2)")
	loop := []scalatrace.Event{
		{Op: "open", File: 1, Size: 0},
		{Op: "write", File: 1, Delta: 47008, Size: 47008},
		{Op: "write", File: 1, Delta: 47008, Size: 47008},
		{Op: "close", File: 1, Size: 0},
	}
	fmt.Fprintf(r.out, "%12s %14s %14s %12s\n", "iterations", "events", "stored terms", "ratio")
	for _, iters := range []int{10, 100, 1000, 10000} {
		var events []scalatrace.Event
		for i := 0; i < iters; i++ {
			events = append(events, loop...)
		}
		tr := scalatrace.Compress(events, 64)
		fmt.Fprintf(r.out, "%12d %14d %14d %11.0fx\n",
			iters, tr.Len(), tr.TermCount(), tr.CompressionRatio())
	}
	fmt.Fprintln(r.out, "shape check: stored size tracks program structure, not run length")
}

// figPNFS: parallel NFS scaling vs plain NFS.
func (r *run) figPNFS() {
	r.header("pNFS — parallel NFS vs the NAS bottleneck (§2.2)")
	fmt.Fprintf(r.out, "%8s %16s %16s %20s\n", "servers", "nfs MB/s", "pnfs MB/s", "pnfs no-layout-cache")
	counts := []int{1, 2, 4, 8, 16}
	nfs := pnfs.ScalingSweep(16, counts, pnfs.PlainNFS)
	pn := pnfs.ScalingSweep(16, counts, pnfs.PNFSFiles)
	nc := pnfs.ScalingSweep(16, counts, pnfs.PNFSNoCache)
	for i, n := range counts {
		fmt.Fprintf(r.out, "%8d %16.1f %16.1f %20.1f\n",
			n, mb(nfs[i].AggregateBps), mb(pn[i].AggregateBps), mb(nc[i].AggregateBps))
	}
	fmt.Fprintln(r.out, "shape check: plain NFS is pinned at one server's NIC; pNFS scales with")
	fmt.Fprintln(r.out, "data servers; layout caching keeps the metadata server off the data path")
}

// figFSVA: file system virtual appliance forwarding overheads.
func (r *run) figFSVA() {
	r.header("FSVA — file system virtual appliances (§4.2.1)")
	fmt.Fprintf(r.out, "%-26s %14s %14s\n", "transport", "kops/sec", "overhead")
	for _, res := range fsva.Compare(fsva.DefaultConfig(fsva.Native)) {
		fmt.Fprintf(r.out, "%-26s %14.1f %13.1f%%\n",
			res.Config.Transport, res.OpsPerSecond/1e3, res.OverheadVsNative*100)
	}
	fmt.Fprintf(r.out, "porting churn avoided: %.0f engineer-weeks/year (quarterly kernels,\n",
		fsva.PortingChurn(4, 1, 4))
	fmt.Fprintln(r.out, "annual FS releases, 4-week ports)")
	fmt.Fprintln(r.out, "shape check: shared-memory forwarding lands within a few percent of a")
	fmt.Fprintln(r.out, "native kernel client; synchronous per-op VM crossings do not")
}

// figPosixExt: HEC POSIX extensions (group open).
func (r *run) figPosixExt() {
	r.header("POSIX HEC extensions — openg()/openfh() group open (§2.2)")
	fmt.Fprintf(r.out, "%8s %18s %18s %10s\n", "procs", "posix open (ms)", "group open (ms)", "speedup")
	for _, n := range []int{64, 256, 1024, 4096} {
		p := posixext.RunOpen(posixext.DefaultOpenConfig(n, posixext.PosixOpen))
		g := posixext.RunOpen(posixext.DefaultOpenConfig(n, posixext.GroupOpen))
		fmt.Fprintf(r.out, "%8d %18.2f %18.2f %9.0fx\n",
			n, float64(p.Elapsed)*1e3, float64(g.Elapsed)*1e3,
			float64(p.Elapsed)/float64(g.Elapsed))
	}
	l := posixext.Layout{StripeUnit: 64 << 10, StripeCount: 8}
	fmt.Fprintf(r.out, "layout query: 47008-byte records align to %d (misalignment was %.0f%%)\n",
		l.AlignUp(47008), l.Misalignment(47008)*100)
	fmt.Fprintln(r.out, "shape check: group open turns an O(N) metadata storm into one")
	fmt.Fprintln(r.out, "resolution plus a log-depth broadcast")
}

// figDiskReduce: background erasure coding of replicated DISC storage.
func (r *run) figDiskReduce() {
	r.header("DiskReduce — replication as a prelude to erasure coding (PDSW'09)")
	cfg := diskreduce.DefaultConfig()
	cfg.EncodeAfter = 10
	traj := diskreduce.Simulate(cfg, 100, 120)
	fmt.Fprintf(r.out, "%8s %20s\n", "tick", "capacity overhead")
	for _, tick := range []int{0, 5, 10, 20, 40, 80, 119} {
		fmt.Fprintf(r.out, "%8d %20.2f\n", tick, traj[tick])
	}
	fmt.Fprintf(r.out, "RAID-6 group-of-8 floor: %.2fx; triplication: 3.00x\n",
		diskreduce.RAID6Group.Overhead(cfg.GroupSize))
	fmt.Fprintln(r.out, "shape check: overhead starts at 3x and converges toward the RAID floor")
	fmt.Fprintln(r.out, "as cold blocks encode, while hot blocks keep replicas for locality")
}

// figFaults: fault-injected checkpointing vs the analytic optimum-interval
// model. The same Weibull failure machinery that drives the Figure 4/5
// projections is turned into a concrete fault plan; object storage servers
// crash mid-checkpoint and the application-visible slowdown is compared
// against the Daly model's predictions.
func (r *run) figFaults() {
	r.header("Faults — injected OSS crashes vs the Daly checkpoint-interval model")
	cfg := pfs.PanFSLike(4)
	cfg.FailTimeout = sim.Time(5e-3)
	cfg.LeaseExpiry = sim.Time(20e-3)
	// 2+1 is the widest code that leaves 4 servers a rebuild spare.
	cfg.Redundancy = pfs.Redundancy{K: 2, M: 1}
	spec := workload.Spec{Ranks: 8, BytesPerRank: 2 << 20, RecordSize: 1 << 18, Pattern: workload.NN}

	// The healthy capture time is the Daly model's delta.
	clean := workload.RunFaults(cfg, workload.FaultSpec{Spec: spec, Checkpoints: 1}, r.reg, r.tr)
	delta := float64(clean.Elapsed)

	const (
		serverMTBF = 8.0 // seconds — accelerated so crashes land inside the run
		downtime   = 0.5
		seed       = 4242
		rounds     = 6
	)
	// Any server's crash interrupts the whole striped checkpoint, so the
	// application-visible MTTI is the per-server MTBF over the server count.
	mtti := serverMTBF / float64(cfg.NumServers)
	model := failure.Daly{Delta: delta, Restart: downtime, MTTI: mtti}
	tauOpt := model.OptimalInterval()

	fmt.Fprintf(r.out, "healthy capture: delta = %.3f s; server MTBF %.0f s x %d servers -> MTTI %.1f s\n",
		delta, serverMTBF, cfg.NumServers, mtti)
	fmt.Fprintf(r.out, "analytic optimum: tau* = %.2f s -> predicted utilization %.3f\n\n",
		tauOpt, model.OptimalUtilization())

	fmt.Fprintf(r.out, "%10s %15s %10s %15s %10s %10s %10s\n",
		"tau (s)", "analytic util", "sim util", "ckpt slowdown", "crashes", "retries", "dropped")
	for _, tau := range []float64{tauOpt / 4, tauOpt, 4 * tauOpt} {
		horizon := float64(rounds) * (tau + 8*delta + downtime)
		plan := failure.DrawOSSFaults(failure.OSSFaultSpec{
			Servers:  cfg.NumServers,
			MTBF:     serverMTBF,
			Shape:    1,
			Downtime: downtime,
			Horizon:  horizon,
		}, seed)
		res := workload.RunFaults(cfg, workload.FaultSpec{
			Spec:         spec,
			Checkpoints:  rounds,
			ComputeTime:  sim.Time(tau),
			Plan:         plan,
			MaxRetries:   6,
			RetryBackoff: sim.Time(5e-3),
			MaxBackoff:   sim.Time(0.1),
		}, r.reg, r.tr)
		slowdown := float64(res.Elapsed) / (delta * rounds)
		fmt.Fprintf(r.out, "%10.2f %15.3f %10.3f %14.2fx %10d %10d %10d\n",
			tau, model.Utilization(tau), res.Utilization, slowdown,
			res.Faults.Crashes, res.Retries, res.DroppedOps)
	}
	fmt.Fprintln(r.out, "\nshape check: crashes stretch checkpoints past the healthy capture")
	fmt.Fprintln(r.out, "time (retry backoff + failover timeouts); short intervals checkpoint too")
	fmt.Fprintln(r.out, "often and lose utilization exactly as the analytic curve predicts, while")
	fmt.Fprintln(r.out, "the analytic model additionally charges lost work the retrying simulator")
	fmt.Fprintln(r.out, "does not, so its long-interval utilization falls off faster")
}

// figIntegrity: silent corruption survival — corruption rate x scrub
// cadence against the analytic exposure window. Each cell writes a
// checkpoint, lets latent sector errors accumulate for an hour (drawn by
// failure.DrawLSE from the same Weibull machinery as the loud failures),
// and reads it back. With checksums off the corrupt stripe units ride
// silently into the application — the measured count is compared to the
// analytic expectation servers x residual/MTBC, where residual is the
// dwell left after the last scrub pass. With checksums on every mismatch
// is detected and repaired from the unit's 2+1 group: silent reads must
// be exactly zero.
func (r *run) figIntegrity() {
	r.header("Integrity — silent corruption vs scrub cadence and checksums")
	base := pfs.PanFSLike(4)
	// One-record parity regions keep the group units out of the 128 KiB
	// per drive that DrawLSE targets; at the 8 MiB default a drive whose
	// first allocation is a parity region absorbs every event there, and
	// reads never see them.
	base.Redundancy = pfs.Redundancy{K: 2, M: 1, UnitBytes: 4 << 10}
	spec := workload.Spec{Ranks: 4, BytesPerRank: 1 << 18, RecordSize: 4096, Pattern: workload.N1Strided}
	const (
		expose = sim.Time(3600) // dwell between checkpoint and read-back
		seed   = 77
	)
	fmt.Fprintf(r.out, "%10s %10s %9s %7s %10s %10s %10s %9s\n",
		"MTBC (s)", "scrub (s)", "injected", "passes", "silent", "analytic", "repaired", "flagged")
	for _, mtbc := range []float64{100, 400} {
		for _, scrub := range []sim.Time{0, 900, 300} {
			events := failure.DrawLSE(failure.LSESpec{
				Disks:         base.NumServers,
				CapacityBytes: 1 << 17, // inside the written region of every drive
				MTBC:          mtbc,
				Shape:         1.0, // Poisson arrivals, so the analytic column is exact
				TornFraction:  0.2,
				Horizon:       float64(expose),
			}, seed)
			ispec := workload.IntegritySpec{Spec: spec, Events: events, Expose: expose, ScrubInterval: scrub}
			cfgOff := base
			cfgOff.Checksums = false
			off := workload.RunIntegrity(cfgOff, ispec, r.reg, r.tr)
			cfgOn := base
			cfgOn.Checksums = true
			on := workload.RunIntegrity(cfgOn, ispec, r.reg, r.tr)
			// Residual exposure: dwell remaining after the last scrub pass
			// (mirrors the harness's schedule of passes at k*scrub < expose).
			residual := expose
			if scrub > 0 {
				passes := 0
				for t := scrub; t < expose; t += scrub {
					passes++
				}
				residual = expose - sim.Time(passes)*scrub
			}
			analytic := float64(base.NumServers) * float64(residual) / mtbc
			if on.Stats.SilentReads != 0 {
				panic("checksummed run let corruption through silently")
			}
			fmt.Fprintf(r.out, "%10.0f %10.0f %9d %7d %10d %10.1f %10d %9d\n",
				mtbc, float64(scrub), off.Stats.Injected, off.ScrubPasses,
				off.Stats.SilentReads, analytic, on.Stats.Repaired, on.FlaggedReads)
		}
	}
	fmt.Fprintln(r.out, "shape check: silent corruption tracks the analytic exposure window —")
	fmt.Fprintln(r.out, "shrinking ~linearly with scrub cadence — and drops to exactly zero the")
	fmt.Fprintln(r.out, "moment read-path checksums are on (every mismatch repaired from its group)")
}

// figScale: the sharded-engine scale experiment — many file-system pods
// checkpointing in globally barriered rounds, swept over shard counts.
// Every sweep point must produce a byte-identical metrics snapshot (the
// determinism contract of the conservative-lookahead cluster); wall
// clock is the only thing allowed to change, and the table reports the
// measured speedup over the single-shard run. On a single-core host the
// sweep is flat (the shards serialize); the architecture-level win is
// reported by the engine microbenchmarks in internal/sim.
func (r *run) figScale() {
	r.header("Scale — sharded engine, pods x ranks under conservative lookahead")
	spec := r.scale
	fmt.Fprintf(r.out, "%d pods x %d ranks/pod = %d ranks, %d OSSes, %d rounds, %d KiB/rank/round\n",
		spec.Pods, spec.RanksPerPod, spec.Pods*spec.RanksPerPod,
		spec.Pods*spec.ServersPerPod, spec.Rounds, spec.BytesPerRank>>10)
	fmt.Fprintf(r.out, "lookahead (inter-pod NIC latency): %.0f us; GOMAXPROCS %d\n\n",
		float64(spec.InterPodLatency)*1e6, runtime.GOMAXPROCS(0))
	fmt.Fprintf(r.out, "%8s %12s %12s %11s %9s %10s\n",
		"shards", "events", "sim (s)", "wall (s)", "speedup", "snapshot")
	var refSnap []byte
	var refWall float64
	for _, shards := range []int{1, 2, 4, 8} {
		s := spec
		s.Shards = shards
		reg := obs.NewRegistry()
		sw := obs.StartStopwatch()
		res := workload.RunScale(s, reg)
		wall := sw.Elapsed().Seconds()
		snap := snapshotJSON(reg)
		row := func(status string) {
			fmt.Fprintf(r.out, "%8d %12d %12.3f %11.3f %8.2fx %10s\n",
				shards, res.Events, float64(res.WallClock), wall, refWall/wall, status)
		}
		if refSnap == nil {
			refSnap, refWall = snap, wall
			row("reference")
			continue
		}
		checkSnapshot("scale", refSnap, snap, row)
	}
	fmt.Fprintln(r.out, "\nshape check: every sweep point serializes the same snapshot byte for")
	fmt.Fprintln(r.out, "byte; speedup tracks available cores (flat when GOMAXPROCS/cores pin")
	fmt.Fprintln(r.out, "the shards to one thread)")
}

// figBB: the burst-buffer tier — a host-side flash log between the
// checkpointing application and the striped file system. Write-back
// acks a checkpoint as soon as it lands in node-local flash and drains
// it to the FS while the application computes, so the visible
// checkpoint cost is the flash absorb, not the striped write — until
// the buffer fills or the drain loses the race with the next round.
// The sweep covers buffer capacity x drain bandwidth x checkpoint
// interval for all three modes; the Daly section translates the
// measured capture times into model utilization at the analytic
// optimum. A final pass crashes a buffer node mid-drain (write-back
// dirty data dies with the node) and checks the tier's byte accounting.
func (r *run) figBB() {
	r.header("Burst buffer — flash logging between checkpoint and the striped FS")
	cfg := pfs.PanFSLike(4)
	spec := workload.Spec{Ranks: 8, BytesPerRank: 1 << 20, RecordSize: 1 << 18, Pattern: workload.NN}
	const rounds = 3

	ckpt := func(bcfg *bb.Config, tau sim.Time, plan *sim.FaultPlan) workload.FaultResult {
		fspec := workload.FaultSpec{Spec: spec, Checkpoints: rounds, ComputeTime: tau, BB: bcfg}
		if plan != nil {
			fspec.Plan = plan
			fspec.MaxRetries = 4
			fspec.RetryBackoff = sim.Time(2e-3)
		}
		return workload.RunFaults(cfg, fspec, r.reg, r.tr)
	}
	tier := func(m bb.Mode, pages int, drainBW float64) *bb.Config {
		c := bb.DefaultConfig(2)
		c.Mode = m
		c.Flash.UserPages = pages
		c.DrainBandwidth = drainBW
		return &c
	}
	ms := func(r workload.FaultResult) float64 { return float64(r.Elapsed) / rounds * 1e3 }

	fmt.Fprintf(r.out, "%d ranks x %d MiB per round on 2 buffer nodes; direct = no tier\n\n",
		spec.Ranks, spec.BytesPerRank>>20)
	fmt.Fprintf(r.out, "%9s %11s %8s %11s %11s %11s %8s %8s\n",
		"cap (MiB)", "drain MB/s", "tau (s)", "direct", "wr-through", "wr-back", "stalls", "peakocc")
	for _, pages := range []int{1024, 8192} { // 4 and 32 MiB per node
		for _, drainBW := range []float64{40e6, 200e6} {
			for _, tau := range []sim.Time{0.02, 0.25} {
				direct := ckpt(nil, tau, nil)
				wt := ckpt(tier(bb.WriteThrough, pages, drainBW), tau, nil)
				wb := ckpt(tier(bb.WriteBack, pages, drainBW), tau, nil)
				fmt.Fprintf(r.out, "%9d %11.0f %8.2f %9.2fms %9.2fms %9.2fms %8d %8.2f\n",
					int64(pages)*4096>>20, drainBW/1e6, float64(tau),
					ms(direct), ms(wt), ms(wb), wb.BB.Stalls, wb.BB.PeakOccupancy)
				if wb.BB.Stalls == 0 && ms(wb) >= ms(direct)/2 {
					panic("bb: unsaturated write-back failed to hide checkpoint latency")
				}
			}
		}
	}

	// Daly translation: the measured per-round capture time is the
	// model's delta. Hiding the striped write behind the flash absorb
	// shrinks delta, which both shortens the optimal interval and lifts
	// the utilization ceiling — the reason machine rooms bolt flash
	// between the compute fabric and the disk array.
	deltaDirect := float64(ckpt(nil, 0.25, nil).Elapsed) / rounds
	deltaWB := float64(ckpt(tier(bb.WriteBack, 8192, 200e6), 0.25, nil).Elapsed) / rounds
	const mtti, restart = 2.0, 0.5
	mDirect := failure.Daly{Delta: deltaDirect, Restart: restart, MTTI: mtti}
	mWB := failure.Daly{Delta: deltaWB, Restart: restart, MTTI: mtti}
	fmt.Fprintf(r.out, "\nDaly model at MTTI %.0f s, restart %.1f s:\n", mtti, restart)
	fmt.Fprintf(r.out, "  direct:     delta %6.2f ms -> tau* %5.2f s, utilization %.4f\n",
		deltaDirect*1e3, mDirect.OptimalInterval(), mDirect.OptimalUtilization())
	fmt.Fprintf(r.out, "  write-back: delta %6.2f ms -> tau* %5.2f s, utilization %.4f\n",
		deltaWB*1e3, mWB.OptimalInterval(), mWB.OptimalUtilization())

	// Failure semantics: crash a buffer node while it still holds dirty
	// data behind a deliberately slow drain. Write-back forfeits exactly
	// the un-drained bytes; a drain torn mid-flight surfaces as injected
	// corruption for the FS checksums to catch.
	fr := ckpt(tier(bb.WriteBack, 8192, 10e6), sim.Time(0.1),
		sim.NewFaultPlan().Add(bb.NodeTarget(0), 0.35, 0.2))
	fmt.Fprintf(r.out, "\ncrash bb0 at t=0.35 s behind a 10 MB/s drain: lost %d dirty bytes, %d torn drains\n",
		fr.BB.LostBytes, fr.BB.TornDrains)
	fmt.Fprintf(r.out, "byte accounting: absorbed %d = drained %d + lost %d + dropped %d + torn %d\n",
		fr.BB.AbsorbedBytes, fr.BB.DrainedBytes, fr.BB.LostBytes, fr.BB.DroppedDrainBytes, fr.BB.TornBytes)
	if fr.BB.AbsorbedBytes != fr.BB.DrainedBytes+fr.BB.LostBytes+fr.BB.DroppedDrainBytes+fr.BB.TornBytes {
		panic("bb: byte accounting identity violated")
	}
	if fr.BB.LostBytes == 0 {
		panic("bb: write-back crash lost no dirty data")
	}

	fmt.Fprintln(r.out, "\nshape check: write-back holds the visible checkpoint near the flash")
	fmt.Fprintln(r.out, "absorb time until the buffer fills or the drain loses the race with")
	fmt.Fprintln(r.out, "the next round; write-through only re-orders the same wire time; a")
	fmt.Fprintln(r.out, "node crash forfeits exactly the un-drained dirty bytes")
}

// snapshotJSON serializes a registry's metrics snapshot for a
// determinism check.
func snapshotJSON(reg *obs.Registry) []byte {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkSnapshot is the figures' determinism check: it compares a run's
// snapshot with the reference byte for byte, prints the verdict through
// report, and panics after printing if the two diverged.
func checkSnapshot(fig string, ref, got []byte, report func(status string)) {
	status := "identical"
	if !bytes.Equal(ref, got) {
		status = "DIVERGED"
	}
	report(status)
	if status == "DIVERGED" {
		panic(fig + ": snapshot diverged across shard counts")
	}
}

// figDiag: peer-comparison diagnosis.
func (r *run) figDiag() {
	r.header("Diagnosis — peer comparison on a 20-server PVFS-like cluster (§4.2.6)")
	ev := diagnose.Evaluate(20, 30, 300, 5)
	fmt.Fprintf(r.out, "trials:               %d\n", ev.Trials)
	fmt.Fprintf(r.out, "true positive rate:   %.1f%%\n", ev.TPRate*100)
	fmt.Fprintf(r.out, "false pos per trial:  %.3f\n", ev.FPPerTrial)
	fmt.Fprintln(r.out, "shape check: >= 66% correct identification, essentially no false alarms")
}

// figRebuild: general k+m erasure coding under a rebuild storm — a
// population of independent erasure-coded pods (one drive per OSS)
// survives drawn Weibull crashes plus correlated bursts while a
// foreground client keeps checkpointing. Crashes launch declustered
// rebuilds that fan the repair load across the surviving drives and
// compete with the foreground traffic through the shared disk queues;
// overlapping failures beyond m are typed, counted data-loss events.
// The sweep crosses drive count x (k,m) x declustering ratio and
// reports the measured data-loss probability, rebuild time, and the
// foreground p99 under the storm; quiet baselines isolate the
// interference. Everything is in deterministic sim time, so the whole
// table is byte-identical for any GOMAXPROCS, which sets the number of
// shards the pods are spread over.
func (r *run) figRebuild() {
	r.header("Rebuild — k+m erasure coding, declustered rebuild under a failure storm")
	point := func(drives, k, m int, ratio float64, faulty bool) workload.RebuildResult {
		return workload.RunRebuild(r.rebuildSpec(drives, k, m, ratio, faulty), r.reg)
	}
	scales := r.rebuildScales()
	// Every sweep point shares the storm and the foreground rounds.
	base := r.rebuildSpec(scales[0], rebuildCodes[0][0], rebuildCodes[0][1], 1, true)

	fmt.Fprintf(r.out, "pods of %d OSSes (1 drive each); MTBF %.0f s, horizon %.0f s, permanent\n",
		base.Servers, float64(base.Faults.MTBF), float64(base.Faults.Horizon))
	fmt.Fprintf(r.out, "crashes, correlated bursts every %.0f s killing %d drives; %d foreground\n",
		float64(base.Faults.Bursts.MTBB), base.Faults.Bursts.Size, base.Rounds)
	fmt.Fprintf(r.out, "rounds of 1 MiB checkpoints per pod\n\n")

	fmt.Fprintln(r.out, "quiet baseline (no faults) at the small scale:")
	fmt.Fprintf(r.out, "%6s %12s %12s\n", "k+m", "wr p99 (ms)", "rd p99 (ms)")
	quiet := map[[2]int]workload.RebuildResult{}
	for _, km := range rebuildCodes {
		res := point(scales[0], km[0], km[1], 1.0, false)
		quiet[km] = res
		if res.Crashes != 0 || res.Loss.Events != 0 {
			panic("rebuild: quiet baseline saw faults")
		}
		fmt.Fprintf(r.out, "%4d+%-1d %12.3f %12.3f\n", km[0], km[1], res.WriteP99*1e3, res.ReadP99*1e3)
	}

	fmt.Fprintf(r.out, "\n%7s %6s %6s %8s %9s %9s %10s %9s %11s %11s %9s\n",
		"drives", "k+m", "declus", "crashes", "loss prob", "pods lost",
		"rebuilt", "rb max(s)", "wr p99 (ms)", "rd p99 (ms)", "degraded")
	for _, drives := range scales {
		for _, km := range rebuildCodes {
			for _, ratio := range rebuildRatios {
				res := point(drives, km[0], km[1], ratio, true)
				fmt.Fprintf(r.out, "%7d %4d+%-1d %6.2f %8d %9.5f %6d/%-3d %10d %9.3f %11.3f %11.3f %9d\n",
					res.Drives, km[0], km[1], ratio, res.Crashes, res.GroupLossFrac,
					res.PodsWithLoss, res.Pods, res.Rebuild.GroupsRebuilt,
					float64(res.Rebuild.MaxDuration), res.WriteP99*1e3, res.ReadP99*1e3,
					res.DegradedReads)
				if res.Crashes == 0 || res.Rebuild.Started == 0 {
					panic("rebuild: storm never launched a rebuild")
				}
				if res.GroupLossFrac < 0 || res.GroupLossFrac > 1 {
					panic("rebuild: loss probability out of range")
				}
				if q := quiet[km]; res.WriteP99 < q.WriteP99/2 {
					panic("rebuild: storm p99 below the quiet baseline")
				}
			}
		}
	}

	fmt.Fprintln(r.out, "\nshape check: more parity (larger m) cuts the loss probability at the")
	fmt.Fprintln(r.out, "same storm; declustering over the full population fans each rebuild")
	fmt.Fprintln(r.out, "across more survivors than a narrow window, and losses beyond m are")
	fmt.Fprintln(r.out, "typed events with exact byte accounting, never silent reads")
}

// The rebuild sweep: k+m codes and declustering ratios, crossed with the
// drive populations of rebuildScales.
var (
	rebuildCodes  = [][2]int{{4, 1}, {8, 2}, {8, 3}}
	rebuildRatios = []float64{0.05, 1.0}
)

// rebuildScales is the rebuild sweep's drive populations, from its flags:
// a quarter of -rebuild-drives (at least one pod) and -rebuild-drives.
func (r *run) rebuildScales() []int {
	scales := []int{r.rebuildDrives / 4, r.rebuildDrives}
	if scales[0] < r.rebuildOSS {
		scales[0] = r.rebuildOSS
	}
	if scales[0] == scales[1] {
		scales = scales[:1]
	}
	return scales
}

// rebuildSpec is one rebuild sweep point, from the rebuild flags: pods of
// -rebuild-oss drives making up drives drives (at least one pod) on k+m
// groups at the given declustering ratio, under the storm when faulty
// and fault-free otherwise.
func (r *run) rebuildSpec(drives, k, m int, ratio float64, faulty bool) workload.RebuildSpec {
	s := workload.RebuildSpec{
		Pods:    1,
		Servers: r.rebuildOSS,
		Red:     pfs.Redundancy{K: k, M: m, Declustering: ratio, UnitBytes: 256 << 10, ChunkBytes: 64 << 10},
		Faults: failure.OSSFaultSpec{
			MTBF:     30, // accelerated: compresses years of drive life into 4 s
			Shape:    1,
			Downtime: 0, // failures are permanent; overlaps accumulate
			Horizon:  4,
			Bursts:   failure.BurstSpec{MTBB: 2, Size: 3},
		},
		Seed:         42,
		Rounds:       r.rebuildRounds,
		ComputeTime:  0.25,
		WriteBytes:   1 << 20,
		MaxRetries:   3,
		RetryBackoff: sim.Time(5e-3),
	}
	if s.Servers > 0 {
		s.Pods = max(drives/s.Servers, 1)
	}
	if !faulty {
		s.Faults = failure.OSSFaultSpec{MTBF: 1e9, Shape: 1, Horizon: 4}
	}
	return s
}
