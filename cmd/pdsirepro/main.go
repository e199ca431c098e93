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
	"runtime/pprof"
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

var experiments = map[string]func(){
	"2":         fig2,
	"3":         fig3,
	"4":         fig4,
	"5":         fig5,
	"7":         fig7,
	"8":         fig8,
	"9":         fig9,
	"10":        fig10,
	"11":        fig11,
	"12":        fig12,
	"13":        fig13,
	"14":        fig14,
	"tape":      figTape,
	"place":     figPlace,
	"diag":      figDiag,
	"search":    figSearch,
	"restart":   figRestart,
	"power":     figPower,
	"security":  figSecurity,
	"prefetch":  figPrefetch,
	"trace":     figTraceComp,
	"pnfs":      figPNFS,
	"fsva":      figFSVA,
	"posix":     figPosixExt,
	"disc":      figDiskReduce,
	"index":     figIndex,
	"faults":    figFaults,
	"integrity": figIntegrity,
	"scale":     figScale,
	"bb":        figBB,
	"rebuild":   figRebuild,
}

var order = []string{
	"2", "3", "4", "5", "7", "8", "9", "10", "11", "12", "13", "14",
	"tape", "place", "diag", "search", "restart", "power", "security",
	"prefetch", "trace", "pnfs", "fsva", "posix", "disc", "index",
	"faults", "integrity", "scale", "bb", "rebuild",
}

// probeReg and probeTr are the process-wide observability probe, non-nil
// when -metrics / -trace are given. Simulation-backed experiments thread
// them into their engines; successive experiments accumulate into the
// same registry and trace.
var (
	probeReg *obs.Registry
	probeTr  *obs.Tracer
)

// Scale-experiment knobs (the 'scale' experiment only).
var (
	scalePods   int
	scaleRanks  int
	scaleOSS    int
	scaleRounds int
)

// Rebuild-experiment knobs (the 'rebuild' experiment only).
var (
	rebuildDrives int
	rebuildOSS    int
	rebuildRounds int
	rebuildShards int
)

func main() {
	figs := flag.String("fig", "all", "comma-separated experiment ids, or 'all'")
	metrics := flag.String("metrics", "", "write a deterministic metrics snapshot (JSON) to this file")
	trace := flag.String("trace", "", "write a Chrome trace-event file (Perfetto/chrome://tracing) to this file")
	report := flag.String("report", "", "write a latency/SLO dashboard (exact quantiles, stage attribution, bottlenecks) to this file, or '-' for stdout; enables per-op stage timers")
	timeseries := flag.String("timeseries", "", "write sim-time series as CSV to this file; enables windowed sampling")
	tsWindow := flag.Float64("ts-window", 0.1, "sim-time series window in seconds (with -timeseries)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the experiments to this file")
	flag.IntVar(&scalePods, "scale-pods", 8, "scale experiment: number of file-system pods")
	flag.IntVar(&scaleRanks, "scale-ranks", 32, "scale experiment: checkpointing ranks per pod")
	flag.IntVar(&scaleOSS, "scale-oss", 4, "scale experiment: object storage servers per pod")
	flag.IntVar(&scaleRounds, "scale-rounds", 2, "scale experiment: globally barriered checkpoint rounds")
	flag.IntVar(&rebuildDrives, "rebuild-drives", 10240, "rebuild experiment: simulated drive population at the large sweep scale")
	flag.IntVar(&rebuildOSS, "rebuild-oss", 64, "rebuild experiment: object storage servers (drives) per pod")
	flag.IntVar(&rebuildRounds, "rebuild-rounds", 3, "rebuild experiment: foreground checkpoint rounds per pod")
	flag.IntVar(&rebuildShards, "rebuild-shards", 1, "rebuild experiment: event-queue shards the pods are spread over; outputs are byte-identical for any value")
	flag.Parse()
	if err := validateFlags(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var run []string
	if *figs == "all" {
		run = order
	} else {
		for _, f := range strings.Split(*figs, ",") {
			f = strings.TrimSpace(f)
			if _, ok := experiments[f]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", f, strings.Join(order, " "))
				os.Exit(2)
			}
			run = append(run, f)
		}
	}
	if *metrics != "" || *report != "" || *timeseries != "" {
		probeReg = obs.NewRegistry()
	}
	if *report != "" {
		probeReg.EnableOpTimers()
	}
	if *timeseries != "" {
		probeReg.EnableTimeSeries(*tsWindow)
	}
	if *trace != "" {
		probeTr = obs.NewTracer()
	}
	stopProfile := startCPUProfile(*cpuprofile)
	for _, f := range run {
		experiments[f]()
		fmt.Println()
	}
	stopProfile()
	if *metrics != "" {
		if err := writeFile(*metrics, probeReg.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *report != "" {
		snap := probeReg.Snapshot()
		if err := writeFile(*report, func(w io.Writer) error { return obs.WriteReport(w, snap) }); err != nil {
			fmt.Fprintf(os.Stderr, "writing report: %v\n", err)
			os.Exit(1)
		}
	}
	if *timeseries != "" {
		if err := writeFile(*timeseries, probeReg.WriteSeriesCSV); err != nil {
			fmt.Fprintf(os.Stderr, "writing timeseries: %v\n", err)
			os.Exit(1)
		}
	}
	if *trace != "" {
		if err := writeFile(*trace, probeTr.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
			os.Exit(1)
		}
	}
}

// validateFlags checks every spec the experiment flags build, so a bad
// value stops the run before any figure prints.
func validateFlags() error {
	if err := scaleSpec().Validate(); err != nil {
		return fmt.Errorf("invalid -scale-* flags: %w", err)
	}
	for _, drives := range rebuildScales() {
		for _, km := range rebuildCodes {
			for _, ratio := range rebuildRatios {
				if err := rebuildSpec(drives, km[0], km[1], ratio, true).Validate(); err != nil {
					return fmt.Errorf("invalid -rebuild-* flags: %w", err)
				}
			}
		}
	}
	return nil
}

// startCPUProfile starts a runtime/pprof CPU profile written to path and
// returns the function that stops it; an empty path profiles nothing.
// Inspect the file with go tool pprof.
func startCPUProfile(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpu profile: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpu profile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeFile creates path and streams write into it; "-" writes to
// stdout.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if e := f.Close(); err == nil {
		err = e
	}
	return err
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

func mb(bps float64) float64 { return bps / 1e6 }

// fig2: S3D weak-scaling checkpoint time and predicted 12-hour fraction.
func fig2() {
	header("Figure 2 — S3D checkpoint I/O, weak scaling (c2h4-style problem)")
	fsCfg := pfs.PanFSLike(8)
	points := workload.S3DWeakScaling(fsCfg, workload.DefaultS3D(), []int{16, 32, 64, 128, 256})
	fmt.Printf("%8s %16s %14s %22s\n", "ranks", "ckpt time (s)", "I/O fraction", "12h predicted I/O frac")
	for _, p := range points {
		fmt.Printf("%8d %16.2f %14.3f %22.3f\n",
			p.Ranks, float64(p.CheckpointTime), p.FractionIO, p.Predicted12hFraction)
	}
	fmt.Println("shape check: I/O fraction grows with scale (1% at small N -> tens of % at large N)")
}

// fig3: CDF of file sizes across eleven surveyed file systems.
func fig3() {
	header("Figure 3 — CDF of file sizes across eleven non-archival file systems")
	fmt.Printf("%-16s %10s %12s %12s %14s %16s\n",
		"system", "files", "median", "p90", "%files<=64K", "%bytes>1M")
	for i, spec := range fsstats.ElevenSystems(40000) {
		rep := fsstats.Survey(spec.Name, fsstats.Generate(spec, int64(100+i)))
		fmt.Printf("%-16s %10d %12.0f %12.0f %14.1f %16.1f\n",
			rep.Name, rep.Count, rep.MedianSize, rep.P90Size,
			rep.FractionFilesUnder[64<<10]*100, rep.FractionBytesOver[1<<20]*100)
	}
	fmt.Println("shape check: medians are small (KBs) while most bytes sit in >1MB files")
}

// fig4: interrupts linear in chips; MTTI projection.
func fig4() {
	header("Figure 4 — interrupts linear in #chips; projected MTTI vs year")
	specs := failure.LANLStyleFleet(22, 0.25, 0.8, 11)
	var sys []failure.SystemStats
	for i, spec := range specs {
		sys = append(sys, failure.Analyze(spec, failure.GenerateTrace(spec, 9, int64(100+i)), 9))
	}
	fit, err := failure.FitInterruptsVsChips(sys)
	if err != nil {
		panic(err)
	}
	fmt.Printf("fleet fit: interrupts/yr = %.3f * chips + %.1f   (R2 = %.3f)\n",
		fit.Slope, fit.Intercept, fit.R2)
	fmt.Printf("\n%6s %18s %18s %18s\n", "year", "MTTI (18mo chip 2x)", "MTTI (24mo)", "MTTI (30mo)")
	for y := 2008; y <= 2020; y += 2 {
		m18 := failure.ReportProjection(18).MTTISeconds(y)
		m24 := failure.ReportProjection(24).MTTISeconds(y)
		m30 := failure.ReportProjection(30).MTTISeconds(y)
		fmt.Printf("%6d %15.1f min %15.1f min %15.1f min\n", y, m18/60, m24/60, m30/60)
	}
	fmt.Println("shape check: MTTI falls from hours toward minutes approaching exascale")
}

// fig5: effective application utilization under balanced growth.
func fig5() {
	header("Figure 5 — effective application utilization (checkpoint/restart)")
	fmt.Printf("%6s %14s %14s %14s %16s\n", "year", "util (18mo)", "util (24mo)", "util (30mo)", "process pairs")
	series := map[float64][]failure.UtilizationPoint{}
	for _, m := range []float64{18, 24, 30} {
		series[m] = failure.BalancedUtilization(failure.ReportProjection(m), 600, 600, 2008, 2020)
	}
	for i := range series[18] {
		p18, p24, p30 := series[18][i], series[24][i], series[30][i]
		pp := failure.ProcessPairsUtilization(failure.Daly{Delta: 600, Restart: 600, MTTI: p18.MTTI})
		fmt.Printf("%6d %14.3f %14.3f %14.3f %16.3f\n",
			p18.Year, p18.Utilization, p24.Utilization, p30.Utilization, pp)
	}
	for _, m := range []float64{18, 24, 30} {
		fmt.Printf("50%% crossing (chip 2x every %.0f mo): %d\n",
			m, failure.CrossingYear(series[m], 0.5))
	}
	bbSeries := failure.BurstBufferProjection(failure.ReportProjection(18), 600, 600, 10, 2008, 2020)
	fmt.Printf("with a 10x flash burst buffer the crossing moves to: %d\n",
		failure.CrossingYear(bbSeries, 0.5))
	fmt.Println("shape check: utilization crosses below 50% before 2014")
}

// fig7: GIGA+ create throughput scaling.
func fig7() {
	header("Figure 7 — GIGA+ directory create throughput vs metadata servers")
	fmt.Printf("%8s %16s %12s %10s %12s %12s\n",
		"servers", "creates/sec", "partitions", "splits", "addr errs", "imbalance")
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		cfg := giga.DefaultConfig(s)
		cfg.SplitThreshold = 200
		res := giga.CreateStorm(cfg, 64, 40000)
		fmt.Printf("%8d %16.0f %12d %10d %12d %12.2f\n",
			s, res.CreatesPerSecond, res.Partitions, res.Splits, res.AddressingErrors, res.LoadImbalance)
	}
	base := giga.SingleServerBaseline(giga.DefaultConfig(1).InsertTime, giga.DefaultConfig(1).RPC, 64, 40000)
	fmt.Printf("conventional single metadata server baseline: %.0f creates/sec\n", base.CreatesPerSecond)
	fmt.Println("shape check: near-linear scaling with servers; baseline flat")
}

// fig8: PLFS checkpoint speedups on three file system presets.
func fig8() {
	header("Figure 8 — PLFS checkpoint bandwidth vs direct N-1 strided writes")
	fmt.Printf("%-14s %16s %16s %16s %10s\n",
		"file system", "N-1 direct MB/s", "PLFS MB/s", "N-N MB/s", "speedup")
	for _, cfg := range pfs.AllPresets(8) {
		base := workload.Spec{Ranks: 32, BytesPerRank: 4 << 20, RecordSize: 47008, Pattern: workload.N1Strided}
		direct := workload.Run(cfg, base, probeReg, probeTr)
		viaSpec := base
		viaSpec.Pattern = workload.PLFSPattern
		viaSpec.PLFSHostdirs = 32
		viaSpec.PLFSIndexFlushEvery = 64
		viaPLFS := workload.Run(cfg, viaSpec, probeReg, probeTr)
		nnSpec := base
		nnSpec.Pattern = workload.NN
		nn := workload.Run(cfg, nnSpec, probeReg, probeTr)
		var ratio float64
		if direct.Bandwidth > 0 {
			ratio = viaPLFS.Bandwidth / direct.Bandwidth
		}
		fmt.Printf("%-14s %16.1f %16.1f %16.1f %9.1fx\n",
			cfg.Name, mb(direct.Bandwidth), mb(viaPLFS.Bandwidth), mb(nn.Bandwidth), ratio)
	}
	fmt.Println("shape check: order-of-magnitude speedups (LANL saw 5-28x in production,")
	fmt.Println("10x Chombo, ~100x FLASH); PLFS lands within a small factor of native N-N")
}

// fig9: TCP incast goodput collapse and the low-RTO fix.
func fig9() {
	header("Figure 9 — TCP incast: goodput vs number of synchronized senders")
	counts := []int{1, 2, 4, 8, 16, 32, 48, 64}
	fmt.Printf("%8s %20s %20s %22s\n", "senders", "200ms RTO (Mbps)", "1ms RTO (Mbps)", "1ms+random (Mbps)")
	slow := incast.Sweep(counts, nil, probeReg, probeTr)
	fast := incast.Sweep(counts, func(p *incast.Params) { p.MinRTO = 1e-3 }, probeReg, probeTr)
	rnd := incast.Sweep(counts, func(p *incast.Params) { p.MinRTO = 1e-3; p.RTORandomize = true }, probeReg, probeTr)
	for i, n := range counts {
		fmt.Printf("%8d %20.1f %20.1f %22.1f\n",
			n, slow[i].GoodputBps*8/1e6, fast[i].GoodputBps*8/1e6, rnd[i].GoodputBps*8/1e6)
	}
	fmt.Println("shape check: default-RTO goodput collapses >10x past the buffer limit;")
	fmt.Println("1ms minimum RTO restores most of the link bandwidth")
}

// fig10: Argon performance insulation.
func fig10() {
	header("Figure 10 — Argon: insulation of a stream vs a random-I/O tenant")
	fmt.Printf("%-20s %18s %18s\n", "policy", "stream frac of solo", "random frac of solo")
	for _, pol := range []argon.Policy{argon.Interleave, argon.TimesliceCoSched} {
		cfg := argon.DefaultConfig(1, pol)
		cfg.Duration = 10
		ins := argon.Measure(cfg)
		fmt.Printf("%-20s %18.2f %18.2f\n", pol, ins.StreamFraction, ins.RandFraction)
	}
	fmt.Println("\ncluster co-scheduling (8 servers, striped synchronous client):")
	fmt.Printf("%-20s %16s\n", "policy", "stream MB/s")
	for _, pol := range []argon.Policy{argon.TimesliceUnsync, argon.TimesliceCoSched} {
		cfg := argon.DefaultConfig(8, pol)
		cfg.Duration = 10
		res := argon.Run(cfg)
		fmt.Printf("%-20s %16.1f\n", pol, mb(res.StreamBps))
	}
	fmt.Println("shape check: timeslicing gives each tenant ~fair share minus a <10% guard")
	fmt.Println("band; co-scheduled slices recover ~90% of best case vs unsynchronized")
}

// fig11: Table 1 + flash vs disk characteristics.
func fig11() {
	header("Figure 11 / Table 1 — flash device characteristics vs magnetic disk")
	fmt.Printf("%-32s %12s %14s %14s %14s\n",
		"device", "seq MB/s", "rd 4K IOPS", "wr 4K fresh", "wr 4K steady")
	for _, spec := range flash.AllTable1Devices() {
		fmt.Printf("%-32s %12.0f %14.0f %14.0f %14.0f\n",
			spec.Name,
			flash.SequentialWriteRate(spec)/1e6,
			flash.RandomReadRate(spec, 2000, 3),
			flash.FreshRandomWriteRate(spec, 5),
			flash.SteadyRandomWriteRate(spec, 5))
	}
	fmt.Println("magnetic disk reference: ~70-90 MB/s sequential, ~100-150 random 4K IOPS")
	fmt.Println("shape check: flash random reads 100-1000x disk; sustained random writes")
	fmt.Println("degrade sharply once the pre-erased pool drains")
}

// fig12: Hadoop-on-PVFS vs HDFS.
func fig12() {
	header("Figure 12 — Hadoop text search: HDFS vs PVFS shim variants")
	fmt.Printf("%-30s %12s %14s %10s %10s\n", "stack", "job (s)", "scan MB/s", "local", "remote")
	for _, r := range cloudfs.Compare(cloudfs.DefaultParams(16, 64)) {
		fmt.Printf("%-30s %12.2f %14.1f %10d %10d\n",
			r.Mode, float64(r.Elapsed), mb(r.Throughput), r.LocalReads, r.RemoteReads)
	}
	fmt.Println("shape check: naive shim > 2x slower than HDFS; readahead closes most of")
	fmt.Println("the gap; exposing replica layout reaches parity")
}

// fig13: HDF5 optimization stack.
func fig13() {
	header("Figure 13 — cumulative HDF5 optimization benefits (Chombo, GCRM)")
	fsCfg := pfs.LustreLike(8)
	for _, code := range []hdf5sim.Code{hdf5sim.Chombo, hdf5sim.GCRM} {
		fmt.Printf("%s:\n", code)
		for _, r := range hdf5sim.RunStack(fsCfg, code, 32, 2<<20) {
			fmt.Printf("  %-26s %12.1f MB/s %10.1fx\n", r.Level, mb(r.Bandwidth), r.SpeedupVsBaseline)
		}
	}
	fmt.Println("shape check: each optimization compounds; full stack reaches an order of")
	fmt.Println("magnitude (report: up to 33x) and approaches the file system's peak")
}

// fig14: sustained random write degradation.
func fig14() {
	header("Figure 14 — sustained 4K random write IOPS over time per device")
	for i, spec := range flash.AllTable1Devices() {
		res := flash.SustainedRandomWrite(spec, 1.0, 60, 5, 99,
			probeReg, fmt.Sprintf("flash.dev%02d", i))
		fmt.Printf("%-32s ", spec.Name)
		for _, w := range res {
			fmt.Printf("%8.0f", w.IOPS)
		}
		fmt.Printf("   (IOPS per 5s window; WA end %.2f)\n", res[len(res)-1].WriteAmp)
	}
	fmt.Println("shape check: SATA-class (low spare area) devices fall off a cliff;")
	fmt.Println("PCIe-class (high overprovisioning) decline far more gently")
}

// figTape: NERSC tape verification statistics.
func figTape() {
	header("Tape verification — NERSC media migration (§5.2.3)")
	migration := tape.Campaign(tape.NERSCArchive(), 5, 42)
	appliance := tape.Campaign(tape.NERSCArchive(), 1, 42)
	fmt.Printf("tapes read:                  %d (%.1f TB)\n", migration.Tapes, migration.DataGB/1e3)
	fmt.Printf("fully readable (5 retries):  %d (%.3f%%)\n",
		migration.FullyRead, migration.ReadabilityFraction*100)
	fmt.Printf("unreadable after retries:    %d tapes, %d files, %.1f GB\n",
		migration.Unreadable, migration.LostFiles, migration.LostGB)
	fmt.Printf("single-pass appliance flags: %d (overstates by %.1fx)\n",
		appliance.Unreadable, float64(appliance.Unreadable)/float64(migration.Unreadable))
	fmt.Println("shape check: ~99.95% of media fully readable; appliance needs 3-5 rereads")
}

// figPlace: placement strategy comparison.
func figPlace() {
	header("Placement — strategy comparison (§4.2.3 parallel layout study)")
	chunks := placement.CheckpointChunks(256, 64, 1<<20)
	small := placement.CheckpointChunks(4096, 1, 1<<20)
	fmt.Printf("%-20s %12s %16s %14s\n", "strategy", "imbalance", "small-file imbal", "moved 8->9")
	for _, s := range []placement.Strategy{placement.RoundRobin{}, placement.FileOffsetStripe{}, placement.CRUSHLike{}} {
		ev := placement.Evaluate(s, chunks, 8, 1)
		evs := placement.Evaluate(s, small, 8, 1)
		moved := placement.MovedFraction(s, chunks, 8, 9, 1)
		fmt.Printf("%-20s %12.2f %16.2f %14.2f\n", s.Name(), ev.Imbalance, evs.Imbalance, moved)
	}
	fmt.Println("shape check: round-robin convoys small files on server 0; CRUSH-like")
	fmt.Println("placement moves only ~1/n of data on growth")
}

// figSearch: partitioned metadata search vs flat scan.
func figSearch() {
	header("Metadata search — Spyglass-style partitioned index (§4.2.2)")
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

	fmt.Printf("corpus:          %d files in %d partitions\n", ix.Len(), ix.Partitions())
	fmt.Printf("query:           owner=8 AND ext=.h5 AND size<=4K -> %d matches (flat scan agrees: %v)\n",
		len(idx), len(idx) == len(flat))
	fmt.Printf("flat scan:       %v over %d records\n", flatDur, len(records))
	perQuery := ix.RecordsScanned / (iters + 1)
	fmt.Printf("partitioned:     %v over %d records (%.0fx wall, %.0fx fewer records)\n",
		idxDur, perQuery, float64(flatDur)/float64(idxDur),
		float64(len(records))/float64(perQuery))
	fmt.Println("shape check: 10-1000x over a database-style scan on selective queries")
}

// figRestart: PLFS read-back performance.
func figRestart() {
	header("Restart — PLFS read-back (PDSW'09 '...And eat it too')")
	cfg := pfs.PanFSLike(8)
	spec := workload.Spec{
		Ranks: 16, BytesPerRank: 4 << 20, RecordSize: 47008,
		Pattern: workload.PLFSPattern, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}
	uni := workload.RunRestart(cfg, spec, workload.UniformRestart, probeReg, probeTr)
	sh := workload.RunRestart(cfg, spec, workload.ShiftedRestart, probeReg, probeTr)
	direct := workload.RunRestart(cfg, workload.Spec{
		Ranks: 16, BytesPerRank: 4 << 20, RecordSize: 47008, Pattern: workload.N1Strided,
	}, workload.UniformRestart, probeReg, probeTr)
	fmt.Printf("%-34s %12s %14s\n", "scenario", "time (s)", "MB/s moved")
	fmt.Printf("%-34s %12.2f %14.1f\n", "PLFS write + uniform restart", float64(uni.Elapsed), mb(uni.Bandwidth))
	fmt.Printf("%-34s %12.2f %14.1f\n", "PLFS write + shifted restart", float64(sh.Elapsed), mb(sh.Bandwidth))
	fmt.Printf("%-34s %12.2f %14.1f\n", "direct N-1 write + restart", float64(direct.Elapsed), mb(direct.Bandwidth))
	fmt.Println("shape check: uniform restart streams each rank's own log; shifted")
	fmt.Println("restart pays scattered log reads but still beats the direct pattern")
}

// figIndex: PLFS global-index build scaling (sweep-line merge).
func figIndex() {
	header("Index build — sweep-line global-index merge, N-1 strided entries")
	fmt.Printf("%12s %12s %14s %16s\n", "entries", "extents", "build (ms)", "entries/s")
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
		fmt.Printf("%12d %12d %14.1f %16.0f\n",
			n, g.NumExtents(), float64(dur.Microseconds())/1e3, float64(n)/dur.Seconds())
	}
	fmt.Println("shape check: wall time grows near-linearly on these checkpoint-ordered")
	fmt.Println("entries, O(n log n) at worst (the pre-rewrite overlay was quadratic:")
	fmt.Println("32k entries took seconds, 1M was infeasible); timings are measured on")
	fmt.Println("this host, so only the scaling shape is reproducible")
}

// figPower: power-managed archival storage.
func figPower() {
	header("Archival power — Pergamum-style spin-down archive (§4.2.4/UCSC)")
	fmt.Printf("%-18s %12s %12s %12s %14s\n",
		"policy", "avg watts", "spin-ups", "sleep frac", "p99 latency")
	for _, pol := range []archive.Policy{archive.Striped, archive.Packed, archive.SemanticGroups} {
		res := archive.Run(archive.DefaultConfig(16, pol))
		fmt.Printf("%-18s %12.1f %12d %12.2f %14v\n",
			pol, res.AvgWatts, res.SpinUps, res.DiskSleepFrac, res.P99Latency)
	}
	fmt.Printf("always-on array baseline: %.1f watts\n",
		archive.AlwaysOnWatts(archive.DefaultConfig(16, archive.Packed)))
	fmt.Println("shape check: spin-down archives run far below always-on power;")
	fmt.Println("semantic grouping minimizes wake-ups; striping wakes everything")
}

// figSecurity: Maat capability overheads.
func figSecurity() {
	header("Security — scalable capabilities for parallel file systems (§4.2.4)")
	fmt.Printf("%-24s %18s %18s\n", "scheme", "shared-file ovhd", "private-file ovhd")
	for _, mode := range []security.Mode{security.PerFileCaps, security.ExtendedCaps} {
		sh := security.Overhead(security.DefaultConfig(32, mode, true))
		pr := security.Overhead(security.DefaultConfig(32, mode, false))
		fmt.Printf("%-24s %17.1f%% %17.1f%%\n", mode, sh*100, pr*100)
	}
	fmt.Println("shape check: Maat's extended capabilities keep overhead at 1-2%")
	fmt.Println("typical and under 6-7% on shared-file/shared-disk workloads")
}

// figPrefetch: GMC multi-order prefetching.
func figPrefetch() {
	header("Prefetching — Global Multi-order Context analysis (§5.4.2)")
	stream := prefetch.MixedPhases(64, 4, 12)
	fmt.Printf("%8s %12s %12s\n", "order", "accuracy", "coverage")
	for _, order := range []int{1, 2, 3} {
		m := prefetch.Evaluate(stream, order)
		fmt.Printf("%8d %12.3f %12.3f\n", m.Order, m.Accuracy, m.Coverage)
	}
	m1 := prefetch.Evaluate(stream, 1)
	m3 := prefetch.Evaluate(stream, 3)
	fmt.Printf("GMC (order 3) coverage gain over order 1: %.0f%%\n",
		(m3.Coverage/m1.Coverage-1)*100)
	fmt.Println("shape check: multi-order context raises coverage while keeping")
	fmt.Println("accuracy (the paper's layout/prefetch work reported >= 24% benefit)")
}

// figTraceComp: ScalaTrace-style trace compression.
func figTraceComp() {
	header("Trace compression — ScalaTrace-style loop folding (§5.4.2)")
	loop := []scalatrace.Event{
		{Op: "open", File: 1, Size: 0},
		{Op: "write", File: 1, Delta: 47008, Size: 47008},
		{Op: "write", File: 1, Delta: 47008, Size: 47008},
		{Op: "close", File: 1, Size: 0},
	}
	fmt.Printf("%12s %14s %14s %12s\n", "iterations", "events", "stored terms", "ratio")
	for _, iters := range []int{10, 100, 1000, 10000} {
		var events []scalatrace.Event
		for i := 0; i < iters; i++ {
			events = append(events, loop...)
		}
		tr := scalatrace.Compress(events, 64)
		fmt.Printf("%12d %14d %14d %11.0fx\n",
			iters, tr.Len(), tr.TermCount(), tr.CompressionRatio())
	}
	fmt.Println("shape check: stored size tracks program structure, not run length")
}

// figPNFS: parallel NFS scaling vs plain NFS.
func figPNFS() {
	header("pNFS — parallel NFS vs the NAS bottleneck (§2.2)")
	fmt.Printf("%8s %16s %16s %20s\n", "servers", "nfs MB/s", "pnfs MB/s", "pnfs no-layout-cache")
	counts := []int{1, 2, 4, 8, 16}
	nfs := pnfs.ScalingSweep(16, counts, pnfs.PlainNFS)
	pn := pnfs.ScalingSweep(16, counts, pnfs.PNFSFiles)
	nc := pnfs.ScalingSweep(16, counts, pnfs.PNFSNoCache)
	for i, n := range counts {
		fmt.Printf("%8d %16.1f %16.1f %20.1f\n",
			n, mb(nfs[i].AggregateBps), mb(pn[i].AggregateBps), mb(nc[i].AggregateBps))
	}
	fmt.Println("shape check: plain NFS is pinned at one server's NIC; pNFS scales with")
	fmt.Println("data servers; layout caching keeps the metadata server off the data path")
}

// figFSVA: file system virtual appliance forwarding overheads.
func figFSVA() {
	header("FSVA — file system virtual appliances (§4.2.1)")
	fmt.Printf("%-26s %14s %14s\n", "transport", "kops/sec", "overhead")
	for _, r := range fsva.Compare(fsva.DefaultConfig(fsva.Native)) {
		fmt.Printf("%-26s %14.1f %13.1f%%\n",
			r.Config.Transport, r.OpsPerSecond/1e3, r.OverheadVsNative*100)
	}
	fmt.Printf("porting churn avoided: %.0f engineer-weeks/year (quarterly kernels,\n",
		fsva.PortingChurn(4, 1, 4))
	fmt.Println("annual FS releases, 4-week ports)")
	fmt.Println("shape check: shared-memory forwarding lands within a few percent of a")
	fmt.Println("native kernel client; synchronous per-op VM crossings do not")
}

// figPosixExt: HEC POSIX extensions (group open).
func figPosixExt() {
	header("POSIX HEC extensions — openg()/openfh() group open (§2.2)")
	fmt.Printf("%8s %18s %18s %10s\n", "procs", "posix open (ms)", "group open (ms)", "speedup")
	for _, n := range []int{64, 256, 1024, 4096} {
		p := posixext.RunOpen(posixext.DefaultOpenConfig(n, posixext.PosixOpen))
		g := posixext.RunOpen(posixext.DefaultOpenConfig(n, posixext.GroupOpen))
		fmt.Printf("%8d %18.2f %18.2f %9.0fx\n",
			n, float64(p.Elapsed)*1e3, float64(g.Elapsed)*1e3,
			float64(p.Elapsed)/float64(g.Elapsed))
	}
	l := posixext.Layout{StripeUnit: 64 << 10, StripeCount: 8}
	fmt.Printf("layout query: 47008-byte records align to %d (misalignment was %.0f%%)\n",
		l.AlignUp(47008), l.Misalignment(47008)*100)
	fmt.Println("shape check: group open turns an O(N) metadata storm into one")
	fmt.Println("resolution plus a log-depth broadcast")
}

// figDiskReduce: background erasure coding of replicated DISC storage.
func figDiskReduce() {
	header("DiskReduce — replication as a prelude to erasure coding (PDSW'09)")
	cfg := diskreduce.DefaultConfig()
	cfg.EncodeAfter = 10
	traj := diskreduce.Simulate(cfg, 100, 120)
	fmt.Printf("%8s %20s\n", "tick", "capacity overhead")
	for _, tick := range []int{0, 5, 10, 20, 40, 80, 119} {
		fmt.Printf("%8d %20.2f\n", tick, traj[tick])
	}
	fmt.Printf("RAID-6 group-of-8 floor: %.2fx; triplication: 3.00x\n",
		diskreduce.RAID6Group.Overhead(cfg.GroupSize))
	fmt.Println("shape check: overhead starts at 3x and converges toward the RAID floor")
	fmt.Println("as cold blocks encode, while hot blocks keep replicas for locality")
}

// figFaults: fault-injected checkpointing vs the analytic optimum-interval
// model. The same Weibull failure machinery that drives the Figure 4/5
// projections is turned into a concrete fault plan; object storage servers
// crash mid-checkpoint and the application-visible slowdown is compared
// against the Daly model's predictions.
func figFaults() {
	header("Faults — injected OSS crashes vs the Daly checkpoint-interval model")
	cfg := pfs.PanFSLike(4)
	cfg.FailTimeout = sim.Time(5e-3)
	cfg.LeaseExpiry = sim.Time(20e-3)
	// 2+1 is the widest code that leaves 4 servers a rebuild spare.
	cfg.Redundancy = pfs.Redundancy{K: 2, M: 1}
	spec := workload.Spec{Ranks: 8, BytesPerRank: 2 << 20, RecordSize: 1 << 18, Pattern: workload.NN}

	// The healthy capture time is the Daly model's delta.
	clean := workload.RunFaults(cfg, workload.FaultSpec{Spec: spec, Checkpoints: 1}, probeReg, probeTr)
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

	fmt.Printf("healthy capture: delta = %.3f s; server MTBF %.0f s x %d servers -> MTTI %.1f s\n",
		delta, serverMTBF, cfg.NumServers, mtti)
	fmt.Printf("analytic optimum: tau* = %.2f s -> predicted utilization %.3f\n\n",
		tauOpt, model.OptimalUtilization())

	fmt.Printf("%10s %15s %10s %15s %10s %10s %10s\n",
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
		}, probeReg, probeTr)
		slowdown := float64(res.Elapsed) / (delta * rounds)
		fmt.Printf("%10.2f %15.3f %10.3f %14.2fx %10d %10d %10d\n",
			tau, model.Utilization(tau), res.Utilization, slowdown,
			res.Faults.Crashes, res.Retries, res.DroppedOps)
	}
	fmt.Println("\nshape check: crashes stretch checkpoints past the healthy capture")
	fmt.Println("time (retry backoff + failover timeouts); short intervals checkpoint too")
	fmt.Println("often and lose utilization exactly as the analytic curve predicts, while")
	fmt.Println("the analytic model additionally charges lost work the retrying simulator")
	fmt.Println("does not, so its long-interval utilization falls off faster")
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
func figIntegrity() {
	header("Integrity — silent corruption vs scrub cadence and checksums")
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
	fmt.Printf("%10s %10s %9s %7s %10s %10s %10s %9s\n",
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
			off := workload.RunIntegrity(cfgOff, ispec, probeReg, probeTr)
			cfgOn := base
			cfgOn.Checksums = true
			on := workload.RunIntegrity(cfgOn, ispec, probeReg, probeTr)
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
			fmt.Printf("%10.0f %10.0f %9d %7d %10d %10.1f %10d %9d\n",
				mtbc, float64(scrub), off.Stats.Injected, off.ScrubPasses,
				off.Stats.SilentReads, analytic, on.Stats.Repaired, on.FlaggedReads)
		}
	}
	fmt.Println("shape check: silent corruption tracks the analytic exposure window —")
	fmt.Println("shrinking ~linearly with scrub cadence — and drops to exactly zero the")
	fmt.Println("moment read-path checksums are on (every mismatch repaired from its group)")
}

// figScale: the sharded-engine scale experiment — many file-system pods
// checkpointing in globally barriered rounds, swept over shard counts.
// Every sweep point must produce a byte-identical metrics snapshot (the
// determinism contract of the conservative-lookahead cluster); wall
// clock is the only thing allowed to change, and the table reports the
// measured speedup over the single-shard run. On a single-core host the
// sweep is flat (the shards serialize); the architecture-level win is
// reported by the engine microbenchmarks in internal/sim.
func figScale() {
	header("Scale — sharded engine, pods x ranks under conservative lookahead")
	spec := scaleSpec()
	fmt.Printf("%d pods x %d ranks/pod = %d ranks, %d OSSes, %d rounds, %d KiB/rank/round\n",
		spec.Pods, spec.RanksPerPod, spec.Pods*spec.RanksPerPod,
		spec.Pods*spec.ServersPerPod, spec.Rounds, spec.BytesPerRank>>10)
	fmt.Printf("lookahead (inter-pod NIC latency): %.0f us; GOMAXPROCS %d\n\n",
		float64(spec.InterPodLatency)*1e6, runtime.GOMAXPROCS(0))
	fmt.Printf("%8s %12s %12s %11s %9s %10s\n",
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
			fmt.Printf("%8d %12d %12.3f %11.3f %8.2fx %10s\n",
				shards, res.Events, float64(res.WallClock), wall, refWall/wall, status)
		}
		if refSnap == nil {
			refSnap, refWall = snap, wall
			row("reference")
			continue
		}
		checkSnapshot("scale", refSnap, snap, row)
	}
	fmt.Println("\nshape check: every sweep point serializes the same snapshot byte for")
	fmt.Println("byte; speedup tracks available cores (flat when GOMAXPROCS/cores pin")
	fmt.Println("the shards to one thread)")
}

// scaleSpec is the scale experiment's spec, from its flags, on one shard.
func scaleSpec() workload.ScaleSpec {
	return workload.ScaleSpec{
		Pods:            scalePods,
		RanksPerPod:     scaleRanks,
		ServersPerPod:   scaleOSS,
		Rounds:          scaleRounds,
		BytesPerRank:    64 << 10,
		ComputeTime:     0.25,
		InterPodLatency: 5e-6,
		Shards:          1,
	}
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
func figBB() {
	header("Burst buffer — flash logging between checkpoint and the striped FS")
	cfg := pfs.PanFSLike(4)
	spec := workload.Spec{Ranks: 8, BytesPerRank: 1 << 20, RecordSize: 1 << 18, Pattern: workload.NN}
	const rounds = 3

	run := func(bcfg *bb.Config, tau sim.Time, plan *sim.FaultPlan) workload.FaultResult {
		fspec := workload.FaultSpec{Spec: spec, Checkpoints: rounds, ComputeTime: tau, BB: bcfg}
		if plan != nil {
			fspec.Plan = plan
			fspec.MaxRetries = 4
			fspec.RetryBackoff = sim.Time(2e-3)
		}
		return workload.RunFaults(cfg, fspec, probeReg, probeTr)
	}
	tier := func(m bb.Mode, pages int, drainBW float64) *bb.Config {
		c := bb.DefaultConfig(2)
		c.Mode = m
		c.Flash.UserPages = pages
		c.DrainBandwidth = drainBW
		return &c
	}
	ms := func(r workload.FaultResult) float64 { return float64(r.Elapsed) / rounds * 1e3 }

	fmt.Printf("%d ranks x %d MiB per round on 2 buffer nodes; direct = no tier\n\n",
		spec.Ranks, spec.BytesPerRank>>20)
	fmt.Printf("%9s %11s %8s %11s %11s %11s %8s %8s\n",
		"cap (MiB)", "drain MB/s", "tau (s)", "direct", "wr-through", "wr-back", "stalls", "peakocc")
	for _, pages := range []int{1024, 8192} { // 4 and 32 MiB per node
		for _, drainBW := range []float64{40e6, 200e6} {
			for _, tau := range []sim.Time{0.02, 0.25} {
				direct := run(nil, tau, nil)
				wt := run(tier(bb.WriteThrough, pages, drainBW), tau, nil)
				wb := run(tier(bb.WriteBack, pages, drainBW), tau, nil)
				fmt.Printf("%9d %11.0f %8.2f %9.2fms %9.2fms %9.2fms %8d %8.2f\n",
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
	deltaDirect := float64(run(nil, 0.25, nil).Elapsed) / rounds
	deltaWB := float64(run(tier(bb.WriteBack, 8192, 200e6), 0.25, nil).Elapsed) / rounds
	const mtti, restart = 2.0, 0.5
	mDirect := failure.Daly{Delta: deltaDirect, Restart: restart, MTTI: mtti}
	mWB := failure.Daly{Delta: deltaWB, Restart: restart, MTTI: mtti}
	fmt.Printf("\nDaly model at MTTI %.0f s, restart %.1f s:\n", mtti, restart)
	fmt.Printf("  direct:     delta %6.2f ms -> tau* %5.2f s, utilization %.4f\n",
		deltaDirect*1e3, mDirect.OptimalInterval(), mDirect.OptimalUtilization())
	fmt.Printf("  write-back: delta %6.2f ms -> tau* %5.2f s, utilization %.4f\n",
		deltaWB*1e3, mWB.OptimalInterval(), mWB.OptimalUtilization())

	// Failure semantics: crash a buffer node while it still holds dirty
	// data behind a deliberately slow drain. Write-back forfeits exactly
	// the un-drained bytes; a drain torn mid-flight surfaces as injected
	// corruption for the FS checksums to catch.
	fr := run(tier(bb.WriteBack, 8192, 10e6), sim.Time(0.1),
		sim.NewFaultPlan().Add(bb.NodeTarget(0), 0.35, 0.2))
	fmt.Printf("\ncrash bb0 at t=0.35 s behind a 10 MB/s drain: lost %d dirty bytes, %d torn drains\n",
		fr.BB.LostBytes, fr.BB.TornDrains)
	fmt.Printf("byte accounting: absorbed %d = drained %d + lost %d + dropped %d + torn %d\n",
		fr.BB.AbsorbedBytes, fr.BB.DrainedBytes, fr.BB.LostBytes, fr.BB.DroppedDrainBytes, fr.BB.TornBytes)
	if fr.BB.AbsorbedBytes != fr.BB.DrainedBytes+fr.BB.LostBytes+fr.BB.DroppedDrainBytes+fr.BB.TornBytes {
		panic("bb: byte accounting identity violated")
	}
	if fr.BB.LostBytes == 0 {
		panic("bb: write-back crash lost no dirty data")
	}

	fmt.Println("\nshape check: write-back holds the visible checkpoint near the flash")
	fmt.Println("absorb time until the buffer fills or the drain loses the race with")
	fmt.Println("the next round; write-through only re-orders the same wire time; a")
	fmt.Println("node crash forfeits exactly the un-drained dirty bytes")
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
func figDiag() {
	header("Diagnosis — peer comparison on a 20-server PVFS-like cluster (§4.2.6)")
	ev := diagnose.Evaluate(20, 30, 300, 5)
	fmt.Printf("trials:               %d\n", ev.Trials)
	fmt.Printf("true positive rate:   %.1f%%\n", ev.TPRate*100)
	fmt.Printf("false pos per trial:  %.3f\n", ev.FPPerTrial)
	fmt.Println("shape check: >= 66% correct identification, essentially no false alarms")
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
// table is byte-identical for any -rebuild-shards value.
func figRebuild() {
	header("Rebuild — k+m erasure coding, declustered rebuild under a failure storm")
	run := func(drives, k, m int, ratio float64, faulty bool) workload.RebuildResult {
		return workload.RunRebuild(rebuildSpec(drives, k, m, ratio, faulty), probeReg)
	}
	scales := rebuildScales()
	// Every sweep point shares the storm and the foreground rounds.
	base := rebuildSpec(scales[0], rebuildCodes[0][0], rebuildCodes[0][1], 1, true)

	fmt.Printf("pods of %d OSSes (1 drive each); MTBF %.0f s, horizon %.0f s, permanent\n",
		base.Servers, float64(base.Faults.MTBF), float64(base.Faults.Horizon))
	fmt.Printf("crashes, correlated bursts every %.0f s killing %d drives; %d foreground\n",
		float64(base.Faults.Bursts.MTBB), base.Faults.Bursts.Size, base.Rounds)
	fmt.Printf("rounds of 1 MiB checkpoints per pod\n\n")

	fmt.Println("quiet baseline (no faults) at the small scale:")
	fmt.Printf("%6s %12s %12s\n", "k+m", "wr p99 (ms)", "rd p99 (ms)")
	quiet := map[[2]int]workload.RebuildResult{}
	for _, km := range rebuildCodes {
		r := run(scales[0], km[0], km[1], 1.0, false)
		quiet[km] = r
		if r.Crashes != 0 || r.Loss.Events != 0 {
			panic("rebuild: quiet baseline saw faults")
		}
		fmt.Printf("%4d+%-1d %12.3f %12.3f\n", km[0], km[1], r.WriteP99*1e3, r.ReadP99*1e3)
	}

	fmt.Printf("\n%7s %6s %6s %8s %9s %9s %10s %9s %11s %11s %9s\n",
		"drives", "k+m", "declus", "crashes", "loss prob", "pods lost",
		"rebuilt", "rb max(s)", "wr p99 (ms)", "rd p99 (ms)", "degraded")
	for _, drives := range scales {
		for _, km := range rebuildCodes {
			for _, ratio := range rebuildRatios {
				r := run(drives, km[0], km[1], ratio, true)
				fmt.Printf("%7d %4d+%-1d %6.2f %8d %9.5f %6d/%-3d %10d %9.3f %11.3f %11.3f %9d\n",
					r.Drives, km[0], km[1], ratio, r.Crashes, r.GroupLossFrac,
					r.PodsWithLoss, r.Pods, r.Rebuild.GroupsRebuilt,
					float64(r.Rebuild.MaxDuration), r.WriteP99*1e3, r.ReadP99*1e3,
					r.DegradedReads)
				if r.Crashes == 0 || r.Rebuild.Started == 0 {
					panic("rebuild: storm never launched a rebuild")
				}
				if r.GroupLossFrac < 0 || r.GroupLossFrac > 1 {
					panic("rebuild: loss probability out of range")
				}
				if q := quiet[km]; r.WriteP99 < q.WriteP99/2 {
					panic("rebuild: storm p99 below the quiet baseline")
				}
			}
		}
	}

	fmt.Println("\nshape check: more parity (larger m) cuts the loss probability at the")
	fmt.Println("same storm; declustering over the full population fans each rebuild")
	fmt.Println("across more survivors than a narrow window, and losses beyond m are")
	fmt.Println("typed events with exact byte accounting, never silent reads")
}

// The rebuild sweep: k+m codes and declustering ratios, crossed with the
// drive populations of rebuildScales.
var (
	rebuildCodes  = [][2]int{{4, 1}, {8, 2}, {8, 3}}
	rebuildRatios = []float64{0.05, 1.0}
)

// rebuildScales is the rebuild sweep's drive populations, from its flags:
// a quarter of -rebuild-drives (at least one pod) and -rebuild-drives.
func rebuildScales() []int {
	scales := []int{rebuildDrives / 4, rebuildDrives}
	if scales[0] < rebuildOSS {
		scales[0] = rebuildOSS
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
func rebuildSpec(drives, k, m int, ratio float64, faulty bool) workload.RebuildSpec {
	s := workload.RebuildSpec{
		Pods:    1,
		Servers: rebuildOSS,
		Red:     pfs.Redundancy{K: k, M: m, Declustering: ratio, UnitBytes: 256 << 10, ChunkBytes: 64 << 10},
		Faults: failure.OSSFaultSpec{
			MTBF:     30, // accelerated: compresses years of drive life into 4 s
			Shape:    1,
			Downtime: 0, // failures are permanent; overlaps accumulate
			Horizon:  4,
			Bursts:   failure.BurstSpec{MTBB: 2, Size: 3},
		},
		Seed:         42,
		Rounds:       rebuildRounds,
		ComputeTime:  0.25,
		WriteBytes:   1 << 20,
		MaxRetries:   3,
		RetryBackoff: sim.Time(5e-3),
		Shards:       rebuildShards,
	}
	if s.Servers > 0 {
		s.Pods = max(drives/s.Servers, 1)
	}
	if !faulty {
		s.Faults = failure.OSSFaultSpec{MTBF: 1e9, Shape: 1, Horizon: 4}
	}
	return s
}
