// Command plfsbench measures checkpoint bandwidth for a chosen access
// pattern on a simulated parallel file system, with or without PLFS
// interposition, and (with -indexbench) wall-clock timings for the PLFS
// global-index build — the read-back cost the write path defers.
//
// Examples:
//
//	plfsbench -fs lustre -servers 8 -ranks 64 -mb 4 -record 47008
//	plfsbench -fs panfs -pattern nn
//	plfsbench -sweep          # rank sweep comparing all patterns
//	plfsbench -indexbench -entries 1048576 -writers 64
//	plfsbench -sweep -json BENCH_plfs.json
//	plfsbench -pattern nn -mtbf 8 -checkpoints 4 -compute 0.5
//	plfsbench -pattern nn -mtbf 8 -ec-k 4 -ec-m 2 -ec-declustering 0.5
//	plfsbench -corrupt-rate 20 -scrub 600 -verify=false
//	plfsbench -pattern nn -bb-mode back -bb-nodes 2 -bb-capacity-mb 32 -bb-drain-mbps 100
//	plfsbench -pattern nn -bb-mode back -mtbf 8   # buffered rounds under OSS crashes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bb"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// writeOut streams write into the named file ("-" for stdout, empty
// skips). Exits non-zero on I/O errors so CI catches them.
func writeOut(path, what string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	var err error
	if path == "-" {
		err = write(os.Stdout)
	} else {
		var f *os.File
		f, err = os.Create(path)
		if err == nil {
			err = write(f)
			if e := f.Close(); err == nil {
				err = e
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", what, err)
		os.Exit(1)
	}
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

// writeObs dumps the metrics snapshot, latency report, time series, and
// trace to the named files (empty names skip).
func writeObs(reg *obs.Registry, tr *obs.Tracer, metricsPath, reportPath, tsPath, tracePath string) {
	if metricsPath != "" {
		writeOut(metricsPath, "metrics", reg.WriteJSON)
	}
	if reportPath != "" {
		snap := reg.Snapshot()
		writeOut(reportPath, "report", func(w io.Writer) error { return obs.WriteReport(w, snap) })
	}
	if tsPath != "" {
		writeOut(tsPath, "timeseries", reg.WriteSeriesCSV)
	}
	if tracePath != "" {
		writeOut(tracePath, "trace", tr.WriteJSON)
	}
}

func fsConfig(name string, servers int) (pfs.Config, bool) {
	switch name {
	case "panfs":
		return pfs.PanFSLike(servers), true
	case "lustre":
		return pfs.LustreLike(servers), true
	case "gpfs":
		return pfs.GPFSLike(servers), true
	}
	return pfs.Config{}, false
}

// patternResult is one simulated-checkpoint data point in -json output.
type patternResult struct {
	FS            string  `json:"fs"`
	Pattern       string  `json:"pattern"`
	Ranks         int     `json:"ranks"`
	MBPerRank     int64   `json:"mb_per_rank"`
	RecordBytes   int64   `json:"record_bytes"`
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	ElapsedSimSec float64 `json:"elapsed_sim_sec"`
	MetadataOps   int64   `json:"metadata_ops"`
}

// indexBenchResult is the -indexbench data point: wall-clock cost of
// turning per-writer index logs back into one global index.
type indexBenchResult struct {
	Entries        int     `json:"entries"`
	Writers        int     `json:"writers"`
	Hostdirs       int     `json:"hostdirs"`
	IngestWorkers  int     `json:"ingest_workers"`
	Extents        int     `json:"extents"`
	OpenSec        float64 `json:"open_sec"`
	MergeSec       float64 `json:"merge_sec"`
	OpenEntriesPS  float64 `json:"open_entries_per_sec"`
	MergeEntriesPS float64 `json:"merge_entries_per_sec"`
}

// benchJSON is the machine-readable result file (-json) future PRs diff as
// a BENCH_plfs.json trajectory.
type benchJSON struct {
	Results    []patternResult   `json:"results,omitempty"`
	IndexBench *indexBenchResult `json:"index_bench,omitempty"`
}

func writeJSONFile(path string, v any) {
	if path == "" {
		return
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		buf = append(buf, '\n')
		err = os.WriteFile(path, buf, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing json: %v\n", err)
		os.Exit(1)
	}
}

// runIndexBench builds an N-1 strided container with small records, then
// times (a) the full OpenReader — parallel hostdir ingest plus the
// sweep-line merge — and (b) the merge alone on an identical entry set.
func runIndexBench(entries, writers, ingestWorkers int, reg *obs.Registry) indexBenchResult {
	const rec = 8
	backend := core.NewMemBackend()
	opts := core.Options{NumHostdirs: 32, IngestWorkers: ingestWorkers, Metrics: reg}
	c, err := core.CreateContainer(backend, "/bench", opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "indexbench: %v\n", err)
		os.Exit(1)
	}
	buf := make([]byte, rec)
	perWriter := entries / writers
	for w := 0; w < writers; w++ {
		wr, err := c.OpenWriter(int32(w))
		if err != nil {
			fmt.Fprintf(os.Stderr, "indexbench: %v\n", err)
			os.Exit(1)
		}
		for i := 0; i < perWriter; i++ {
			if _, err := wr.WriteAt(buf, int64((i*writers+w)*rec)); err != nil {
				fmt.Fprintf(os.Stderr, "indexbench: %v\n", err)
				os.Exit(1)
			}
		}
		if err := wr.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "indexbench: %v\n", err)
			os.Exit(1)
		}
	}

	sw := obs.StartStopwatch()
	r, err := c.OpenReader()
	openDur := sw.Elapsed()
	if err != nil {
		fmt.Fprintf(os.Stderr, "indexbench: %v\n", err)
		os.Exit(1)
	}
	defer r.Close()

	raw := make([]core.IndexEntry, 0, perWriter*writers)
	ts := uint64(0)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			ts++
			raw = append(raw, core.IndexEntry{
				LogicalOffset: int64((i*writers + w) * rec),
				Length:        rec,
				Writer:        int32(w),
				LogOffset:     int64(i * rec),
				Timestamp:     ts,
			})
		}
	}
	sw = obs.StartStopwatch()
	g := core.BuildGlobalIndex(raw)
	mergeDur := sw.Elapsed()

	n := r.Index().NumEntries()
	res := indexBenchResult{
		Entries:       n,
		Writers:       writers,
		Hostdirs:      opts.NumHostdirs,
		IngestWorkers: ingestWorkers,
		Extents:       g.NumExtents(),
		OpenSec:       openDur.Seconds(),
		MergeSec:      mergeDur.Seconds(),
	}
	if openDur > 0 {
		res.OpenEntriesPS = float64(n) / openDur.Seconds()
	}
	if mergeDur > 0 {
		res.MergeEntriesPS = float64(len(raw)) / mergeDur.Seconds()
	}
	return res
}

// runCorrupt executes the single-pattern checkpoint under silent data
// corruption: latent sector errors arrive on the servers at the given
// rate over a one-hour dwell between write and read-back, optionally
// swept by periodic scrubs, with read-path checksums toggled by -verify.
func runCorrupt(cfg pfs.Config, p workload.Pattern, ranks int, mbEach, record int64,
	ratePerHour, scrubSec float64, verify bool, seed int64, shards int, reg *obs.Registry, tr *obs.Tracer) {
	const dwell = 3600.0 // seconds of exposure between checkpoint and read-back
	cfg.Checksums = verify
	perServer := int64(ranks) * (mbEach << 20) / int64(cfg.NumServers)
	events := failure.DrawLSE(failure.LSESpec{
		Disks:         cfg.NumServers,
		CapacityBytes: perServer,
		MTBC:          dwell / ratePerHour,
		Shape:         1,
		TornFraction:  0.2,
		Horizon:       dwell,
	}, seed)
	res := workload.RunIntegrity(cfg, workload.IntegritySpec{
		Spec: workload.Spec{
			Ranks: ranks, BytesPerRank: mbEach << 20, RecordSize: record,
			Pattern: p, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
		},
		Events:        events,
		Expose:        sim.Time(dwell),
		ScrubInterval: sim.Time(scrubSec),
		Shards:        shards,
	}, reg, tr)
	st := res.Stats
	fmt.Printf("file system:   %s (%d servers), %.2f corruptions/drive-hour, checksums %v\n",
		cfg.Name, cfg.NumServers, ratePerHour, verify)
	fmt.Printf("pattern:       %s, %d ranks x %d MiB, %.0f s dwell\n", p, ranks, mbEach, dwell)
	fmt.Printf("write:         %v, %.1f MB/s aggregate\n", res.Write.Elapsed, res.Write.Bandwidth/1e6)
	fmt.Printf("read-back:     %v, %d ops flagged\n", res.ReadElapsed, res.FlaggedReads)
	fmt.Printf("corruption:    %d injected, %d unrepaired at read-back\n", st.Injected, res.UnrepairedAtRead)
	fmt.Printf("scrub:         %d passes, %d stripe units verified\n", res.ScrubPasses, st.ScrubbedUnits)
	fmt.Printf("integrity:     %d detected, %d repaired, %d unrecoverable, %d silent reads\n",
		st.Detected, st.Repaired, st.Unrecoverable, st.SilentReads)
}

// runFaulty executes the single-pattern checkpoint under a deterministic
// fault plan: servers crash with exponential interarrivals of the given
// MTBF while the application alternates compute and checkpoint rounds,
// retrying failed ops with capped backoff.
func runFaulty(cfg pfs.Config, bcfg *bb.Config, p workload.Pattern, ranks int, mbEach, record int64,
	mtbf, downtime, computeSec float64, ckpts int, seed int64, shards int, reg *obs.Registry, tr *obs.Tracer) {
	spec := workload.Spec{
		Ranks: ranks, BytesPerRank: mbEach << 20, RecordSize: record,
		Pattern: p, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}
	// A clean run sizes the fault horizon: compute plus a generous
	// multiple of the healthy capture time per round.
	clean := workload.RunFaults(cfg, workload.FaultSpec{Spec: spec, Checkpoints: 1, Shards: shards}, nil, nil)
	horizon := float64(ckpts) * (computeSec + 8*float64(clean.Elapsed) + downtime)
	plan := failure.DrawOSSFaults(failure.OSSFaultSpec{
		Servers:  cfg.NumServers,
		MTBF:     mtbf,
		Shape:    1,
		Downtime: downtime,
		Horizon:  horizon,
	}, seed)
	res := workload.RunFaults(cfg, workload.FaultSpec{
		Spec:         spec,
		Checkpoints:  ckpts,
		ComputeTime:  sim.Time(computeSec),
		Plan:         plan,
		MaxRetries:   6,
		RetryBackoff: sim.Time(5e-3),
		MaxBackoff:   sim.Time(0.1),
		BB:           bcfg,
		Shards:       shards,
	}, reg, tr)
	fmt.Printf("file system:   %s (%d servers), per-server MTBF %.1f s, downtime %.1f s\n",
		cfg.Name, cfg.NumServers, mtbf, downtime)
	if bcfg != nil {
		printBBLines(bcfg, res)
	}
	fmt.Printf("pattern:       %s, %d ranks x %d MiB x %d checkpoints\n", p, ranks, mbEach, ckpts)
	fmt.Printf("healthy ckpt:  %v\n", clean.Elapsed)
	fmt.Printf("faulty ckpts:  %v total (%.2fx slowdown)\n",
		res.Elapsed, float64(res.Elapsed)/(float64(clean.Elapsed)*float64(ckpts)))
	fmt.Printf("utilization:   %.3f over %v wall clock\n", res.Utilization, res.WallClock)
	fmt.Printf("faults:        %d crashes, %d recoveries, %d failed ops, %d degraded reads\n",
		res.Faults.Crashes, res.Faults.Recoveries, res.Faults.FailedOps, res.Faults.DegradedReads)
	fmt.Printf("client:        %d retries, %d dropped ops\n", res.Retries, res.DroppedOps)
}

// printBBLines reports the burst-buffer tier's shape and accounting for
// any buffered run.
func printBBLines(bcfg *bb.Config, res workload.FaultResult) {
	fmt.Printf("burst buffer:  %d nodes x %d MiB flash (%s), %s, drain %.0f MB/s\n",
		bcfg.Nodes, bcfg.CapacityBytes()>>20, bcfg.Flash.Name, bcfg.Mode, bcfg.DrainBandwidth/1e6)
	moved := res.BB.DrainedBytes // write-back: async drains; write-through: sync forwards
	if bcfg.Mode == bb.WriteThrough {
		moved = res.BB.ForwardedBytes
	}
	fmt.Printf("tier:          %d B absorbed, %d to FS, %d stalls, peak occupancy %.2f\n",
		res.BB.AbsorbedBytes, moved, res.BB.Stalls, res.BB.PeakOccupancy)
	if res.BB.LostBytes > 0 || res.BB.TornDrains > 0 || res.BB.DroppedDrainBytes > 0 {
		fmt.Printf("tier faults:   %d dirty bytes lost, %d torn drains, %d drain bytes dropped\n",
			res.BB.LostBytes, res.BB.TornDrains, res.BB.DroppedDrainBytes)
	}
	fmt.Printf("drained at:    %v sim time (tail past the last checkpoint overlaps compute)\n", res.DrainedAt)
}

// runBuffered executes fault-free compute+checkpoint rounds through a
// burst-buffer tier and reports the latency hiding against the same
// rounds on the direct path.
func runBuffered(cfg pfs.Config, bcfg *bb.Config, p workload.Pattern, ranks int, mbEach, record int64,
	computeSec float64, ckpts, shards int, reg *obs.Registry, tr *obs.Tracer) {
	spec := workload.Spec{
		Ranks: ranks, BytesPerRank: mbEach << 20, RecordSize: record,
		Pattern: p, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}
	direct := workload.RunFaults(cfg, workload.FaultSpec{
		Spec: spec, Checkpoints: ckpts, ComputeTime: sim.Time(computeSec), Shards: shards,
	}, nil, nil)
	res := workload.RunFaults(cfg, workload.FaultSpec{
		Spec: spec, Checkpoints: ckpts, ComputeTime: sim.Time(computeSec), BB: bcfg, Shards: shards,
	}, reg, tr)
	fmt.Printf("file system:   %s (%d servers)\n", cfg.Name, cfg.NumServers)
	printBBLines(bcfg, res)
	fmt.Printf("pattern:       %s, %d ranks x %d MiB x %d checkpoints\n", p, ranks, mbEach, ckpts)
	fmt.Printf("direct ckpts:  %v\n", direct.Elapsed)
	fmt.Printf("buffered:      %v (%.2fx faster application-visible)\n",
		res.Elapsed, float64(direct.Elapsed)/float64(res.Elapsed))
	fmt.Printf("utilization:   %.3f buffered vs %.3f direct\n", res.Utilization, direct.Utilization)
}

func pattern(name string) (workload.Pattern, bool) {
	switch name {
	case "n1", "strided":
		return workload.N1Strided, true
	case "segmented":
		return workload.N1Segmented, true
	case "nn":
		return workload.NN, true
	case "plfs":
		return workload.PLFSPattern, true
	}
	return 0, false
}

func main() {
	var (
		fsName     = flag.String("fs", "panfs", "file system preset: panfs, lustre, gpfs")
		servers    = flag.Int("servers", 8, "number of I/O servers")
		ranks      = flag.Int("ranks", 32, "application ranks")
		mbEach     = flag.Int64("mb", 4, "checkpoint MiB per rank")
		record     = flag.Int64("record", 47008, "application record size in bytes")
		pat        = flag.String("pattern", "n1", "pattern: n1, segmented, nn, plfs")
		sweep      = flag.Bool("sweep", false, "sweep ranks {8,16,32,64,128} across all patterns")
		indexBench = flag.Bool("indexbench", false, "time the PLFS global-index build (ingest + merge) instead of a checkpoint simulation")
		entries    = flag.Int("entries", 1<<20, "indexbench: total index entries")
		writers    = flag.Int("writers", 64, "indexbench: writer (rank) count")
		ingestW    = flag.Int("ingest-workers", 0, "indexbench: parallel ingest workers (0 = GOMAXPROCS)")
		mtbf       = flag.Float64("mtbf", 0, "per-server MTBF in seconds; > 0 injects OSS crashes into the (non-sweep) run")
		corrupt    = flag.Float64("corrupt-rate", 0, "silent corruptions per drive-hour; > 0 runs write/dwell/read-back under latent sector errors")
		scrubSec   = flag.Float64("scrub", 0, "background scrub interval in seconds during the -corrupt-rate dwell (0 = no scrubbing)")
		verify     = flag.Bool("verify", true, "verify per-stripe-unit checksums on read during -corrupt-rate runs")
		downtime   = flag.Float64("downtime", 0.5, "crash downtime in seconds (0 = permanent failure)")
		faultSeed  = flag.Int64("fault-seed", 42, "seed for the deterministic fault draw")
		ckpts      = flag.Int("checkpoints", 4, "compute+checkpoint rounds under -mtbf")
		ecK        = flag.Int("ec-k", 0, "erasure coding: data fragments per redundancy group (0 = unprotected: no redundancy)")
		ecM        = flag.Int("ec-m", 0, "erasure coding: parity fragments per group (with -ec-k)")
		ecRatio    = flag.Float64("ec-declustering", 1, "erasure coding: declustering window as a fraction of the server population, in (0,1]")
		shards     = flag.Int("shards", 0, "run the simulation on a sharded cluster of this many event queues (0 = single engine); outputs are byte-identical for any value")
		bbMode     = flag.String("bb-mode", "off", "burst-buffer tier between ranks and the FS: off, back (write-back), through (write-through)")
		bbNodes    = flag.Int("bb-nodes", 2, "burst-buffer node count (with -bb-mode)")
		bbCapMB    = flag.Int64("bb-capacity-mb", 32, "flash capacity per burst-buffer node in MiB (with -bb-mode)")
		bbDrain    = flag.Float64("bb-drain-mbps", 100, "burst-buffer drain bandwidth to the FS in MB/s (with -bb-mode)")
		computeSec = flag.Float64("compute", 0.5, "simulated compute seconds between checkpoints under -mtbf")
		jsonPath   = flag.String("json", "", "write machine-readable results (JSON) to this file")
		metrics    = flag.String("metrics", "", "write a deterministic metrics snapshot (JSON) to this file")
		report     = flag.String("report", "", "write a latency/SLO dashboard (exact quantiles, stage attribution, bottlenecks) to this file, or '-' for stdout; enables per-op stage timers")
		timeseries = flag.String("timeseries", "", "write sim-time series as CSV to this file; enables windowed sampling")
		tsWindow   = flag.Float64("ts-window", 0.1, "sim-time series window in seconds (with -timeseries)")
		trace      = flag.String("trace", "", "write a Chrome trace-event file (Perfetto/chrome://tracing) to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the run to this file")
	)
	flag.Parse()

	cfg, ok := fsConfig(*fsName, *servers)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -fs %q\n", *fsName)
		os.Exit(2)
	}
	if *ecK > 0 || *ecM > 0 {
		cfg.Redundancy = pfs.Redundancy{K: *ecK, M: *ecM, Declustering: *ecRatio}
		if err := cfg.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}

	var bbCfg *bb.Config
	switch *bbMode {
	case "off":
	case "back", "through":
		c := bb.DefaultConfig(*bbNodes)
		if *bbMode == "through" {
			c.Mode = bb.WriteThrough
		}
		c.Flash.UserPages = int(*bbCapMB << 20 / c.Flash.PageSize)
		c.DrainBandwidth = *bbDrain * 1e6
		if err := c.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		bbCfg = &c
	default:
		fmt.Fprintf(os.Stderr, "unknown -bb-mode %q (off, back, through)\n", *bbMode)
		os.Exit(2)
	}

	defer startCPUProfile(*cpuprofile)()

	var reg *obs.Registry
	var tr *obs.Tracer
	if *metrics != "" || *report != "" || *timeseries != "" {
		reg = obs.NewRegistry()
	}
	if *report != "" {
		reg.EnableOpTimers()
	}
	if *timeseries != "" {
		reg.EnableTimeSeries(*tsWindow)
	}
	if *trace != "" {
		tr = obs.NewTracer()
	}
	defer writeObs(reg, tr, *metrics, *report, *timeseries, *trace)

	if *indexBench {
		res := runIndexBench(*entries, *writers, *ingestW, reg)
		effWorkers := *ingestW
		if effWorkers <= 0 {
			effWorkers = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("index build:   %d entries from %d writers over %d hostdirs\n",
			res.Entries, res.Writers, res.Hostdirs)
		fmt.Printf("ingest:        %d workers (requested %d)\n", effWorkers, *ingestW)
		fmt.Printf("open reader:   %v ingest+merge (%.2fM entries/s)\n",
			time.Duration(res.OpenSec*float64(time.Second)).Round(time.Microsecond), res.OpenEntriesPS/1e6)
		fmt.Printf("merge only:    %v sweep-line (%.2fM entries/s)\n",
			time.Duration(res.MergeSec*float64(time.Second)).Round(time.Microsecond), res.MergeEntriesPS/1e6)
		fmt.Printf("extents:       %d resolved\n", res.Extents)
		writeJSONFile(*jsonPath, benchJSON{IndexBench: &res})
		return
	}

	var jsonResults []patternResult
	addResult := func(p workload.Pattern, r int, res workload.Result) {
		jsonResults = append(jsonResults, patternResult{
			FS: cfg.Name, Pattern: p.String(), Ranks: r,
			MBPerRank: *mbEach, RecordBytes: *record,
			BandwidthMBps: res.Bandwidth / 1e6,
			ElapsedSimSec: float64(res.Elapsed),
			MetadataOps:   res.MetadataOps,
		})
	}

	if *sweep {
		fmt.Printf("sweep on %s (%d servers), %d MiB/rank, %d B records\n",
			cfg.Name, *servers, *mbEach, *record)
		fmt.Printf("%8s %16s %16s %16s %16s\n", "ranks", "N-1 MB/s", "segmented MB/s", "N-N MB/s", "PLFS MB/s")
		for _, r := range []int{8, 16, 32, 64, 128} {
			row := []float64{}
			for _, p := range []workload.Pattern{workload.N1Strided, workload.N1Segmented, workload.NN, workload.PLFSPattern} {
				res := workload.Run(cfg, workload.Spec{
					Ranks: r, BytesPerRank: *mbEach << 20, RecordSize: *record,
					Pattern: p, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
				}, reg, tr)
				row = append(row, res.Bandwidth/1e6)
				addResult(p, r, res)
			}
			fmt.Printf("%8d %16.1f %16.1f %16.1f %16.1f\n", r, row[0], row[1], row[2], row[3])
		}
		writeJSONFile(*jsonPath, benchJSON{Results: jsonResults})
		return
	}

	p, ok := pattern(*pat)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -pattern %q\n", *pat)
		os.Exit(2)
	}
	if *corrupt > 0 {
		runCorrupt(cfg, p, *ranks, *mbEach, *record, *corrupt, *scrubSec, *verify, *faultSeed, *shards, reg, tr)
		return
	}
	if *mtbf > 0 {
		runFaulty(cfg, bbCfg, p, *ranks, *mbEach, *record, *mtbf, *downtime, *computeSec, *ckpts, *faultSeed, *shards, reg, tr)
		return
	}
	if bbCfg != nil {
		runBuffered(cfg, bbCfg, p, *ranks, *mbEach, *record, *computeSec, *ckpts, *shards, reg, tr)
		return
	}
	res := workload.Run(cfg, workload.Spec{
		Ranks: *ranks, BytesPerRank: *mbEach << 20, RecordSize: *record,
		Pattern: p, PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}, reg, tr)
	addResult(p, *ranks, res)
	fmt.Printf("file system:   %s (%d servers)\n", cfg.Name, *servers)
	fmt.Printf("pattern:       %s\n", p)
	fmt.Printf("ranks:         %d x %d MiB (records of %d B)\n", *ranks, *mbEach, *record)
	fmt.Printf("elapsed:       %v\n", res.Elapsed)
	fmt.Printf("bandwidth:     %.1f MB/s aggregate\n", res.Bandwidth/1e6)
	fmt.Printf("metadata ops:  %d\n", res.MetadataOps)
	writeJSONFile(*jsonPath, benchJSON{Results: jsonResults})
}
