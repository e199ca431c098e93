// Command plfsbench measures checkpoint bandwidth for a chosen access
// pattern on a simulated parallel file system, with or without PLFS
// interposition.
//
// Examples:
//
//	plfsbench -fs lustre -servers 8 -ranks 64 -mb 4 -record 47008
//	plfsbench -fs panfs -pattern nn
//	plfsbench -sweep          # rank sweep comparing all patterns
//	plfsbench -pattern nn -mtbf 8 -checkpoints 4 -compute 0.5
//	plfsbench -pattern nn -mtbf 8 -ec-k 4 -ec-m 2 -ec-declustering 0.5
//	plfsbench -corrupt-rate 20 -scrub 600 -verify=false
//	plfsbench -pattern nn -bb-mode back -bb-nodes 2 -bb-capacity-mb 32 -bb-drain-mbps 100
//	plfsbench -pattern nn -bb-mode back -mtbf 8   # buffered rounds under OSS crashes
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bb"
	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// exitOnError reports err on stderr and exits 1.
func exitOnError(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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

// dwell is the -corrupt-rate run's exposure between checkpoint and
// read-back, in seconds.
const dwell = 3600.0

// runCorrupt executes the single-pattern checkpoint under silent data
// corruption: latent sector errors arrive on the servers at the given
// rate over a one-hour dwell between write and read-back, optionally
// swept by periodic scrubs, with read-path checksums toggled by -verify.
func runCorrupt(cfg pfs.Config, ispec workload.IntegritySpec, ratePerHour float64, verify bool, seed int64,
	reg *obs.Registry, tr *obs.Tracer) {
	cfg.Checksums = verify
	spec := ispec.Spec
	perServer := int64(spec.Ranks) * spec.BytesPerRank / int64(cfg.NumServers)
	ispec.Events = failure.DrawLSE(failure.LSESpec{
		Disks:         cfg.NumServers,
		CapacityBytes: perServer,
		MTBC:          dwell / ratePerHour,
		Shape:         1,
		TornFraction:  0.2,
		Horizon:       dwell,
	}, seed)
	res := workload.RunIntegrity(cfg, ispec, reg, tr)
	st := res.Stats
	fmt.Printf("file system:   %s (%d servers), %.2f corruptions/drive-hour, checksums %v\n",
		cfg.Name, cfg.NumServers, ratePerHour, verify)
	fmt.Printf("pattern:       %s, %d ranks x %d MiB, %.0f s dwell\n", spec.Pattern, spec.Ranks, spec.BytesPerRank>>20, dwell)
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
func runFaulty(cfg pfs.Config, fspec workload.FaultSpec, mtbf, downtime float64, seed int64,
	reg *obs.Registry, tr *obs.Tracer) {
	spec, ckpts := fspec.Spec, fspec.Checkpoints
	// A clean run sizes the fault horizon: compute plus a generous
	// multiple of the healthy capture time per round.
	clean := workload.RunFaults(cfg, workload.FaultSpec{Spec: spec, Checkpoints: 1}, nil, nil)
	horizon := float64(ckpts) * (float64(fspec.ComputeTime) + 8*float64(clean.Elapsed) + downtime)
	fspec.Plan = failure.DrawOSSFaults(failure.OSSFaultSpec{
		Servers:  cfg.NumServers,
		MTBF:     mtbf,
		Shape:    1,
		Downtime: downtime,
		Horizon:  horizon,
	}, seed)
	fspec.MaxRetries = 6
	fspec.RetryBackoff = sim.Time(5e-3)
	fspec.MaxBackoff = sim.Time(0.1)
	res := workload.RunFaults(cfg, fspec, reg, tr)
	fmt.Printf("file system:   %s (%d servers), per-server MTBF %.1f s, downtime %.1f s\n",
		cfg.Name, cfg.NumServers, mtbf, downtime)
	if fspec.BB != nil {
		printBBLines(fspec.BB, res)
	}
	fmt.Printf("pattern:       %s, %d ranks x %d MiB x %d checkpoints\n", spec.Pattern, spec.Ranks, spec.BytesPerRank>>20, ckpts)
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
func runBuffered(cfg pfs.Config, fspec workload.FaultSpec, reg *obs.Registry, tr *obs.Tracer) {
	spec := fspec.Spec
	direct := fspec
	direct.BB = nil
	directRes := workload.RunFaults(cfg, direct, nil, nil)
	res := workload.RunFaults(cfg, fspec, reg, tr)
	fmt.Printf("file system:   %s (%d servers)\n", cfg.Name, cfg.NumServers)
	printBBLines(fspec.BB, res)
	fmt.Printf("pattern:       %s, %d ranks x %d MiB x %d checkpoints\n", spec.Pattern, spec.Ranks, spec.BytesPerRank>>20, fspec.Checkpoints)
	fmt.Printf("direct ckpts:  %v\n", directRes.Elapsed)
	fmt.Printf("buffered:      %v (%.2fx faster application-visible)\n",
		res.Elapsed, float64(directRes.Elapsed)/float64(res.Elapsed))
	fmt.Printf("utilization:   %.3f buffered vs %.3f direct\n", res.Utilization, directRes.Utilization)
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

// exitIfInvalid reports a bad flag value on stderr and exits 2, before
// anything runs.
func exitIfInvalid(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
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
		bbMode     = flag.String("bb-mode", "off", "burst-buffer tier between ranks and the FS: off, back (write-back), through (write-through)")
		bbNodes    = flag.Int("bb-nodes", 2, "burst-buffer node count (with -bb-mode)")
		bbCapMB    = flag.Int64("bb-capacity-mb", 32, "flash capacity per burst-buffer node in MiB (with -bb-mode)")
		bbDrain    = flag.Float64("bb-drain-mbps", 100, "burst-buffer drain bandwidth to the FS in MB/s (with -bb-mode)")
		computeSec = flag.Float64("compute", 0.5, "simulated compute seconds between checkpoints under -mtbf")
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
	}
	exitIfInvalid(cfg.Validate())

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
		exitIfInvalid(c.Validate())
		bbCfg = &c
	default:
		fmt.Fprintf(os.Stderr, "unknown -bb-mode %q (off, back, through)\n", *bbMode)
		os.Exit(2)
	}

	// spec is the checkpoint every mode runs; the sweep varies its ranks
	// and pattern.
	spec := workload.Spec{
		Ranks: *ranks, BytesPerRank: *mbEach << 20, RecordSize: *record,
		PLFSHostdirs: 32, PLFSIndexFlushEvery: 64,
	}
	sweepRanks := []int{8, 16, 32, 64, 128}
	if *sweep {
		spec.Ranks = sweepRanks[0]
	} else {
		p, ok := pattern(*pat)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -pattern %q\n", *pat)
			os.Exit(2)
		}
		spec.Pattern = p
	}
	exitIfInvalid(spec.Validate())
	rounds := workload.FaultSpec{Spec: spec, Checkpoints: *ckpts, ComputeTime: sim.Time(*computeSec), BB: bbCfg}
	integrity := workload.IntegritySpec{Spec: spec, Expose: sim.Time(dwell), ScrubInterval: sim.Time(*scrubSec)}
	switch {
	case *sweep:
	case *corrupt > 0:
		exitIfInvalid(integrity.Validate())
	case *mtbf > 0 || bbCfg != nil:
		exitIfInvalid(rounds.Validate())
	}

	stopProfile, err := obs.StartCPUProfile(*cpuprofile)
	exitOnError(err)

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
	// The profile stops before the outputs are written: an output that
	// fails to write exits, and would leave the profile empty.
	defer func() {
		exitOnError(stopProfile())
		exitOnError(obs.WriteFiles(os.Stdout, reg, tr, *metrics, *report, *timeseries, *trace))
	}()

	switch {
	case *sweep:
		fmt.Printf("sweep on %s (%d servers), %d MiB/rank, %d B records\n",
			cfg.Name, *servers, *mbEach, *record)
		fmt.Printf("%8s %16s %16s %16s %16s\n", "ranks", "N-1 MB/s", "segmented MB/s", "N-N MB/s", "PLFS MB/s")
		for _, r := range sweepRanks {
			row := []float64{}
			for _, p := range []workload.Pattern{workload.N1Strided, workload.N1Segmented, workload.NN, workload.PLFSPattern} {
				s := spec
				s.Ranks, s.Pattern = r, p
				res := workload.Run(cfg, s, reg, tr)
				row = append(row, res.Bandwidth/1e6)
			}
			fmt.Printf("%8d %16.1f %16.1f %16.1f %16.1f\n", r, row[0], row[1], row[2], row[3])
		}
	case *corrupt > 0:
		runCorrupt(cfg, integrity, *corrupt, *verify, *faultSeed, reg, tr)
	case *mtbf > 0:
		runFaulty(cfg, rounds, *mtbf, *downtime, *faultSeed, reg, tr)
	case bbCfg != nil:
		runBuffered(cfg, rounds, reg, tr)
	default:
		res := workload.Run(cfg, spec, reg, tr)
		fmt.Printf("file system:   %s (%d servers)\n", cfg.Name, *servers)
		fmt.Printf("pattern:       %s\n", spec.Pattern)
		fmt.Printf("ranks:         %d x %d MiB (records of %d B)\n", *ranks, *mbEach, *record)
		fmt.Printf("elapsed:       %v\n", res.Elapsed)
		fmt.Printf("bandwidth:     %.1f MB/s aggregate\n", res.Bandwidth/1e6)
		fmt.Printf("metadata ops:  %d\n", res.MetadataOps)
	}
}
