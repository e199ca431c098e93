package workload

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// This file is the rebuild-storm experiment: many independent
// erasure-coded pods — each a pfs.FS with k+m redundancy groups,
// declustered placement, and one drive per OSS — survive a drawn fault
// schedule (independent Weibull crashes plus correlated bursts) while a
// foreground client keeps checkpointing and reading back. Crashes
// launch real declustered rebuilds that compete with the foreground
// traffic through the shared disk queues; overlapping failures beyond m
// surface as typed data-loss events. The harness reports the
// population's data-loss probability, rebuild behaviour, and the
// foreground latency quantiles under the storm — the trade the paper's
// petascale reliability argument is about.
// Pods never talk to each other, so the pod population shards
// embarrassingly over GOMAXPROCS engines: the metrics snapshot is
// byte-identical for any shard count.

// RebuildSpec describes one rebuild-storm population run.
type RebuildSpec struct {
	// Pods is the number of independent pods; Servers is the number of
	// object storage servers per pod, each modeled with one drive, so the
	// simulated drive population is Pods * Servers.
	Pods    int
	Servers int

	// Red is each pod's redundancy configuration (k+m, declustering
	// ratio, rebuild sizing). Must be enabled.
	Red pfs.Redundancy

	// Faults is the per-pod fault draw; its Servers and Target fields are
	// overridden per pod. Bursts inside it add correlated multi-drive
	// crashes.
	Faults failure.OSSFaultSpec

	// Seed decorrelates pods: pod p draws with Seed + p*1e6+3 offsets.
	Seed int64

	// Rounds foreground rounds run per pod: ComputeTime of think time,
	// a WriteBytes checkpoint write, then a read-back of the same range.
	Rounds      int
	ComputeTime sim.Time
	WriteBytes  int64

	// MaxRetries and RetryBackoff govern foreground retry-on-failure
	// (exponential backoff, capped at 8x). An op that keeps failing — or
	// hits data loss, which no retry cures — is dropped and counted.
	MaxRetries   int
	RetryBackoff sim.Time
}

// Validate reports problems with the spec.
func (s RebuildSpec) Validate() error {
	switch {
	case s.Pods < 1:
		return fmt.Errorf("workload: Pods %d < 1", s.Pods)
	case s.Servers < 1:
		return fmt.Errorf("workload: Servers %d < 1", s.Servers)
	case !s.Red.Enabled():
		return fmt.Errorf("workload: rebuild experiment needs an enabled Redundancy")
	case s.Rounds < 1:
		return fmt.Errorf("workload: Rounds %d < 1", s.Rounds)
	case s.WriteBytes < 1:
		return fmt.Errorf("workload: WriteBytes %d < 1", s.WriteBytes)
	case s.ComputeTime < 0 || s.RetryBackoff < 0:
		return fmt.Errorf("workload: negative time in rebuild spec")
	case s.MaxRetries < 0:
		return fmt.Errorf("workload: MaxRetries %d < 0", s.MaxRetries)
	}
	return s.podConfig(0).Validate()
}

// podConfig is pod p's file system: Servers OSSes of one drive each on
// the spec's redundancy groups.
func (s RebuildSpec) podConfig(p int) pfs.Config {
	cfg := pfs.PanFSLike(s.Servers)
	cfg.DisksPerServer = 1 // one OSS = one drive in this experiment
	cfg.Redundancy = s.Red
	if s.Pods > 1 {
		cfg.MetricPrefix = fmt.Sprintf("pod%03d.", p)
	}
	return cfg
}

// RebuildResult reports one rebuild-storm population run.
type RebuildResult struct {
	// Pods, Servers, Drives, and Groups are the realized totals (Drives
	// = Pods * Servers at one drive per server; Groups sums redundancy
	// groups across pods).
	Pods    int
	Servers int
	Drives  int
	Groups  int

	// Crashes and Recoveries are the fault transitions applied across
	// the population; BurstEvents and BurstCrashes are the correlated
	// share of the drawn schedule.
	Crashes     int64
	Recoveries  int64
	BurstEvents int64
	BurstCrash  int64

	// Rebuild aggregates the declustered-rebuild activity (stats summed,
	// MaxDuration maxed across pods); Loss aggregates data-loss
	// accounting.
	Rebuild pfs.RebuildStats
	Loss    pfs.LossStats

	// PodsWithLoss counts pods that lost at least one group;
	// GroupLossFrac is lost groups over all groups — the measured
	// data-loss probability of the configuration.
	PodsWithLoss  int
	GroupLossFrac float64

	// DegradedReads counts foreground reads served by reconstruction.
	DegradedReads int64

	// Ops counts completed foreground writes+reads; Retries, Dropped,
	// and DataLossOps count the retry traffic, ops abandoned after
	// MaxRetries, and ops abandoned because their group was lost.
	Ops         int64
	Retries     int64
	Dropped     int64
	DataLossOps int64

	// Foreground latency quantiles (seconds) over completed ops,
	// population-wide.
	WriteP50, WriteP99 float64
	ReadP50, ReadP99   float64

	// WallClock is the longest pod's simulated duration.
	WallClock sim.Time
}

// rebuildPod is one pod's harness state; everything here is touched only
// by events on the pod's own shard, so pods run in parallel untouched.
type rebuildPod struct {
	rs *rankSet // the pod's foreground: one rank

	burstEvents int64
	burstCrash  int64

	ops, dropped, dataLoss int64
	writeLat, readLat      []float64
}

// outcome counts how one foreground op ended: a completed op's latency,
// or the data loss or persistent failure that dropped it.
func (pod *rebuildPod) outcome(o *Op, lat sim.Time, err error) {
	switch {
	case err == nil && o.Read:
		pod.ops++
		pod.readLat = append(pod.readLat, float64(lat))
	case err == nil:
		pod.ops++
		pod.writeLat = append(pod.writeLat, float64(lat))
	case errors.Is(err, pfs.ErrDataLoss):
		pod.dataLoss++
	default:
		pod.dropped++
	}
}

// RunRebuild executes the rebuild-storm population on min(GOMAXPROCS,
// Pods) shards, pod p whole on shard p % shards. The registry snapshot
// and its time series are byte-identical for any GOMAXPROCS; pods are
// fully independent, so the cluster runs with unbounded lookahead.
func RunRebuild(spec RebuildSpec, reg *obs.Registry) RebuildResult {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	cl, shards := sim.NewCluster(min(runtime.GOMAXPROCS(0), spec.Pods), sim.Infinity)
	cl.Instrument(reg)

	// Each pod's foreground is one rank that computes, writes the
	// checkpoint range and reads it back, Rounds times. The read follows
	// even a dropped write: a restarting application probes its
	// checkpoint regardless, and that is where lost groups surface as
	// ErrDataLoss.
	prog := []Program{{Ops: make([]Op, 0, 2*spec.Rounds)}}
	for range spec.Rounds {
		prog[0].Ops = append(prog[0].Ops,
			Op{File: "/ckpt", Size: spec.WriteBytes, CPU: spec.ComputeTime},
			Op{File: "/ckpt", Size: spec.WriteBytes, Read: true})
	}

	pods := make([]*rebuildPod, spec.Pods)
	result := RebuildResult{Pods: spec.Pods, Servers: spec.Servers, Drives: spec.Pods * spec.Servers}
	for p := range pods {
		fs := pfs.New(shards[p%len(shards)], spec.podConfig(p))
		seed := spec.Seed + int64(p)*1_000_003

		fspec := spec.Faults
		fspec.Servers = spec.Servers
		fspec.Target = nil
		plan, bs := failure.DrawOSSFaultsDetailed(fspec, seed)
		if err := fs.InjectFaults(plan); err != nil {
			panic(err)
		}
		result.Groups += fs.RedundancyGroups()

		rs := newRankSet(fs, prog)
		rs.maxRetries, rs.backoff, rs.maxBackoff = spec.MaxRetries, spec.RetryBackoff, 8*spec.RetryBackoff
		pod := &rebuildPod{rs: rs, burstEvents: int64(bs.Bursts), burstCrash: int64(bs.Crashes)}
		rs.outcome = pod.outcome
		pods[p] = pod
		rk := &rs.ranks[0]
		rk.client.Create("/ckpt", func(f *pfs.File) {
			rk.files = append(rk.files, f)
			rs.phase(func(sim.Time) {})
		})
	}

	result.WallClock = cl.Run()

	for _, pod := range pods {
		fs := pod.rs.fs
		fst := fs.FaultStats()
		result.Crashes += fst.Crashes
		result.Recoveries += fst.Recoveries
		result.DegradedReads += fst.DegradedReads
		rst := fs.RebuildStats()
		result.Rebuild.Started += rst.Started
		result.Rebuild.Completed += rst.Completed
		result.Rebuild.Aborted += rst.Aborted
		result.Rebuild.GroupsRebuilt += rst.GroupsRebuilt
		result.Rebuild.AbandonedGroups += rst.AbandonedGroups
		result.Rebuild.Bytes += rst.Bytes
		result.Rebuild.Busy += rst.Busy
		if rst.MaxDuration > result.Rebuild.MaxDuration {
			result.Rebuild.MaxDuration = rst.MaxDuration
		}
		ls := fs.LossStats()
		result.Loss.Events += ls.Events
		result.Loss.Groups += ls.Groups
		result.Loss.Bytes += ls.Bytes
		result.Loss.Reads += ls.Reads
		if ls.Groups > 0 {
			result.PodsWithLoss++
		}
		result.BurstEvents += pod.burstEvents
		result.BurstCrash += pod.burstCrash
		result.Ops += pod.ops
		result.Retries += pod.rs.tally.retries
		result.Dropped += pod.dropped
		result.DataLossOps += pod.dataLoss
	}
	if result.Groups > 0 {
		result.GroupLossFrac = float64(result.Loss.Groups) / float64(result.Groups)
	}
	// Pod-order aggregation keeps the quantiles shard-count-independent.
	var writes, reads []float64
	for _, pod := range pods {
		writes = append(writes, pod.writeLat...)
		reads = append(reads, pod.readLat...)
	}
	result.WriteP50 = obs.Percentile(writes, 0.50)
	result.WriteP99 = obs.Percentile(writes, 0.99)
	result.ReadP50 = obs.Percentile(reads, 0.50)
	result.ReadP99 = obs.Percentile(reads, 0.99)
	return result
}
