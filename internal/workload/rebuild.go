package workload

import (
	"errors"
	"fmt"

	"repro/internal/failure"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// This file is the rebuild-storm experiment: many independent
// erasure-coded pods — each a pfs.FS with k+m redundancy groups,
// declustered placement, and one drive per OSS — survive a drawn fault
// schedule (independent Weibull crashes plus correlated bursts, and
// optionally latent sector errors) while a foreground client keeps
// checkpointing and reading back. Crashes launch real declustered
// rebuilds that compete with the foreground traffic through the shared
// disk queues; overlapping failures beyond m surface as typed data-loss
// events. The harness reports the population's data-loss probability,
// rebuild behaviour, and the foreground latency quantiles under the
// storm — the trade the paper's petascale reliability argument is about.
// Pods never talk to each other, so the pod population shards
// embarrassingly: the metrics snapshot is byte-identical for any shard
// count.

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

	// LSE, when non-nil, arms per-drive latent sector errors (Disks is
	// overridden per pod) and turns on read checksums, so scrub-less
	// detection happens on foreground reads and repairs route through the
	// redundancy groups.
	LSE *failure.LSESpec

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

	// Shards is the number of event-queue shards (>= 1); pod p lives
	// whole on shard p % Shards. Snapshots are byte-identical for any
	// value.
	Shards int
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
	case s.Shards < 1:
		return fmt.Errorf("workload: Shards %d < 1", s.Shards)
	}
	return s.podConfig(0).Validate()
}

// podConfig is pod p's file system: Servers OSSes of one drive each on
// the spec's redundancy groups, checksummed when latent sector errors
// are armed.
func (s RebuildSpec) podConfig(p int) pfs.Config {
	cfg := pfs.PanFSLike(s.Servers)
	cfg.DisksPerServer = 1 // one OSS = one drive in this experiment
	cfg.Redundancy = s.Red
	if s.Pods > 1 {
		cfg.MetricPrefix = fmt.Sprintf("pod%03d.", p)
	}
	if s.LSE != nil {
		cfg.Checksums = true
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
	eng *sim.Engine
	fs  *pfs.FS

	burstEvents int64
	burstCrash  int64

	ops, retries, dropped, dataLoss int64
	writeLat, readLat               []float64

	timer obs.OpTimer // the foreground op's stage timer
}

// RunRebuild executes the rebuild-storm population. The registry
// snapshot and its time series are byte-identical for any spec.Shards
// >= 1 and any GOMAXPROCS; pods are fully independent, so the cluster runs with
// unbounded lookahead.
func RunRebuild(spec RebuildSpec, reg *obs.Registry) RebuildResult {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	cl, shards := sim.NewCluster(spec.Shards, sim.Infinity)
	cl.Instrument(reg)

	pods := make([]*rebuildPod, spec.Pods)
	result := RebuildResult{Pods: spec.Pods, Servers: spec.Servers, Drives: spec.Pods * spec.Servers}
	for p := range pods {
		eng := shards[p%spec.Shards]
		pod := &rebuildPod{eng: eng, fs: pfs.New(eng, spec.podConfig(p))}
		seed := spec.Seed + int64(p)*1_000_003

		fspec := spec.Faults
		fspec.Servers = spec.Servers
		fspec.Target = nil
		plan, bs := failure.DrawOSSFaultsDetailed(fspec, seed)
		pod.burstEvents = int64(bs.Bursts)
		pod.burstCrash = int64(bs.Crashes)
		if err := pod.fs.InjectFaults(plan); err != nil {
			panic(err)
		}
		if spec.LSE != nil {
			lspec := *spec.LSE
			lspec.Disks = spec.Servers
			if err := pod.fs.InjectCorruption(failure.DrawLSE(lspec, seed^0x15e)); err != nil {
				panic(err)
			}
		}
		pods[p] = pod
		result.Groups += pod.fs.RedundancyGroups()
		startRebuildPod(pod, spec)
	}

	result.WallClock = cl.Run()

	var lost, groups int64
	for _, pod := range pods {
		fst := pod.fs.FaultStats()
		result.Crashes += fst.Crashes
		result.Recoveries += fst.Recoveries
		result.DegradedReads += fst.DegradedReads
		rst := pod.fs.RebuildStats()
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
		ls := pod.fs.LossStats()
		result.Loss.Events += ls.Events
		result.Loss.Groups += ls.Groups
		result.Loss.Bytes += ls.Bytes
		result.Loss.Reads += ls.Reads
		if ls.Groups > 0 {
			result.PodsWithLoss++
		}
		lost += ls.Groups
		groups += int64(pod.fs.RedundancyGroups())
		result.BurstEvents += pod.burstEvents
		result.BurstCrash += pod.burstCrash
		result.Ops += pod.ops
		result.Retries += pod.retries
		result.Dropped += pod.dropped
		result.DataLossOps += pod.dataLoss
	}
	if groups > 0 {
		result.GroupLossFrac = float64(lost) / float64(groups)
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

// startRebuildPod chains one pod's foreground rounds: compute, write the
// checkpoint range, read it back, repeat — retrying failed ops with
// exponential backoff and dropping (counted) what cannot complete.
func startRebuildPod(pod *rebuildPod, spec RebuildSpec) {
	fs := pod.fs
	client := fs.NewClient(0)
	maxBackoff := spec.RetryBackoff * 8

	// attempt writes or reads the checkpoint range with the retry loop;
	// done receives whether it completed. Latency spans all attempts and
	// their backoffs, but each attempt restarts the pod's stage timer, so
	// the stage quantiles cover only the attempt that succeeded.
	attempt := func(f *pfs.File, read bool, lat *[]float64, done func(ok bool)) {
		start := pod.eng.Now()
		tries := 0
		backoff := spec.RetryBackoff
		var ot *obs.OpTimer
		var try func()
		complete := func(err error) {
			if err == nil {
				if read {
					fs.FinishReadOp(ot)
				} else {
					fs.FinishWriteOp(ot)
				}
				*lat = append(*lat, float64(pod.eng.Now()-start))
				pod.ops++
				done(true)
				return
			}
			if errors.Is(err, pfs.ErrDataLoss) {
				// No retry resurrects a lost group.
				pod.dataLoss++
				done(false)
				return
			}
			if tries < spec.MaxRetries {
				tries++
				pod.retries++
				d := backoff
				if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				pod.eng.Schedule(d, try)
				return
			}
			pod.dropped++
			done(false)
		}
		try = func() {
			if read {
				ot = fs.StartReadOp(&pod.timer)
				client.ReadOp(f, 0, spec.WriteBytes, ot, complete)
			} else {
				ot = fs.StartWriteOp(&pod.timer)
				client.WriteOp(f, 0, spec.WriteBytes, ot, complete)
			}
		}
		try()
	}

	client.Create("/ckpt", func(f *pfs.File) {
		round := 0
		var next func()
		next = func() {
			if round == spec.Rounds {
				return
			}
			round++
			run := func() {
				attempt(f, false, &pod.writeLat, func(bool) {
					// Read back even after a dropped write — a restarting
					// application probes its checkpoint regardless, and
					// that is where lost groups surface as ErrDataLoss.
					attempt(f, true, &pod.readLat, func(bool) { next() })
				})
			}
			if spec.ComputeTime > 0 {
				pod.eng.Schedule(spec.ComputeTime, run)
			} else {
				run()
			}
		}
		next()
	})
}
