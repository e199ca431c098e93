package workload

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// This file is the scale experiment: many independent file-system pods —
// each a full pfs.FS with its own servers, clients, and metric namespace
// — checkpointing in globally barriered rounds, driven by a sharded
// sim.Cluster with conservative lookahead. It is the workload the
// sharded engine exists for: the model is too large for one event queue
// to be pleasant, but it decomposes into pods whose only coupling is the
// inter-pod round barrier, which crosses shards through Cluster.Send
// with the pod-interconnect latency as the declared lookahead.
//
// The coordination protocol is deliberately placement-blind: every
// pod-to-coordinator and coordinator-to-pod message goes through
// Cluster.Send with a per-pod stable key, even when both ends live on
// the same shard. That keeps the injected event sequence — and with it
// every snapshot — byte-identical for any shard count.

// ScaleSpec describes one sharded many-pod checkpoint run.
type ScaleSpec struct {
	// Pods is the number of independent file-system pods. Each pod is
	// one shared-state domain: it lives whole on shard pod % Shards.
	Pods int

	// RanksPerPod and ServersPerPod size each pod: RanksPerPod clients
	// checkpoint into a pfs.PanFSLike(ServersPerPod) file system.
	RanksPerPod   int
	ServersPerPod int

	// Rounds is the number of globally barriered compute+checkpoint
	// rounds: no pod starts round r+1 until every pod finished round r.
	Rounds int

	// BytesPerRank is written by every rank every round (N-N pattern,
	// one file per rank, stripe-unit-aggregated flushes).
	BytesPerRank int64

	// ComputeTime is the per-round compute phase preceding each
	// checkpoint.
	ComputeTime sim.Time

	// InterPodLatency is the one-way latency of the pod interconnect —
	// the floor every cross-pod message declares, and therefore the
	// cluster's conservative lookahead.
	InterPodLatency sim.Time

	// Shards is the number of event-queue shards (>= 1). The snapshot
	// is byte-identical for any value; only wall-clock changes.
	Shards int
}

// Validate reports problems with the spec.
func (s ScaleSpec) Validate() error {
	switch {
	case s.Pods < 1:
		return fmt.Errorf("workload: Pods %d < 1", s.Pods)
	case s.RanksPerPod < 1:
		return fmt.Errorf("workload: RanksPerPod %d < 1", s.RanksPerPod)
	case s.ServersPerPod < 1:
		return fmt.Errorf("workload: ServersPerPod %d < 1", s.ServersPerPod)
	case s.Rounds < 1:
		return fmt.Errorf("workload: Rounds %d < 1", s.Rounds)
	case s.BytesPerRank < 1:
		return fmt.Errorf("workload: BytesPerRank %d < 1", s.BytesPerRank)
	case s.ComputeTime < 0:
		return fmt.Errorf("workload: negative ComputeTime")
	case s.InterPodLatency <= 0:
		return fmt.Errorf("workload: InterPodLatency must be > 0 (it is the cluster lookahead)")
	case s.Shards < 1:
		return fmt.Errorf("workload: Shards %d < 1", s.Shards)
	}
	return nil
}

// ScaleResult reports one scale run.
type ScaleResult struct {
	// Pods, Ranks, and Servers are the realized totals.
	Pods    int
	Ranks   int
	Servers int

	// Rounds echoes the spec; TotalBytes is payload over all rounds.
	Rounds     int
	TotalBytes int64

	// WallClock is the full simulated duration.
	WallClock sim.Time

	// RoundElapsed is the coordinator-observed duration of each round:
	// broadcast of the start message to arrival of the last pod's
	// completion (includes two interconnect crossings and the compute
	// phase).
	RoundElapsed []sim.Time

	// Events is the total number of simulation events dispatched,
	// summed over shards.
	Events uint64
}

// scalePod is one pod's harness state. Each rank's place in its op
// program and its write completion live here, the completion bound once
// per rank, so a round's writes allocate no continuations.
type scalePod struct {
	shard   int
	eng     *sim.Engine
	fs      *pfs.FS
	clients []*pfs.Client
	handles []*pfs.File

	next     []int         // per rank: the op in flight
	timers   []obs.OpTimer // per rank: the op's stage timer
	written  []func(error) // per rank: completes the op in flight
	finished *sim.Barrier  // this round's checkpoint barrier
}

// issue writes rank r's op in flight, or arrives at the round's barrier
// after its last one.
func (pod *scalePod) issue(r int, ops []Op) {
	if pod.next[r] == len(ops) {
		pod.finished.Arrive()
		return
	}
	o := ops[pod.next[r]]
	ot := pod.fs.StartWriteOp(&pod.timers[r])
	pod.clients[r].WriteOp(pod.handles[r], o.Off, o.Size, ot, pod.written[r])
}

// RunScale executes the sharded many-pod experiment. The registry
// snapshot and its time series are byte-identical for any spec.Shards
// >= 1 and any GOMAXPROCS. The run is not traced: a cluster takes no
// tracer (see DESIGN.md on sharding limitations).
func RunScale(spec ScaleSpec, reg *obs.Registry) ScaleResult {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	cl, shards := sim.NewCluster(spec.Shards, spec.InterPodLatency)
	cl.Instrument(reg)

	wspec := Spec{
		Ranks:        spec.RanksPerPod,
		BytesPerRank: spec.BytesPerRank,
		RecordSize:   spec.BytesPerRank,
		Pattern:      NN,
	}
	// One op program per rank, shared across pods (every pod runs the
	// same ranks against its own file system and files).
	pods := make([]*scalePod, spec.Pods)
	for p := range pods {
		shard := p % spec.Shards
		cfg := pfs.PanFSLike(spec.ServersPerPod)
		cfg.MetricPrefix = fmt.Sprintf("pod%03d.", p)
		eng := shards[shard]
		pod := &scalePod{
			shard:   shard,
			eng:     eng,
			fs:      pfs.New(eng, cfg),
			clients: make([]*pfs.Client, spec.RanksPerPod),
			handles: make([]*pfs.File, spec.RanksPerPod),
			next:    make([]int, spec.RanksPerPod),
			timers:  make([]obs.OpTimer, spec.RanksPerPod),
			written: make([]func(error), spec.RanksPerPod),
		}
		for r := range pod.clients {
			pod.clients[r] = pod.fs.NewClient(r)
		}
		pods[p] = pod
	}
	rankOpsOnce := make([][]Op, spec.RanksPerPod)
	for r := range rankOpsOnce {
		rankOpsOnce[r] = rankOps(wspec, pods[0].fs.Cfg.StripeUnit, r)
	}
	for p, pod := range pods {
		for r := range pod.written {
			// No fault plan runs here, so pfs returns no error; only a
			// bug can make one.
			pod.written[r] = func(err error) {
				if err != nil {
					panic(fmt.Sprintf("workload: pod %d rank %d: fault-free write failed: %v", p, r, err))
				}
				pod.fs.FinishWriteOp(&pod.timers[r])
				pod.next[r]++
				pod.issue(r, rankOpsOnce[r])
			}
		}
	}

	result := ScaleResult{
		Pods:         spec.Pods,
		Ranks:        spec.Pods * spec.RanksPerPod,
		Servers:      spec.Pods * spec.ServersPerPod,
		Rounds:       spec.Rounds,
		TotalBytes:   int64(spec.Pods) * int64(spec.RanksPerPod) * spec.BytesPerRank * int64(spec.Rounds),
		RoundElapsed: make([]sim.Time, 0, spec.Rounds),
	}

	// The coordinator lives on shard 0. All of its state is touched only
	// from shard-0 events (arrivals are Cluster.Send deliveries onto
	// shard 0), so no locking is needed even under a parallel run.
	coord := shards[0]
	arrived := 0
	round := 0
	var roundStart sim.Time
	var startRound func()
	podKey := func(p int) string { return fmt.Sprintf("pod%03d", p) }

	// podRound runs one pod's compute + checkpoint phase, then reports
	// back to the coordinator. Runs as a shard-local event on the pod's
	// shard.
	podRound := func(p int) {
		pod := pods[p]
		checkpoint := func() {
			pod.finished = sim.NewBarrier(pod.eng, len(pod.clients), func(sim.Time) {
				cl.Send(pod.shard, 0, podKey(p), spec.InterPodLatency, func() {
					arrived++
					if arrived == spec.Pods {
						result.RoundElapsed = append(result.RoundElapsed, coord.Now()-roundStart)
						round++
						startRound()
					}
				})
			})
			for r := range pod.clients {
				pod.next[r] = 0
				pod.issue(r, rankOpsOnce[r])
			}
		}
		if spec.ComputeTime > 0 {
			pod.eng.Schedule(spec.ComputeTime, checkpoint)
		} else {
			checkpoint()
		}
	}

	startRound = func() {
		if round == spec.Rounds {
			return
		}
		arrived = 0
		roundStart = coord.Now()
		for p := range pods {
			p := p
			cl.Send(0, pods[p].shard, podKey(p), spec.InterPodLatency, func() {
				podRound(p)
			})
		}
	}

	// Setup: every rank creates its file (N-N: one file per rank per
	// pod), each pod reports completion, and the coordinator opens round
	// 0 once all pods are ready.
	setupArrived := 0
	for p := range pods {
		p := p
		pod := pods[p]
		ready := sim.NewBarrier(pod.eng, len(pod.clients), func(sim.Time) {
			cl.Send(pod.shard, 0, podKey(p), spec.InterPodLatency, func() {
				setupArrived++
				if setupArrived == spec.Pods {
					startRound()
				}
			})
		})
		for r := range pod.clients {
			r := r
			names := filesFor(wspec, r)
			pod.clients[r].Create(names[0], func(h *pfs.File) {
				pod.handles[r] = h
				ready.Arrive()
			})
		}
	}

	result.WallClock = cl.Run()
	for _, eng := range shards {
		result.Events += eng.Steps()
	}
	return result
}
