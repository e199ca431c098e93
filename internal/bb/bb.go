// Package bb models a burst-buffer tier: host-side flash nodes sitting
// between the checkpointing application and the striped parallel file
// system. The PDSI report's checkpoint story assumes bursts hit the
// striped FS directly; the burst-buffer literature it seeded (iFast /
// ParaLog host-side logging, Wang et al.'s burst-buffer system) inserts
// an absorption tier instead: each buffer node logs its ranks'
// checkpoint writes append-only into a flash device at device speed,
// acknowledges them, and drains the data to the parallel FS
// asynchronously — hiding checkpoint latency from compute as long as
// the drain finishes before the next burst arrives.
//
// The tier reuses internal/flash's FTL (page mapping, pre-erased pool,
// inline GC cost) as the absorption medium, driven on sim time: every
// absorbed write programs real log pages, so a burst that outruns GC
// pays the same foreground collection cost Figure 14 measures. The
// knobs map to the sizing question the papers pose:
//
//   - Flash.UserPages × Flash.PageSize is the per-node capacity — how
//     many checkpoint rounds the buffer can hold before backpressure.
//   - DrainBandwidth is the paced node→FS drain rate — together with
//     capacity it decides whether the drain wins the race against the
//     next checkpoint round (capacity × drain-rate sizing).
//   - Mode selects write-back (absorb, ack, drain later — fast but
//     dirty data dies with the node) or write-through (absorb and
//     forward synchronously — slower, nothing to lose).
//
// Failure semantics integrate with the rest of the stack: a
// sim.FaultPlan crash of a buffer node ("bb0", "bb1", ... — see
// NodeTarget) loses whatever is dirty in write-back mode (counted, and
// gone), fails in-flight absorptions back to the application for its
// retry loop, and tears any drain caught on the wire — the partially
// landed extent is marked corrupt via the pfs integrity layer, so
// checksums catch it on read exactly like any other torn write.
//
// Determinism follows the repo contract: the tier lives on the same
// engine as the file system, keeps all queues as
// FIFO slices, iterates no maps, and registers bb.* instruments only on
// instrumented engines — a run without a tier schedules no bb event and
// has no bb.* key in its snapshot.
package bb

import (
	"errors"
	"fmt"

	"repro/internal/flash"
	"repro/internal/sim"
)

// Mode selects what an absorbed write means for durability.
type Mode int

const (
	// WriteBack acknowledges a write once it is logged in flash; the
	// drain to the parallel FS happens asynchronously. Fastest, but
	// undrained ("dirty") data is lost if the buffer node crashes.
	WriteBack Mode = iota

	// WriteThrough logs the write and forwards it to the parallel FS
	// synchronously; the write acknowledges only when both copies
	// exist. A node crash loses nothing, but the checkpoint sees the
	// full FS latency — the buffer only smooths queueing, it cannot
	// hide the transfer.
	WriteThrough
)

func (m Mode) String() string {
	switch m {
	case WriteBack:
		return "write-back"
	case WriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrNodeDown is returned by WriteOp completions when the operation's
// buffer node crashed before acknowledging.
var ErrNodeDown = errors.New("bb: burst-buffer node down")

// NodeTarget names buffer node i for sim.FaultPlan targeting ("bb0",
// "bb1", ...). Foreign targets (the FS's "oss3") are ignored by the
// tier, so one plan can drive both layers through a sim.FanoutSink.
func NodeTarget(i int) string { return fmt.Sprintf("bb%d", i) }

// Config sizes a burst-buffer tier.
type Config struct {
	// Nodes is the number of buffer nodes; ranks map to nodes
	// round-robin (rank mod Nodes).
	Nodes int

	// Mode is the durability mode, WriteBack by default.
	Mode Mode

	// Flash is the per-node log device. Its UserPages × PageSize is the
	// node's buffer capacity; its program/read/GC timings set the
	// absorption speed (see internal/flash's Table 1 presets).
	Flash flash.Spec

	// DrainBandwidth paces each node's asynchronous drain to the
	// parallel FS in bytes/sec (default 100e6). Lower values lose the
	// race against the next checkpoint round sooner.
	DrainBandwidth float64
}

// The tier's fixed link and drain-retry parameters. A rank reaches its
// node over a 10 GbE-class private link: buffer nodes sit on the
// compute fabric, closer than the FS. A drain write that failed (e.g.
// against a crashed OSS) is retried up to maxDrainRetries times, the
// first after drainRetryBackoff and each later one after twice the
// last, capped at 8×, before its bytes are dropped and counted. An
// operation against a down node errors with ErrNodeDown after the file
// system's RPC timeout (pfs.FS.FailTimeout).
const (
	ingestBandwidth   = 1.25e9 // bytes/sec
	maxDrainRetries   = 4
	drainRetryBackoff = sim.Time(10e-3)
)

// DefaultConfig returns a write-back tier of n nodes backed by the
// FusionIO-class PCIe preset — the device Table 1 shows absorbing
// sequential bursts near host-link speed — draining at 100 MB/s.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:          n,
		Mode:           WriteBack,
		Flash:          flash.FusionIODuo(),
		DrainBandwidth: 100e6,
	}
}

// CapacityBytes returns the per-node buffer capacity.
func (c Config) CapacityBytes() int64 {
	return int64(c.Flash.UserPages) * c.Flash.PageSize
}

// Validate reports problems with the config.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("bb: Nodes %d < 1", c.Nodes)
	case c.Mode != WriteBack && c.Mode != WriteThrough:
		return fmt.Errorf("bb: unknown mode %d", int(c.Mode))
	case c.Flash.PageSize <= 0 || c.Flash.UserPages <= 0 || c.Flash.PagesPerBlock <= 0:
		return fmt.Errorf("bb: invalid flash spec (page size %d, user pages %d)", c.Flash.PageSize, c.Flash.UserPages)
	case c.DrainBandwidth < 0:
		return fmt.Errorf("bb: negative bandwidth")
	}
	return nil
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.DrainBandwidth == 0 {
		c.DrainBandwidth = 100e6
	}
	return c
}

// Stats aggregates the tier's activity over a run. Byte counts are
// application bytes (the model carries no payload, so absorbed ==
// logical write sizes).
type Stats struct {
	// AbsorbedOps/AbsorbedBytes count writes logged into flash.
	AbsorbedOps   int64
	AbsorbedBytes int64

	// ForwardedBytes counts synchronous write-through copies pushed to
	// the FS; PassthroughBytes counts writes too large for the buffer,
	// bypassed to the FS without logging.
	ForwardedBytes   int64
	PassthroughBytes int64

	// DrainedOps/DrainedBytes count asynchronous write-back drains
	// completed cleanly; DrainRetries counts drain attempts repeated
	// after an FS error and DroppedDrainBytes the bytes abandoned when
	// retries ran out.
	DrainedOps        int64
	DrainedBytes      int64
	DrainRetries      int64
	DroppedDrainBytes int64

	// TornDrains counts drains interrupted mid-wire by the node's
	// crash; their landing extents are marked corrupt in the FS.
	// TornBytes is their size: torn data counts as neither drained nor
	// lost, so absorbed = drained + lost + dropped + torn.
	TornDrains int64
	TornBytes  int64

	// Stalls counts writes that waited for buffer capacity
	// (backpressure); StallTime is their total wait.
	Stalls    int64
	StallTime sim.Time

	// LostBytes counts dirty write-back data destroyed by node crashes
	// (queued or read back for drain but never on the wire).
	LostBytes int64

	// Crashes/Recoveries count node fault transitions applied;
	// FailedOps counts writes errored against a down node.
	Crashes    int64
	Recoveries int64
	FailedOps  int64

	// PeakOccupancy is the maximum fraction of aggregate buffer
	// capacity ever held by unfinished data; MaxDrainLag the longest
	// absorb→drained latency of any record.
	PeakOccupancy float64
	MaxDrainLag   sim.Time
}
