package obs

// Per-operation stage attribution. An OpTimer rides along one logical
// operation (a striped write or read, across every piece and retry) and
// accumulates the simulated seconds attributable to each Stage. At
// completion an OpTimerSet folds the timer into exact per-stage
// quantiles plus a "which stage dominated this op" bottleneck counter —
// the critical-path summary the report renderer turns into a top-k
// table. Stage seconds are summed across a striped op's parallel
// pieces, so they measure where simulated work accumulates; the
// end-to-end latency of the op itself is the separate total quantile
// (stages can legitimately sum past it under parallelism, and fall
// short of it where unattributed costs like RPC timeouts or repair
// reads remain — the report shows the residual).

// Stage identifies one latency stage on the pfs data path.
type Stage uint8

const (
	// StageQueue is time spent waiting in any FIFO (client NIC, server
	// NIC, disk queue) before service starts.
	StageQueue Stage = iota
	// StageNet is NIC transfer service time, client and server side.
	StageNet
	// StageRPC is fixed per-piece RPC latency.
	StageRPC
	// StageLockWait is stripe-lock acquisition wait, including revoke
	// round-trips.
	StageLockWait
	// StageDiskSeek is mechanical head-positioning seek time.
	StageDiskSeek
	// StageDiskRotation is rotational latency on non-sequential access.
	StageDiskRotation
	// StageDiskTransfer is media transfer time.
	StageDiskTransfer
	// StageDegraded is the extra disk cost of degraded-mode reads
	// (parity reconstruction or rebuild interference) beyond the
	// fault-free service time.
	StageDegraded
	// StageBackoff is retry backoff delay accumulated across attempts.
	StageBackoff
	// StageFlash is flash program/read service time on the burst-buffer
	// hop (FTL page programming including inline GC).
	StageFlash

	// NumStages is the number of stages; it must stay last.
	NumStages
)

// stageNames are the metric-name segments per stage; they must satisfy
// the pdsilint metricname segment grammar (lowercase, underscores).
var stageNames = [NumStages]string{
	"queue",
	"net",
	"rpc",
	"lock_wait",
	"disk_seek",
	"disk_rotation",
	"disk_transfer",
	"degraded",
	"backoff",
	"flash",
}

// String returns the stage's metric-name segment.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// OpTimer accumulates per-stage simulated seconds for one operation. It
// is owned by a single logical op inside the single-threaded simulation,
// so it needs no locking. A nil *OpTimer is a valid no-op: probe sites
// call Add unconditionally and pay one branch when analytics are off.
type OpTimer struct {
	start  float64
	stages [NumStages]float64
}

// Add charges sec seconds to stage s. No-op on a nil receiver or an
// out-of-range stage.
func (t *OpTimer) Add(s Stage, sec float64) {
	if t == nil || s >= NumStages {
		return
	}
	t.stages[s] += sec
}

// Stage returns the seconds accumulated against s (0 on a nil receiver).
func (t *OpTimer) Stage(s Stage) float64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return t.stages[s]
}

// Start returns the sim-time the timer was started at.
func (t *OpTimer) Start() float64 {
	if t == nil {
		return 0
	}
	return t.start
}

// OpTimerSet is the instrument family for one operation kind (e.g.
// "pfs.write"): an end-to-end latency quantile, one quantile per stage,
// and one bottleneck counter per stage. The quantiles are the columns of
// one row per op and share one lock, so Observe takes it once. A nil
// *OpTimerSet is a valid no-op — Start returns a nil timer and Observe
// does nothing — so the whole attribution layer vanishes when analytics
// are disabled.
type OpTimerSet struct {
	cols       [1 + NumStages]*Quantile // latency, then one per stage
	bottleneck [NumStages]*Counter
}

// OpTimerSet returns the instrument family rooted at base, registering
// base+".latency_s", base+".stage.<stage>_s" quantiles and
// base+".bottleneck.<stage>" counters. A second call with the same base
// returns the same instruments, so the populations of every caller
// merge. Returns nil unless EnableOpTimers has armed the registry, so op
// timers are strictly opt-in and default snapshots stay byte-identical.
func (r *Registry) OpTimerSet(base string) *OpTimerSet {
	if r == nil || !r.OpTimersEnabled() {
		return nil
	}
	var names [1 + NumStages]string
	names[0] = base + ".latency_s"
	s := &OpTimerSet{}
	for st := Stage(0); st < NumStages; st++ {
		names[1+st] = base + ".stage." + st.String() + "_s"
		s.bottleneck[st] = r.Counter(base + ".bottleneck." + st.String())
	}
	r.quantileColumns(s.cols[:], names[:])
	return s
}

// EnableOpTimers arms the registry for per-operation stage attribution;
// until called, OpTimerSet returns nil. No-op on a nil registry.
func (r *Registry) EnableOpTimers() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.opTimers = true
}

// OpTimersEnabled reports whether EnableOpTimers has been called (false
// on a nil registry).
func (r *Registry) OpTimersEnabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opTimers
}

// Start restarts t at sim-time nowSec, clearing its stages, and returns
// it; a nil t gets a new timer. A caller that runs one op at a time
// passes the same timer each op and allocates nothing. Returns nil on a
// nil set.
func (s *OpTimerSet) Start(nowSec float64, t *OpTimer) *OpTimer {
	if s == nil {
		return nil
	}
	if t == nil {
		t = new(OpTimer)
	}
	*t = OpTimer{start: nowSec}
	return t
}

// Observe folds a completed operation into the set: total end-to-end
// latency, every stage's accumulated seconds (zeros included, so stage
// quantiles share one population), and one bottleneck count for the
// stage that dominated (ties break to the lowest stage index, which
// keeps runs deterministic). No-op when the set or timer is nil.
func (s *OpTimerSet) Observe(t *OpTimer, endSec float64) {
	if s == nil || t == nil {
		return
	}
	var row [1 + NumStages]float64
	row[0] = endSec - t.start
	copy(row[1:], t.stages[:])
	observeRow(s.cols[:], row[:])
	top, topV := -1, 0.0
	for st, v := range t.stages {
		if v > topV {
			top, topV = st, v
		}
	}
	if top >= 0 {
		s.bottleneck[top].Inc()
	}
}
