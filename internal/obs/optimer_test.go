package obs

import (
	"sync"
	"testing"
)

func TestOpTimerStageAccumulation(t *testing.T) {
	r := NewRegistry()
	r.EnableOpTimers()
	set := r.OpTimerSet("pfs.write")
	if set == nil {
		t.Fatal("OpTimerSet nil after EnableOpTimers")
	}
	ot := set.Start(10, new(OpTimer))
	ot.Add(StageNet, 0.25)
	ot.Add(StageNet, 0.25)
	ot.Add(StageDiskSeek, 0.1)
	set.Observe(ot, 12)
	s := r.Snapshot()
	total := s.Quantiles["pfs.write.latency_s"]
	if total.Count != 1 || total.Max != 2 {
		t.Fatalf("latency_s = %+v, want count 1 max 2", total)
	}
	if q := s.Quantiles["pfs.write.stage.net_s"]; q.Max != 0.5 {
		t.Fatalf("stage.net_s max = %v, want 0.5", q.Max)
	}
	// Zero stages still join the population so quantiles are comparable.
	if q := s.Quantiles["pfs.write.stage.backoff_s"]; q.Count != 1 || q.Max != 0 {
		t.Fatalf("stage.backoff_s = %+v, want count 1 max 0", q)
	}
	if n := s.Counters["pfs.write.bottleneck.net"]; n != 1 {
		t.Fatalf("bottleneck.net = %d, want 1", n)
	}
}

func TestOpTimerBottleneckTiesBreakLow(t *testing.T) {
	r := NewRegistry()
	r.EnableOpTimers()
	set := r.OpTimerSet("pfs.read")
	ot := set.Start(0, new(OpTimer))
	ot.Add(StageQueue, 1)
	ot.Add(StageDiskTransfer, 1) // tie: lower index (queue) wins
	set.Observe(ot, 2)
	// An all-zero timer counts toward no bottleneck.
	set.Observe(set.Start(5, ot), 5)
	s := r.Snapshot()
	if n := s.Counters["pfs.read.bottleneck.queue"]; n != 1 {
		t.Fatalf("bottleneck.queue = %d, want 1", n)
	}
	if n := s.Counters["pfs.read.bottleneck.disk_transfer"]; n != 0 {
		t.Fatalf("bottleneck.disk_transfer = %d, want 0", n)
	}
	if total := s.Quantiles["pfs.read.latency_s"]; total.Count != 2 {
		t.Fatalf("latency count = %d, want 2", total.Count)
	}
}

func TestOpTimerSetDisabledAndNil(t *testing.T) {
	r := NewRegistry()
	if set := r.OpTimerSet("pfs.write"); set != nil {
		t.Fatal("OpTimerSet non-nil before EnableOpTimers")
	}
	var set *OpTimerSet
	ot := set.Start(1, new(OpTimer))
	if ot != nil {
		t.Fatal("nil set Start returned a timer")
	}
	ot.Add(StageNet, 1) // nil timer: no-op
	set.Observe(ot, 2)  // nil set: no-op
	var nr *Registry
	nr.EnableOpTimers()
	if nr.OpTimersEnabled() {
		t.Fatal("nil registry reports op timers enabled")
	}
}

// TestOpTimerSetConcurrentObserveAndSnapshot is two file systems in one
// process: each asks the registry for the same op-timer set and observes
// ops concurrently while a third goroutine takes snapshots. Every column
// must hold both populations, and the race detector must see every
// append and read under the one lock the columns share.
func TestOpTimerSetConcurrentObserveAndSnapshot(t *testing.T) {
	const ops = 10000
	r := NewRegistry()
	r.EnableOpTimers()
	stop := make(chan struct{})
	snapped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				snapped <- n
				return
			default:
				r.Snapshot()
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			set := r.OpTimerSet("x.op")
			var timer OpTimer
			for i := 0; i < ops; i++ {
				ot := set.Start(float64(i), &timer)
				ot.Add(Stage(i%int(NumStages)), float64(g+1))
				set.Observe(ot, float64(i+g+1))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	t.Logf("%d snapshots taken while observing", <-snapped)
	s := r.Snapshot()
	if len(s.Quantiles) != 1+int(NumStages) {
		t.Fatalf("%d quantiles, want %d", len(s.Quantiles), 1+NumStages)
	}
	for name, q := range s.Quantiles {
		if q.Count != 2*ops {
			t.Errorf("%s holds %d samples, want %d", name, q.Count, 2*ops)
		}
	}
	if q := s.Quantiles["x.op.latency_s"]; q.Min != 1 || q.Max != 2 || q.Sum != 3*ops {
		t.Errorf("latency_s = %+v, want min 1, max 2, sum %d", q, 3*ops)
	}
	var tops int64
	for st := Stage(0); st < NumStages; st++ {
		tops += s.Counters["x.op.bottleneck."+st.String()]
	}
	if tops != 2*ops {
		t.Errorf("bottleneck counts sum to %d, want %d", tops, 2*ops)
	}
}

func TestStageNamesMatchGrammar(t *testing.T) {
	for st := Stage(0); st < NumStages; st++ {
		name := st.String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has no name", st)
		}
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_') {
				t.Fatalf("stage name %q has illegal rune %q", name, c)
			}
		}
	}
	if NumStages.String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
}

// TestDisabledProbesAllocateNothing is the zero-overhead contract: with
// analytics disabled every hot-path probe must be a branch, not an
// allocation.
func TestDisabledProbesAllocateNothing(t *testing.T) {
	var set *OpTimerSet
	var timer OpTimer
	var ts *TimeSeries
	if n := testing.AllocsPerRun(100, func() {
		ot := set.Start(1, &timer)
		ot.Add(StageNet, 0.5)
		ot.Add(StageQueue, 0.1)
		set.Observe(ot, 2)
		ts.Observe(4, 5)
	}); n != 0 {
		t.Fatalf("disabled probes allocated %v times per run, want 0", n)
	}
}

func BenchmarkOpTimerObserve(b *testing.B) {
	r := NewRegistry()
	r.EnableOpTimers()
	set := r.OpTimerSet("bench.op")
	var timer OpTimer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ot := set.Start(float64(i), &timer)
		ot.Add(StageNet, 0.5)
		ot.Add(StageDiskTransfer, 1.5)
		set.Observe(ot, float64(i)+3)
	}
}

func BenchmarkOpTimerDisabled(b *testing.B) {
	var set *OpTimerSet
	var timer OpTimer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ot := set.Start(float64(i), &timer)
		ot.Add(StageNet, 0.5)
		set.Observe(ot, float64(i)+1)
	}
}
