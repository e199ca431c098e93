package incast

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sim"
)

func quickParams(senders int) Params {
	p := DefaultParams(senders)
	p.SRUBytes = 64 << 10
	p.Rounds = 2
	return p
}

func TestValidateRejectsBadParams(t *testing.T) {
	for _, bad := range []Params{
		{},
		{Senders: 1, LinkBandwidth: 1, PacketSize: 1500, BufferPackets: 4, SRUBytes: 100, Rounds: 1},
		{Senders: 1, LinkBandwidth: 1e9, PacketSize: 1500, BufferPackets: 4, SRUBytes: 64 << 10, Rounds: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("params %+v should panic", bad)
				}
			}()
			Run(bad, nil, nil)
		}()
	}
}

func TestSingleSenderNearLineRate(t *testing.T) {
	// One sender cannot overflow the buffer; goodput approaches link rate.
	r := Run(quickParams(1), nil, nil)
	if r.Timeouts != 0 {
		t.Fatalf("single sender suffered %d timeouts", r.Timeouts)
	}
	link := r.Params.LinkBandwidth
	if r.GoodputBps < 0.5*link {
		t.Fatalf("goodput %.0f, want >= 50%% of link %.0f", r.GoodputBps, link)
	}
}

func TestFewSendersStillFast(t *testing.T) {
	r := Run(quickParams(4), nil, nil)
	if r.GoodputBps < 0.5*r.Params.LinkBandwidth {
		t.Fatalf("4 senders goodput %.0f collapsed prematurely", r.GoodputBps)
	}
}

func TestGoodputCollapsesAtScaleWithHighMinRTO(t *testing.T) {
	// Figure 9's left curve: with 200ms minimum RTO, goodput collapses by
	// an order of magnitude once senders overrun the buffer.
	small := Run(quickParams(2), nil, nil)
	big := Run(quickParams(48), nil, nil)
	if big.Timeouts == 0 {
		t.Fatal("48 synchronized senders should suffer timeouts")
	}
	ratio := small.GoodputBps / big.GoodputBps
	if ratio < 5 {
		t.Fatalf("collapse ratio = %.1fx (%.0f -> %.0f), want >= 5x",
			ratio, small.GoodputBps, big.GoodputBps)
	}
}

func TestLowMinRTORestoresGoodput(t *testing.T) {
	// Figure 9's fix: dropping the minimum RTO to 1ms restores goodput.
	slow := Run(quickParams(48), nil, nil)
	fast := func() Result {
		p := quickParams(48)
		p.MinRTO = 1e-3
		return Run(p, nil, nil)
	}()
	if fast.GoodputBps < 3*slow.GoodputBps {
		t.Fatalf("1ms RTO goodput %.0f should be >= 3x the 200ms goodput %.0f",
			fast.GoodputBps, slow.GoodputBps)
	}
	if fast.GoodputBps < 0.3*fast.Params.LinkBandwidth {
		t.Fatalf("1ms RTO goodput %.0f still far from line rate", fast.GoodputBps)
	}
}

func TestDropsOccurOnlyUnderOverflow(t *testing.T) {
	one := Run(quickParams(1), nil, nil)
	if one.Drops != 0 {
		t.Fatalf("single sender saw %d drops", one.Drops)
	}
	many := Run(quickParams(64), nil, nil)
	if many.Drops == 0 {
		t.Fatal("64 senders should overflow the buffer")
	}
}

func TestLargerBufferDelaysCollapse(t *testing.T) {
	shallow := quickParams(32)
	deep := quickParams(32)
	deep.BufferPackets = 1024
	rs, rd := Run(shallow, nil, nil), Run(deep, nil, nil)
	if rd.GoodputBps <= rs.GoodputBps {
		t.Fatalf("deep buffer %.0f should beat shallow %.0f at 32 senders",
			rd.GoodputBps, rs.GoodputBps)
	}
}

func TestRandomizedRTOHelpsAtExtremeScale(t *testing.T) {
	// At very large N even 1ms RTO senders retransmit in lockstep; the
	// SIGCOMM'09 fix adds timer randomization.
	base := quickParams(128)
	base.MinRTO = 1e-3
	plain := Run(base, nil, nil)
	jittered := base
	jittered.RTORandomize = true
	j := Run(jittered, nil, nil)
	// Randomization should not hurt; typically it helps or ties.
	if j.GoodputBps < 0.8*plain.GoodputBps {
		t.Fatalf("randomized RTO %.0f much worse than plain %.0f", j.GoodputBps, plain.GoodputBps)
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	a, b := Run(quickParams(16), nil, nil), Run(quickParams(16), nil, nil)
	if a.Elapsed != b.Elapsed || a.Timeouts != b.Timeouts || a.Drops != b.Drops {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSweepShape(t *testing.T) {
	counts := []int{1, 4, 16, 48}
	rs := Sweep(counts, func(p *Params) { p.SRUBytes = 64 << 10; p.Rounds = 2 }, nil, nil)
	if len(rs) != len(counts) {
		t.Fatalf("sweep returned %d results", len(rs))
	}
	if rs[len(rs)-1].GoodputBps >= rs[0].GoodputBps {
		t.Fatalf("sweep should collapse: %v -> %v", rs[0].GoodputBps, rs[len(rs)-1].GoodputBps)
	}
}

func TestAllDataDelivered(t *testing.T) {
	// Conservation: the run only terminates when every round's every SRU
	// is fully delivered, so elapsed must be finite and positive and no
	// events may linger.
	r := Run(quickParams(24), nil, nil)
	if r.Elapsed <= 0 {
		t.Fatal("experiment did not complete")
	}
}

// sameResult compares two results field by field, floats by their bits.
func sameResult(a, b Result) bool {
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	return a.Params == b.Params &&
		bits(float64(a.Elapsed)) == bits(float64(b.Elapsed)) &&
		bits(a.GoodputBps) == bits(b.GoodputBps) &&
		a.Timeouts == b.Timeouts && a.Drops == b.Drops && a.Retransmits == b.Retransmits
}

// TestRunMatchesReference runs Run next to the closure code it replaced,
// kept in incast_reference_test.go, over fixed and generated sender
// counts, buffers, SRUs, RTO settings, seeds and rounds, each side with
// its own registry and tracer. Every event is scheduled at the same time
// and in the same order, so the results, the metrics snapshots (every
// sim.events_* counter and sim.queue_depth_max among them) and the trace
// bytes must be identical.
func TestRunMatchesReference(t *testing.T) {
	type runFunc func(reg *obs.Registry, tr *obs.Tracer) []Result
	check := func(name string, run, ref runFunc) bool {
		reg, refReg := obs.NewRegistry(), obs.NewRegistry()
		tr, refTr := obs.NewTracer(), obs.NewTracer()
		got, want := run(reg, tr), ref(refReg, refTr)
		for i := range want {
			if !sameResult(got[i], want[i]) {
				t.Errorf("%s: Run %+v, reference %+v", name, got[i], want[i])
				return false
			}
		}
		snap, refSnap := reg.Snapshot(), refReg.Snapshot()
		if snap.Counters["sim.events_dispatched"] == 0 || !reflect.DeepEqual(snap, refSnap) {
			t.Errorf("%s: snapshot %+v, reference %+v", name, snap, refSnap)
			return false
		}
		var trace, refTrace bytes.Buffer
		if err := tr.WriteJSON(&trace); err != nil {
			t.Fatal(err)
		}
		if err := refTr.WriteJSON(&refTrace); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trace.Bytes(), refTrace.Bytes()) {
			t.Errorf("%s: trace differs from the reference's", name)
			return false
		}
		return true
	}
	checkRun := func(p Params) bool {
		return check(fmt.Sprintf("%+v", p),
			func(reg *obs.Registry, tr *obs.Tracer) []Result { return []Result{Run(p, reg, tr)} },
			func(reg *obs.Registry, tr *obs.Tracer) []Result { return []Result{refRun(p, reg, tr)} })
	}
	params := func(senders, buffer int, sru int64, minRTO sim.Time, randomize bool, seed int64, rounds int) Params {
		p := DefaultParams(senders)
		p.BufferPackets, p.SRUBytes, p.MinRTO, p.RTORandomize, p.Seed, p.Rounds = buffer, sru, minRTO, randomize, seed, rounds
		return p
	}
	for _, p := range []Params{
		// Fig 9's largest point under each of its RTO settings.
		DefaultParams(64),
		params(64, 64, 256<<10, 1e-3, false, 1, 4),
		params(64, 64, 256<<10, 1e-3, true, 1, 4),
		params(1, 4, 1500, 200e-3, false, 1, 1),      // one packet
		params(48, 4, 64<<10, 1e-3, true, 7, 2),      // shallow buffer
		params(16, 64, 100000, 200e-3, true, 3, 3),   // SRU not a whole number of packets
		params(32, 16, 256<<10, 200e-3, false, 2, 4), // stale packets across rounds
	} {
		checkRun(p)
	}
	// A sweep accumulates its points into one registry and tracer, as
	// Figure 9 does.
	counts := []int{1, 8, 48}
	mutate := func(p *Params) { p.SRUBytes, p.Rounds, p.MinRTO, p.RTORandomize = 64<<10, 2, 1e-3, true }
	check(fmt.Sprintf("sweep %v", counts),
		func(reg *obs.Registry, tr *obs.Tracer) []Result { return Sweep(counts, mutate, reg, tr) },
		func(reg *obs.Registry, tr *obs.Tracer) []Result { return refSweep(counts, mutate, reg, tr) })
	f := func(senders, buffer uint8, sru uint32, fastRTO, randomize bool, seed int64, rounds uint8) bool {
		minRTO := sim.Time(200e-3)
		if fastRTO {
			minRTO = 1e-3
		}
		return checkRun(params(1+int(senders)%64, 4+int(buffer)%61, 1500+int64(sru)%(256<<10-1500+1),
			minRTO, randomize, seed, 1+int(rounds)%4))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocsPerEvent pins a packet, an ACK and a timer at about zero
// allocations: packets come from a free list, the experiment is the
// Handler of the link and each sender of its timer and kick-off, and the
// switch queue is a ring buffer. What is left is per round and per run.
func TestRunAllocsPerEvent(t *testing.T) {
	p := DefaultParams(64)
	p.MinRTO = 1e-3
	reg := obs.NewRegistry()
	Run(p, reg, nil)
	events := float64(reg.Snapshot().Counters["sim.events_dispatched"])
	allocs := testing.AllocsPerRun(1, func() { Run(p, nil, nil) })
	perEvent := allocs / events
	t.Logf("%.0f allocations over %.0f dispatched events: %.5f per event", allocs, events, perEvent)
	if perEvent >= 0.01 {
		t.Errorf("%.5f allocations per dispatched event, want under 0.01", perEvent)
	}
}

// BenchmarkIncastSweep runs Figure 9's three sweeps: 200 ms minimum RTO,
// 1 ms, and 1 ms randomized, over 1 to 64 senders.
func BenchmarkIncastSweep(b *testing.B) {
	b.ReportAllocs()
	counts := []int{1, 2, 4, 8, 16, 32, 48, 64}
	for i := 0; i < b.N; i++ {
		Sweep(counts, nil, nil, nil)
		Sweep(counts, func(p *Params) { p.MinRTO = 1e-3 }, nil, nil)
		Sweep(counts, func(p *Params) { p.MinRTO = 1e-3; p.RTORandomize = true }, nil, nil)
	}
}
