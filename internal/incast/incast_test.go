package incast

import (
	"testing"
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
