package incast

// refRun is the incast experiment as it stood before packets, the link
// and the senders ran as pooled handlers: a closure per transmission,
// delivery, ACK, RTO timer and round kick-off, and a slice queue at the
// switch that shifts on every dequeue. TestRunMatchesReference runs it
// next to Run and requires the same Result, metrics snapshot and trace
// bytes. It shares Params, Result, DefaultParams and initialSsthresh
// with incast.go; otherwise only the names differ from that code.

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// refSender is one server's TCP state for the current round.
type refSender struct {
	id          int
	total       int // packets in this SRU
	nextSeq     int // next new packet to send
	cumAcked    int // packets cumulatively acknowledged
	cwnd        float64
	ssthresh    float64
	dupAcks     int
	inflight    int
	timer       sim.EventID
	timerArmed  bool
	rtoBackoff  int
	done        bool
	recoverUpTo int // fast-recovery high-water mark
}

type refExperiment struct {
	p   Params
	eng *sim.Engine
	rng *rand.Rand

	// Bottleneck queue state: pending is the FIFO of packets occupying the
	// switch output queue; queueLen counts them plus the one in service.
	pending  []refPendingPkt
	queueLen int
	linkBusy bool

	senders []*refSender
	// received[i] marks packets that arrived from sender i this round.
	received [][]bool
	doneCnt  int
	round    int

	roundStart sim.Time

	res Result
}

// refRun executes the experiment and returns aggregate goodput. With a
// metrics registry and tracer attached (either may be nil), rounds appear
// as spans on the "incast" category; drop, timeout, and retransmit totals
// accumulate as counters.
func refRun(p Params, reg *obs.Registry, tr *obs.Tracer) Result {
	if err := p.validate(); err != nil {
		panic(err)
	}
	e := &refExperiment{
		p:   p,
		eng: sim.NewEngine(),
		rng: rand.New(rand.NewSource(p.Seed)),
	}
	e.eng.Instrument(reg, tr)
	e.res.Params = p
	e.startRound()
	e.eng.Run()
	e.res.Elapsed = e.eng.Now()
	total := float64(p.Senders) * float64(p.SRUBytes) * float64(p.Rounds)
	if e.res.Elapsed > 0 {
		e.res.GoodputBps = total / float64(e.res.Elapsed)
	}
	reg.Counter("incast.timeouts").Add(int64(e.res.Timeouts))
	reg.Counter("incast.drops").Add(int64(e.res.Drops))
	reg.Counter("incast.retransmits").Add(int64(e.res.Retransmits))
	reg.Counter("incast.rounds").Add(int64(p.Rounds))
	return e.res
}

func (e *refExperiment) packetsPerSRU() int {
	n := int(e.p.SRUBytes / e.p.PacketSize)
	if e.p.SRUBytes%e.p.PacketSize != 0 {
		n++
	}
	return n
}

func (e *refExperiment) startRound() {
	e.senders = e.senders[:0]
	e.received = e.received[:0]
	e.doneCnt = 0
	e.roundStart = e.eng.Now()
	n := e.packetsPerSRU()
	for i := 0; i < e.p.Senders; i++ {
		s := &refSender{id: i, total: n, cwnd: 2, ssthresh: initialSsthresh}
		e.senders = append(e.senders, s)
		e.received = append(e.received, make([]bool, n))
		// The client's request reaches each server after one propagation
		// delay; tiny per-server jitter avoids a perfectly synchronized
		// artificial tie-break cascade.
		jitter := sim.Time(e.rng.Float64() * 2e-6)
		e.eng.Schedule(e.p.PropDelay+jitter, func() { e.pump(s) })
	}
}

// pump sends as many new packets as the window allows.
func (e *refExperiment) pump(s *refSender) {
	for !s.done && s.inflight < int(s.cwnd) && s.nextSeq < s.total {
		seq := s.nextSeq
		s.nextSeq++
		s.inflight++
		e.transmit(s, seq)
	}
	if !s.done && !s.timerArmed && s.cumAcked < s.total {
		e.armTimer(s)
	}
}

// transmit offers a packet to the bottleneck queue.
func (e *refExperiment) transmit(s *refSender, seq int) {
	if e.queueLen >= e.p.BufferPackets {
		e.res.Drops++
		return // dropped at the switch; recovery via dupacks or timeout
	}
	e.queueLen++
	e.serviceLink(s, seq)
}

// serviceLink models the bottleneck port draining one packet at a time.
func (e *refExperiment) serviceLink(s *refSender, seq int) {
	// Each queued packet is dequeued after the packets ahead of it; we
	// model the queue implicitly by serializing transmissions through a
	// busy flag and a FIFO of pending packets.
	e.pending = append(e.pending, refPendingPkt{s: s, seq: seq})
	if !e.linkBusy {
		e.drain()
	}
}

type refPendingPkt struct {
	s   *refSender
	seq int
}

func (e *refExperiment) drain() {
	if len(e.pending) == 0 {
		e.linkBusy = false
		return
	}
	e.linkBusy = true
	pkt := e.pending[0]
	copy(e.pending, e.pending[1:])
	e.pending = e.pending[:len(e.pending)-1]
	txTime := sim.Time(float64(e.p.PacketSize) / e.p.LinkBandwidth)
	e.eng.Schedule(txTime, func() {
		e.queueLen--
		// Deliver after propagation; keep draining concurrently.
		e.eng.Schedule(e.p.PropDelay, func() { e.deliver(pkt.s, pkt.seq) })
		e.drain()
	})
}

// deliver processes a packet at the client and returns an ACK.
func (e *refExperiment) deliver(s *refSender, seq int) {
	if s.done || e.received[s.id] == nil {
		return // stale packet from a previous round
	}
	rcv := e.received[s.id]
	if seq < len(rcv) {
		rcv[seq] = true
	}
	cum := s.cumAcked
	for cum < s.total && rcv[cum] {
		cum++
	}
	// ACK travels back after one propagation delay.
	e.eng.Schedule(e.p.PropDelay, func() { e.ack(s, cum) })
}

// ack runs standard NewReno-flavored congestion control at the sender.
func (e *refExperiment) ack(s *refSender, cum int) {
	if s.done {
		return
	}
	if cum > s.cumAcked {
		newly := cum - s.cumAcked
		s.cumAcked = cum
		s.inflight -= newly
		if s.inflight < 0 {
			s.inflight = 0
		}
		s.dupAcks = 0
		s.rtoBackoff = 0
		if s.cwnd < s.ssthresh {
			s.cwnd += float64(newly) // slow start
		} else {
			s.cwnd += float64(newly) / s.cwnd // congestion avoidance
		}
		if s.cumAcked >= s.total {
			e.finish(s)
			return
		}
		e.disarmTimer(s)
		e.armTimer(s)
		e.pump(s)
		return
	}
	// Duplicate ACK.
	s.dupAcks++
	if s.dupAcks == 3 && s.cumAcked < s.nextSeq {
		// Fast retransmit.
		s.ssthresh = s.cwnd / 2
		if s.ssthresh < 2 {
			s.ssthresh = 2
		}
		s.cwnd = s.ssthresh
		s.dupAcks = 0
		e.res.Retransmits++
		e.transmit(s, s.cumAcked)
		e.disarmTimer(s)
		e.armTimer(s)
	}
}

func (e *refExperiment) rto(s *refSender) sim.Time {
	base := e.p.MinRTO
	nominal := 4 * e.p.PropDelay
	if nominal > base {
		base = nominal
	}
	for i := 0; i < s.rtoBackoff; i++ {
		base *= 2
	}
	if e.p.RTORandomize {
		base += sim.Time(e.rng.Float64()) * e.p.MinRTO / 2
	}
	return base
}

func (e *refExperiment) armTimer(s *refSender) {
	s.timerArmed = true
	s.timer = e.eng.Schedule(e.rto(s), func() { e.timeout(s) })
}

func (e *refExperiment) disarmTimer(s *refSender) {
	if s.timerArmed {
		e.eng.Cancel(s.timer)
		s.timerArmed = false
	}
}

// timeout retransmits from the last cumulative ACK with a collapsed window.
func (e *refExperiment) timeout(s *refSender) {
	s.timerArmed = false
	if s.done || s.cumAcked >= s.total {
		return
	}
	e.res.Timeouts++
	e.res.Retransmits++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.inflight = 0
	s.nextSeq = s.cumAcked // go-back-N from the hole
	s.rtoBackoff++
	if s.rtoBackoff > 8 {
		s.rtoBackoff = 8
	}
	e.pump(s)
}

func (e *refExperiment) finish(s *refSender) {
	s.done = true
	e.disarmTimer(s)
	e.doneCnt++
	if e.doneCnt == e.p.Senders {
		e.eng.Tracer().Span("incast", fmt.Sprintf("round %d", e.round),
			int64(e.p.Senders), float64(e.roundStart), float64(e.eng.Now()), nil)
		e.round++
		if e.round < e.p.Rounds {
			e.startRound()
		}
	}
}

// refSweep runs the experiment across sender counts and returns goodput per
// point — the Figure 9 curves. The points accumulate into the same
// registry and tracer (either may be nil).
func refSweep(counts []int, mutate func(*Params), reg *obs.Registry, tr *obs.Tracer) []Result {
	out := make([]Result, 0, len(counts))
	for _, n := range counts {
		p := DefaultParams(n)
		if mutate != nil {
			mutate(&p)
		}
		out = append(out, refRun(p, reg, tr))
	}
	return out
}
