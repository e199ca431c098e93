// Package incast simulates TCP throughput collapse in cluster storage
// ("INCAST", Phanishayee et al. FAST'08) and the fine-grained
// retransmission-timer fix (Vasudevan et al. SIGCOMM'09) that PDSI
// demonstrated on PanFS and pushed into Linux: Figure 9 of the report.
//
// The scenario is a synchronized read: one client requests a data block
// striped over N servers and cannot proceed to the next block until every
// server's portion (the server request unit, SRU) arrives. All N
// responses converge on the client's single switch port, whose shallow
// output buffer overflows; a server that loses the tail of its SRU gets
// no duplicate ACKs (it has nothing more to send), so only a
// retransmission timeout recovers it — and with the conventional 200 ms
// minimum RTO the link sits idle for aeons on every round. Goodput
// collapses by an order of magnitude once N exceeds the buffer's
// capacity, and recovers when the minimum RTO is lowered to ~1 ms
// (with a little randomization to desynchronize retransmissions at very
// large N).
package incast

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Params configures one incast experiment.
type Params struct {
	Senders       int
	LinkBandwidth float64  // bottleneck (client port) bytes/second
	PacketSize    int64    // bytes per packet, headers included
	BufferPackets int      // switch output queue capacity in packets
	PropDelay     sim.Time // one-way propagation delay
	MinRTO        sim.Time // minimum retransmission timeout
	RTORandomize  bool     // add uniform jitter in [0, MinRTO/2) to timeouts
	SRUBytes      int64    // server request unit per sender per round
	Rounds        int
	Seed          int64
}

// DefaultParams models the paper's 1GbE testbed with a shallow-buffered
// commodity switch.
func DefaultParams(senders int) Params {
	return Params{
		Senders:       senders,
		LinkBandwidth: 1e9 / 8,
		PacketSize:    1500,
		BufferPackets: 64,
		PropDelay:     sim.Time(25e-6),
		MinRTO:        sim.Time(200e-3),
		SRUBytes:      256 << 10,
		Rounds:        4,
		Seed:          1,
	}
}

func (p Params) validate() error {
	switch {
	case p.Senders < 1:
		return fmt.Errorf("incast: Senders %d < 1", p.Senders)
	case p.LinkBandwidth <= 0 || p.PacketSize <= 0 || p.BufferPackets < 1:
		return fmt.Errorf("incast: bad link parameters")
	case p.SRUBytes < p.PacketSize:
		return fmt.Errorf("incast: SRU smaller than one packet")
	case p.Rounds < 1:
		return fmt.Errorf("incast: Rounds %d < 1", p.Rounds)
	}
	return nil
}

// Result reports one experiment.
type Result struct {
	Params      Params
	Elapsed     sim.Time
	GoodputBps  float64
	Timeouts    int
	Drops       int
	Retransmits int
}

const initialSsthresh = 12

// sender is one server's TCP state for the current round, and the
// Handler of its retransmission timer.
type sender struct {
	e          *experiment
	id         int
	total      int // packets in this SRU
	nextSeq    int // next new packet to send
	cumAcked   int // packets cumulatively acknowledged
	inOrder    int // packets the client holds in order from the SRU's start
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inflight   int
	timer      sim.EventID
	timerArmed bool
	rtoBackoff int
	done       bool
}

// Handle fires the retransmission timer.
func (s *sender) Handle() { s.e.timeout(s) }

// kickoff is a sender as the Handler of its round's start: the client's
// request reaching the server.
type kickoff sender

// Handle starts the sender's round.
func (k *kickoff) Handle() {
	s := (*sender)(k)
	s.e.pump(s)
}

// A packet is one data packet from the link to the client, and then its
// ACK back to the sender: the Handler of its delivery and of its ACK. It
// returns to the experiment's free list after its last use.
type packet struct {
	s     *sender
	seq   int
	isACK bool // delivered, and travelling back as its ACK
	cum   int  // the cumulative ACK it carries
}

// Handle delivers the packet, or hands its ACK to the sender.
func (p *packet) Handle() {
	e := p.s.e
	if !p.isACK {
		e.deliver(p)
		return
	}
	s, cum := p.s, p.cum
	p.s = nil
	e.packets.Put(p)
	e.ack(s, cum)
}

type experiment struct {
	p   Params
	eng *sim.Engine
	rng *rand.Rand

	// Bottleneck queue state: pending is the FIFO of packets occupying the
	// switch output queue; queueLen counts them plus the one in service,
	// wire. The experiment is the Handler of wire's transmit completion:
	// the link has at most one transmission outstanding.
	pending  sim.FIFO[pendingPkt]
	queueLen int
	linkBusy bool
	wire     pendingPkt
	packets  sim.FreeList[packet]

	senders []*sender
	// received[i] marks packets that arrived from sender i this round.
	received [][]bool
	doneCnt  int
	round    int

	roundStart sim.Time

	res Result
}

// Run executes the experiment and returns aggregate goodput. With a
// metrics registry and tracer attached (either may be nil), rounds appear
// as spans on the "incast" category; drop, timeout, and retransmit totals
// accumulate as counters.
func Run(p Params, reg *obs.Registry, tr *obs.Tracer) Result {
	if err := p.validate(); err != nil {
		panic(err)
	}
	e := &experiment{
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

func (e *experiment) packetsPerSRU() int {
	n := int(e.p.SRUBytes / e.p.PacketSize)
	if e.p.SRUBytes%e.p.PacketSize != 0 {
		n++
	}
	return n
}

func (e *experiment) startRound() {
	e.senders = e.senders[:0]
	e.received = e.received[:0]
	e.doneCnt = 0
	e.roundStart = e.eng.Now()
	n := e.packetsPerSRU()
	for i := 0; i < e.p.Senders; i++ {
		s := &sender{e: e, id: i, total: n, cwnd: 2, ssthresh: initialSsthresh}
		e.senders = append(e.senders, s)
		e.received = append(e.received, make([]bool, n))
		// The client's request reaches each server after one propagation
		// delay; tiny per-server jitter avoids a perfectly synchronized
		// artificial tie-break cascade.
		jitter := sim.Time(e.rng.Float64() * 2e-6)
		e.eng.ScheduleHandler(e.p.PropDelay+jitter, (*kickoff)(s))
	}
}

// pump sends as many new packets as the window allows.
func (e *experiment) pump(s *sender) {
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
func (e *experiment) transmit(s *sender, seq int) {
	if e.queueLen >= e.p.BufferPackets {
		e.res.Drops++
		return // dropped at the switch; recovery via dupacks or timeout
	}
	e.queueLen++
	e.serviceLink(s, seq)
}

// serviceLink models the bottleneck port draining one packet at a time.
func (e *experiment) serviceLink(s *sender, seq int) {
	// Each queued packet is dequeued after the packets ahead of it; we
	// model the queue implicitly by serializing transmissions through a
	// busy flag and a FIFO of pending packets.
	e.pending.Push(pendingPkt{s: s, seq: seq})
	if !e.linkBusy {
		e.drain()
	}
}

type pendingPkt struct {
	s   *sender
	seq int
}

func (e *experiment) drain() {
	if e.pending.Len() == 0 {
		e.linkBusy = false
		return
	}
	e.linkBusy = true
	e.wire = e.pending.Pop()
	txTime := sim.Time(float64(e.p.PacketSize) / e.p.LinkBandwidth)
	e.eng.ScheduleHandler(txTime, e)
}

// Handle completes the transmission of the packet on the wire.
func (e *experiment) Handle() {
	e.queueLen--
	// Deliver after propagation; keep draining concurrently.
	p := e.packets.Get()
	p.s, p.seq, p.isACK = e.wire.s, e.wire.seq, false
	e.eng.ScheduleHandler(e.p.PropDelay, p)
	e.drain()
}

// deliver processes a packet at the client and returns an ACK.
func (e *experiment) deliver(p *packet) {
	s := p.s
	if s.done || e.received[s.id] == nil {
		// Stale packet from a previous round.
		p.s = nil
		e.packets.Put(p)
		return
	}
	rcv := e.received[s.id]
	if p.seq < len(rcv) {
		rcv[p.seq] = true
	}
	// The cumulative ACK is the first packet the client lacks. Packets
	// stay received for the round, so the scan resumes where the last
	// one stopped.
	for s.inOrder < s.total && rcv[s.inOrder] {
		s.inOrder++
	}
	// ACK travels back after one propagation delay.
	p.isACK, p.cum = true, s.inOrder
	e.eng.ScheduleHandler(e.p.PropDelay, p)
}

// ack runs standard NewReno-flavored congestion control at the sender.
func (e *experiment) ack(s *sender, cum int) {
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

func (e *experiment) rto(s *sender) sim.Time {
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

func (e *experiment) armTimer(s *sender) {
	s.timerArmed = true
	s.timer = e.eng.ScheduleHandler(e.rto(s), s)
}

func (e *experiment) disarmTimer(s *sender) {
	if s.timerArmed {
		e.eng.Cancel(s.timer)
		s.timerArmed = false
	}
}

// timeout retransmits from the last cumulative ACK with a collapsed window.
func (e *experiment) timeout(s *sender) {
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

func (e *experiment) finish(s *sender) {
	s.done = true
	e.disarmTimer(s)
	e.doneCnt++
	if e.doneCnt == e.p.Senders {
		if tr := e.eng.Tracer(); tr != nil {
			tr.Span("incast", fmt.Sprintf("round %d", e.round),
				int64(e.p.Senders), float64(e.roundStart), float64(e.eng.Now()), nil)
		}
		e.round++
		if e.round < e.p.Rounds {
			e.startRound()
		}
	}
}

// Sweep runs the experiment across sender counts and returns goodput per
// point — the Figure 9 curves. The points accumulate into the same
// registry and tracer (either may be nil).
func Sweep(counts []int, mutate func(*Params), reg *obs.Registry, tr *obs.Tracer) []Result {
	out := make([]Result, 0, len(counts))
	for _, n := range counts {
		p := DefaultParams(n)
		if mutate != nil {
			mutate(&p)
		}
		out = append(out, Run(p, reg, tr))
	}
	return out
}
