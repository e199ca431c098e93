package giga

import (
	"strconv"

	"repro/internal/sim"
)

// CreateStormResult reports one mdtest/Metarates-style create benchmark.
type CreateStormResult struct {
	Servers          int
	Clients          int
	Files            int
	Elapsed          sim.Time
	CreatesPerSecond float64
	Partitions       int
	Splits           int64
	AddressingErrors int64
	LoadImbalance    float64
}

// CreateStorm runs nClients synchronous create streams totalling nFiles
// file creations against a GIGA+ directory and reports throughput — the
// Figure 7 experiment ("Scale and performance of Giga+ using UCAR
// Metarates benchmark").
func CreateStorm(cfg Config, nClients, nFiles int) CreateStormResult {
	eng := sim.NewEngine()
	dir := NewDir(eng, cfg)
	streams := make([]stream, nClients)
	for i := range streams {
		streams[i].op.c = dir.NewClient()
	}
	perClient := nFiles / nClients
	var res CreateStormResult
	done := sim.NewBarrier(eng, nClients, func(at sim.Time) { res.Elapsed = at })
	for i := range streams {
		s := &streams[i]
		s.op.done, s.client, s.files, s.barrier = s, i, perClient, done
		s.next()
	}
	eng.Run()
	res.Servers = cfg.Servers
	res.Clients = nClients
	res.Files = perClient * nClients
	if res.Elapsed > 0 {
		res.CreatesPerSecond = float64(res.Files) / float64(res.Elapsed)
	}
	res.Partitions = dir.Partitions()
	res.Splits = dir.Splits
	res.AddressingErrors = dir.AddressingErrors
	res.LoadImbalance = dir.LoadImbalance()
	return res
}

// A stream is one client's synchronous run of creates, named
// f.<client>.<k>. It reuses one createOp, whose done it is, and builds
// each name in one reused buffer.
type stream struct {
	op      createOp
	client  int
	k       int // creates acknowledged
	files   int
	name    []byte
	barrier *sim.Barrier
}

// Handle runs when the stream's create is acknowledged.
func (s *stream) Handle() {
	s.k++
	s.next()
}

// next starts create k, or arrives at the barrier after the last one.
func (s *stream) next() {
	if s.k == s.files {
		s.barrier.Arrive()
		return
	}
	s.name = append(s.name[:0], "f."...)
	s.name = strconv.AppendInt(s.name, int64(s.client), 10)
	s.name = append(s.name, '.')
	s.name = strconv.AppendInt(s.name, int64(s.k), 10)
	s.op.start(hashName(s.name))
}

// SingleServerBaseline measures the same create storm against one
// conventional metadata server (no partitioning): the non-scalable
// baseline that motivates GIGA+.
func SingleServerBaseline(insertTime, rpc sim.Time, nClients, nFiles int) CreateStormResult {
	eng := sim.NewEngine()
	srv := sim.NewServer(eng, 1)
	perClient := nFiles / nClients
	var res CreateStormResult
	done := sim.NewBarrier(eng, nClients, func(at sim.Time) { res.Elapsed = at })
	clients := make([]baselineClient, nClients)
	for i := range clients {
		c := &clients[i]
		*c = baselineClient{eng: eng, srv: srv, insert: insertTime, rpc: rpc, files: perClient, barrier: done}
		c.next()
	}
	eng.Run()
	res.Servers = 1
	res.Clients = nClients
	res.Files = perClient * nClients
	if res.Elapsed > 0 {
		res.CreatesPerSecond = float64(res.Files) / float64(res.Elapsed)
	}
	res.Partitions = 1
	return res
}

// A baselineClient is one client's synchronous run of creates against
// the single server, and the Handler of each create's request RPC,
// insert and reply RPC.
type baselineClient struct {
	eng         *sim.Engine
	srv         *sim.Server
	insert, rpc sim.Time
	k           int // creates acknowledged
	files       int
	stage       createStage // atServer, inserted or replied
	barrier     *sim.Barrier
}

// next sends create k's request, or arrives at the barrier after the
// last create.
func (c *baselineClient) next() {
	if c.k == c.files {
		c.barrier.Arrive()
		return
	}
	c.stage = atServer
	c.eng.ScheduleHandler(c.rpc, c)
}

// Handle runs the create's next step.
func (c *baselineClient) Handle() {
	switch c.stage {
	case atServer:
		c.stage = inserted
		c.srv.SubmitHandler(c.insert, c)
	case inserted:
		c.stage = replied
		c.eng.ScheduleHandler(c.rpc, c)
	case replied:
		c.k++
		c.next()
	}
}
