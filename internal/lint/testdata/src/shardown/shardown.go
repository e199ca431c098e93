// Fixture for the shardown analyzer: Cluster.Shard is setup-only, and
// no event callback — directly or through helpers — may reach it. The
// fixture imports the real sim package so receiver detection matches
// production code.
package shardown

import "repro/internal/sim"

// Wire resolves shard engines at setup time: legal.
func Wire(cl *sim.Cluster) []*sim.Engine {
	engines := make([]*sim.Engine, cl.NumShards())
	for i := range engines {
		engines[i] = cl.Shard(i)
	}
	return engines
}

// peek reaches into the shard table; fine when called at setup, fatal
// when reached from an event callback.
func peek(cl *sim.Cluster, i int) sim.Time {
	return cl.Shard(i).Now()
}

func Direct(cl *sim.Cluster) {
	eng := cl.Shard(0)
	eng.Schedule(10, func() { // clean: the callback touches only its own shard
		println("tick")
	})
	eng.Schedule(20, func() { // want `event callback reaches Cluster.Shard`
		cl.Shard(1).Schedule(1, func() {})
	})
}

func Transitive(cl *sim.Cluster) {
	cl.Sample(100, func(now sim.Time) { // want `event callback reaches Cluster.Shard`
		if peek(cl, 0) > now {
			println("skew")
		}
	})
}

var theCluster *sim.Cluster

func crossShard() {
	theCluster.Shard(1).Schedule(1, func() {})
}

func tick() { println("t") }

func Named(eng *sim.Engine) {
	eng.At(5, tick)       // clean: tick never touches the shard table
	eng.At(7, crossShard) // want `event callback reaches Cluster.Shard`
}

func Bound(eng *sim.Engine, cl *sim.Cluster) {
	relay := func() {
		cl.Shard(0).Schedule(1, func() {})
	}
	eng.Schedule(3, relay) // want `event callback reaches Cluster.Shard`
}

func Queue(srv *sim.Server, cl *sim.Cluster) {
	srv.Submit(10, func(at sim.Time) { // want `event callback reaches Cluster.Shard`
		cl.Shard(0).At(at, func() {})
	})
}

// SendClean is the sanctioned cross-shard path: the Send callback runs
// on the destination shard and needs no table lookup.
func SendClean(cl *sim.Cluster) {
	cl.Send(0, 1, "rpc", 5, func() {
		println("delivered")
	})
}

// The line-level escape hatch still works.
func Allowed(eng *sim.Engine, cl *sim.Cluster) {
	//lint:allow shardown -- fixture proves the escape hatch
	eng.Schedule(9, func() { cl.Shard(1).Schedule(1, func() {}) })
}

// hop is a Handler whose Handle reaches the shard table.
type hop struct{ cl *sim.Cluster }

func (h *hop) Handle() { peek(h.cl, 1) }

// stay is a Handler that touches only its own state.
type stay struct{ n int }

func (s *stay) Handle() { s.n++ }

// Handlers roots each handler-form call at its argument's Handle.
func Handlers(eng *sim.Engine, srv *sim.Server, cl *sim.Cluster) {
	eng.ScheduleHandler(1, &stay{}) // clean: stay.Handle never touches the shard table
	srv.SubmitHandler(2, &stay{})   // clean
	h := &hop{cl: cl}
	eng.AtHandler(3, h)                             // want `event callback reaches Cluster.Shard`
	srv.SubmitHandler(4, h)                         // want `event callback reaches Cluster.Shard`
	eng.ScheduleHandler(5, h)                       // want `event callback reaches Cluster.Shard`
	eng.ScheduleHandler(6, sim.HandlerFunc(func() { // want `event callback reaches Cluster.Shard`
		cl.Shard(0).Schedule(1, func() {})
	}))
	eng.ScheduleHandler(7, sim.HandlerFunc(tick)) // clean
}
