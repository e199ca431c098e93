package sim

import "repro/internal/obs"

// Server models a resource that serves requests one (or k) at a time in
// FIFO order with caller-supplied service times: a disk arm, a metadata
// server CPU, a network link. It is the workhorse queueing primitive used
// by the parallel file system and directory-service models.
type Server struct {
	eng     *Engine
	cap     int
	busy    int
	waiting FIFO[*request]
	free    []*request // recycled requests, reused by Submit

	// Busy time accounting for utilization reporting.
	busySince  Time
	busyTotal  Time
	started    uint64
	waitedTime Time

	// Optional instrumentation (nil unless Instrument is called on an
	// engine with a registry attached).
	hWait    *obs.Histogram
	hService *obs.Histogram
}

// A request is one Submit in flight, and the Handler of its own
// completion event. Requests are recycled through the server's free
// list, so a warm Submit allocates nothing. A request carries either a
// done func(Time) or a Handler continuation, never both.
type request struct {
	s       *Server
	service Time
	arrived Time
	done    func(Time)
	h       Handler
}

// Handle completes the request: its service time has elapsed.
func (r *request) Handle() { r.s.finish(r) }

// NewServer returns a FIFO server with the given concurrency (capacity >= 1).
func NewServer(eng *Engine, capacity int) *Server {
	if capacity < 1 {
		capacity = 1
	}
	return &Server{eng: eng, cap: capacity}
}

// Instrument registers this server's wait/service histograms and
// utilization gauge under the given name prefix in the engine's metrics
// registry. A no-op when the engine is uninstrumented.
func (s *Server) Instrument(name string) {
	reg := s.eng.Metrics()
	if reg == nil {
		return
	}
	s.hWait = reg.Histogram(name+".wait_s", obs.TimeBuckets())
	s.hService = reg.Histogram(name+".service_s", obs.TimeBuckets())
	reg.GaugeFunc(name+".utilization", s.Utilization)
	reg.GaugeFunc(name+".mean_wait_s", func() float64 { return float64(s.MeanWait()) })
}

// Submit enqueues a request requiring the given service time; done (if
// non-nil) is invoked at completion with the completion timestamp.
func (s *Server) Submit(service Time, done func(Time)) {
	s.submit(service, done, nil)
}

// SubmitHandler is Submit with a Handler continuation: h.Handle runs at
// completion and reads the completion time from the engine's Now.
func (s *Server) SubmitHandler(service Time, h Handler) {
	s.submit(service, nil, h)
}

func (s *Server) submit(service Time, done func(Time), h Handler) {
	var r *request
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		r = &request{s: s}
	}
	r.service, r.arrived, r.done, r.h = service, s.eng.Now(), done, h
	if s.busy < s.cap {
		s.start(r, s.eng.Now())
		return
	}
	s.waiting.Push(r)
}

// start dequeues r into service at time at, recording the queue wait it
// accumulated (zero for requests that found a free slot immediately).
func (s *Server) start(r *request, at Time) {
	s.waitedTime += at - r.arrived
	s.started++
	s.hWait.Observe(float64(at - r.arrived))
	s.hService.Observe(float64(r.service))
	if s.busy == 0 {
		s.busySince = at
	}
	s.busy++
	s.eng.AtHandler(at+r.service, r)
}

// finish completes r. The request is recycled before its continuation
// runs, so a continuation that re-submits reuses it.
func (s *Server) finish(r *request) {
	s.busy--
	if s.busy == 0 {
		s.busyTotal += s.eng.Now() - s.busySince
	}
	done, h := r.done, r.h
	r.done, r.h = nil, nil
	s.free = append(s.free, r)
	if h != nil {
		h.Handle()
	} else if done != nil {
		done(s.eng.Now())
	}
	if s.waiting.Len() > 0 && s.busy < s.cap {
		s.start(s.waiting.Pop(), s.eng.Now())
	}
}

// QueueLen reports the number of requests waiting (not in service).
func (s *Server) QueueLen() int { return s.waiting.Len() }

// MeanWait reports the mean queue wait over all requests that have
// entered service (requests that started immediately contribute zero).
func (s *Server) MeanWait() Time {
	if s.started == 0 {
		return 0
	}
	return s.waitedTime / Time(s.started)
}

// BusyTime reports accumulated time with at least one request in service.
func (s *Server) BusyTime() Time {
	t := s.busyTotal
	if s.busy > 0 {
		t += s.eng.Now() - s.busySince
	}
	return t
}

// Utilization reports BusyTime divided by elapsed simulated time.
func (s *Server) Utilization() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	return float64(s.BusyTime()) / float64(s.eng.Now())
}

// Barrier invokes done once Arrive has been called n times. It models the
// synchronization point at the end of a parallel phase (all ranks finished
// writing their checkpoint shard).
type Barrier struct {
	need int
	got  int
	done func(Time)
	eng  *Engine
}

// NewBarrier creates a barrier over n arrivals.
func NewBarrier(eng *Engine, n int, done func(Time)) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs n > 0")
	}
	return &Barrier{need: n, done: done, eng: eng}
}

// Arrive records one arrival; the last arrival fires the completion
// callback at the current time.
func (b *Barrier) Arrive() {
	b.got++
	if b.got == b.need && b.done != nil {
		b.done(b.eng.Now())
	}
	if b.got > b.need {
		panic("sim: barrier arrivals exceed n")
	}
}
