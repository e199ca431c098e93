//lint:allowfile goroutine -- sanctioned site: the tracer is safe for concurrent emitters under one mutex; simulations emit from a single engine thread

package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// TraceEvent is one record in the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are in microseconds of *simulated* time;
// "pid" groups a subsystem's lane block and "tid" one actor's lane
// within it (a client rank, a server, a TCP sender).
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer accumulates trace events. A nil *Tracer is the disabled tracer:
// every method is a no-op, so probe sites cost one branch when tracing
// is off.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Enabled reports whether events will be recorded. Callers with
// non-trivial argument construction should gate on this to keep the
// disabled path free.
func (t *Tracer) Enabled() bool { return t != nil }

// Span records a complete ("ph":"X") event covering [startSec, endSec]
// of simulated time. Args may be nil; when present it is serialized with
// sorted keys, preserving snapshot determinism.
func (t *Tracer) Span(cat, name string, tid int64, startSec, endSec float64, args map[string]any) {
	if t == nil {
		return
	}
	t.append(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: startSec * 1e6, Dur: (endSec - startSec) * 1e6,
		TID: tid, Args: args,
	})
}

// Instant records a zero-duration ("ph":"i") event at atSec.
func (t *Tracer) Instant(cat, name string, tid int64, atSec float64) {
	t.InstantArgs(cat, name, tid, atSec, nil)
}

// InstantArgs is Instant with an argument map (serialized with sorted
// keys, preserving snapshot determinism). Fault injectors use it to mark
// crash/recovery points with their target and downtime.
func (t *Tracer) InstantArgs(cat, name string, tid int64, atSec float64, args map[string]any) {
	if t == nil {
		return
	}
	t.append(TraceEvent{Name: name, Cat: cat, Ph: "i", TS: atSec * 1e6, TID: tid, Args: args})
}

func (t *Tracer) append(e TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// traceFile is the on-disk JSON object shape Perfetto and
// chrome://tracing both accept.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON serializes the trace. Event order is append order, which is
// deterministic in the single-threaded simulators. A nil tracer writes
// a valid empty trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := []TraceEvent{}
	if t != nil {
		t.mu.Lock()
		events = append(events, t.events...)
		t.mu.Unlock()
	}
	buf, err := json.MarshalIndent(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
