package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Span("cat", "x", 0, 0, 1, nil)
	tr.Instant("cat", "y", 0, 0)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var f struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if f.TraceEvents == nil || len(f.TraceEvents) != 0 {
		t.Fatalf("empty trace should serialize as [], got %v", f.TraceEvents)
	}
}

func TestTracerEmitsChromeTraceEvents(t *testing.T) {
	tr := NewTracer()
	tr.Span("pfs", "write", 3, 0.001, 0.0035, map[string]any{"size": int64(4096)})
	tr.Instant("pfs", "drop", 1, 0.002)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) != 2 {
		t.Fatalf("%d trace events, want 2", len(f.TraceEvents))
	}
	span := f.TraceEvents[0]
	if span.Ph != "X" || span.Name != "write" || span.Cat != "pfs" || span.TID != 3 {
		t.Fatalf("span = %+v", span)
	}
	// Sim seconds convert to trace microseconds.
	if span.TS != 1000 || span.Dur != 2500 {
		t.Fatalf("span ts/dur = %v/%v, want 1000/2500", span.TS, span.Dur)
	}
	inst := f.TraceEvents[1]
	if inst.Ph != "i" || inst.TS != 2000 {
		t.Fatalf("instant = %+v", inst)
	}
}

func TestTracerDeterministicBytes(t *testing.T) {
	build := func() []byte {
		tr := NewTracer()
		for i := 0; i < 10; i++ {
			tr.Span("c", "op", int64(i%3), float64(i), float64(i)+0.5,
				map[string]any{"i": int64(i), "b": "x"})
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical traces serialized to different bytes")
	}
}
