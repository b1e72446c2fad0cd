package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"time"
)

// PhaseMetric is the histogram family every finished span records into, one
// series per hierarchical phase path: perspectron_phase_seconds{phase="..."}.
const PhaseMetric = "perspectron_phase_seconds"

// spanCtxKey carries the current span path through a context, so nested
// StartSpan calls compose hierarchical phase names ("collect/run").
type spanCtxKey struct{}

// Span measures one pipeline phase's wall time. End records the duration
// into the registry's phase histogram and, when an event sink is attached,
// appends a JSONL run event.
type Span struct {
	reg   *Registry
	path  string
	start time.Time
}

// StartSpan opens a span named name under the process-wide registry — the
// convenience form of Registry.StartSpan.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return Get().StartSpan(ctx, name)
}

// StartSpan opens a span. The returned context carries the span's path so
// that child spans started under it render hierarchically
// ("train/select/mi").
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	path := name
	if parent, ok := ctx.Value(spanCtxKey{}).(string); ok && parent != "" {
		path = parent + "/" + name
	}
	return context.WithValue(ctx, spanCtxKey{}, path),
		&Span{reg: r, path: path, start: time.Now()}
}

// Path returns the span's hierarchical phase path.
func (s *Span) Path() string { return s.path }

// End closes the span: the elapsed wall time is recorded into
// perspectron_phase_seconds{phase=<path>} and emitted to the event sink.
func (s *Span) End() {
	secs := time.Since(s.start).Seconds()
	s.reg.Histogram(Name(PhaseMetric, "phase", s.path), DurationBuckets).Observe(secs)
	if s.reg.hasSink.Load() {
		s.reg.emit(map[string]any{"event": "span", "phase": s.path, "seconds": secs})
	}
}

// eventSink serializes writes to the run-event log.
type eventSink struct{ w io.Writer }

// SetEventSink attaches w as the JSONL run-event log: every span end and
// Event call appends one JSON object per line. nil detaches. The registry
// serializes writes; the caller retains ownership of w (close it after
// detaching).
func (r *Registry) SetEventSink(w io.Writer) {
	r.sinkMu.Lock()
	r.sink = eventSink{w: w}
	r.hasSink.Store(w != nil)
	r.sinkMu.Unlock()
}

// HasEventSink reports whether an event sink is attached. A producer on a
// path that runs often checks it before building Event's field map, so a
// run without a sink boxes no field values.
func (r *Registry) HasEventSink() bool { return r.hasSink.Load() }

// Event appends an arbitrary named run event (plus the given fields) to the
// event sink, if one is attached. Use it for one-shot run outcomes that have
// no natural metric shape — a detection verdict, a training summary.
func (r *Registry) Event(name string, fields map[string]any) {
	if !r.HasEventSink() {
		return
	}
	ev := map[string]any{"event": name}
	for k, v := range fields {
		ev[k] = v
	}
	r.emit(ev)
}

// emit writes one JSONL line to the sink, stamping the wall-clock time.
func (r *Registry) emit(ev map[string]any) {
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	if r.sink.w == nil {
		return
	}
	ev["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	r.sink.w.Write(append(line, '\n'))
}
