// Package obs is SPROUT's dependency-free observability layer: nestable
// tracing spans threaded through the pipeline via context.Context,
// counters and histograms for solver telemetry, a Chrome trace-event
// exporter (chrometrace.go), a structured slog sink (log.go), and the
// machine-readable RunReport (report.go) embedded in routing results.
//
// The paper attributes most of SPROUT's runtime to node-current
// evaluation (§II-H: ~90%). Measured here, the split depends on the
// board; perfbench's per-layer output (`perfbench/run.sh --trace 1`)
// reports it per workload from these spans. This package exists so that
// cost is measured per rail and per pipeline stage before it is
// optimized.
//
// Everything is nil-safe and gated on one atomic load: a context without
// a tracer (or with a disabled one) makes StartSpan, Event, Counter.Add
// and Histogram.Observe near-zero-cost no-ops, so instrumentation is safe
// to leave on hot paths (verified by BenchmarkDisabled* in this package
// and the BenchmarkNodeCurrents before/after numbers).
package obs

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"context"
)

// Attr is one key/value annotation on a span or event. Values should be
// JSON-encodable (strings, numbers, bools).
type Attr struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// A builds an Attr.
func A(key string, val any) Attr { return Attr{Key: key, Val: val} }

// SpanRecord is one completed span as stored by the tracer and as
// exported in a TracePart. Records are appended when a span ends; nested
// spans therefore precede their parent in the record list, and the
// ordering is deterministic for a deterministic pipeline.
type SpanRecord struct {
	// ID is the span id, assigned in start order from 1.
	ID uint64 `json:"id"`
	// Parent is the id of the enclosing span (0 for a root span).
	Parent uint64 `json:"parent,omitempty"`
	// Track is the logical track name assigned with WithTrack ("" for the
	// main track). The Chrome exporter maps each track to its own thread
	// row.
	Track string `json:"track,omitempty"`
	// Name is the span name (a paper stage such as "Seed" or "Grow").
	Name string `json:"name"`
	// Start and End are offsets from the tracer epoch, encoded as integer
	// nanoseconds.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Attrs holds the span annotations.
	Attrs []Attr `json:"attrs,omitempty"`
	// Err is the failure recorded with Fail ("" for a clean span).
	Err string `json:"err,omitempty"`
}

// EventRecord is one instant event (Event), e.g. a single grow iteration.
type EventRecord struct {
	Track string        `json:"track,omitempty"`
	Name  string        `json:"name"`
	TS    time.Duration `json:"ts_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Tracer collects spans, events, counters and histograms for one run.
// The zero value and the nil tracer are disabled; New returns an enabled
// one. A Tracer is safe for concurrent use.
type Tracer struct {
	enabled atomic.Bool
	logger  *slog.Logger

	// traceID names the distributed trace this tracer's spans belong to
	// (32 hex chars, random unless WithTraceID continued a propagated
	// one). replica annotates every exported span with the node that
	// recorded it; remoteParent is the cross-replica span ref the root
	// spans attach to at stitch time (0 = this tracer starts the trace).
	traceID      string
	replica      string
	remoteParent uint64
	// epoch is the wall-clock origin of the tracer offsets, used to place
	// this tracer's spans on the fleet-wide timeline when parts from
	// several replicas are stitched.
	epoch time.Time

	// now returns the current offset from the tracer epoch. Replaceable
	// for deterministic tests (WithClock).
	now func() time.Duration

	mu       sync.Mutex
	nextSpan uint64
	spans    []SpanRecord
	events   []EventRecord

	metricsMu sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock replaces the tracer clock — the function returning the
// offset from the tracer epoch — for deterministic tests.
func WithClock(now func() time.Duration) Option {
	return func(t *Tracer) { t.now = now }
}

// WithLogger attaches a structured logger; span completions are logged at
// Debug level and span failures at Warn level.
func WithLogger(l *slog.Logger) Option {
	return func(t *Tracer) { t.logger = l }
}

// WithTraceID continues a propagated trace instead of starting a new one.
// Invalid ids (wrong length) are ignored, keeping the generated one.
func WithTraceID(id string) Option {
	return func(t *Tracer) {
		if len(id) == 32 {
			t.traceID = id
		}
	}
}

// WithReplica names the replica recording this tracer's spans; the name
// qualifies span refs and labels the replica's process row in a stitched
// trace.
func WithReplica(name string) Option {
	return func(t *Tracer) { t.replica = name }
}

// WithRemoteParent attaches this tracer's root spans to a remote span
// (by ref) when the trace is stitched.
func WithRemoteParent(ref uint64) Option {
	return func(t *Tracer) { t.remoteParent = ref }
}

// WithEpoch pins the tracer's wall-clock origin — paired with WithClock
// for deterministic stitch tests.
func WithEpoch(epoch time.Time) Option {
	return func(t *Tracer) { t.epoch = epoch }
}

// New returns an enabled tracer whose epoch is the call time.
func New(opts ...Option) *Tracer {
	epoch := time.Now()
	t := &Tracer{
		epoch:   epoch,
		traceID: NewTraceID(),
		now:     func() time.Duration { return time.Since(epoch) },
	}
	for _, o := range opts {
		o(t)
	}
	t.enabled.Store(true)
	return t
}

// TraceID returns the tracer's distributed-trace id ("" on nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Enabled reports whether the tracer records anything. Nil-safe: a nil
// tracer is disabled.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled flips the recording gate (no-op on a nil tracer).
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// SpanRecords returns a snapshot of the completed spans in end order.
func (t *Tracer) SpanRecords() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// EventRecords returns a snapshot of the recorded instant events.
func (t *Tracer) EventRecords() []EventRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]EventRecord(nil), t.events...)
}

// ctxKey keys the context values carried by this package.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	trackKey
)

// WithTracer attaches a tracer to the context; the whole pipeline reads
// it back with FromContext.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the context's tracer, or nil (a disabled tracer)
// when none is attached.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Enabled reports whether the context carries an enabled tracer — the
// single check instrumentation sites use to skip non-trivial attribute
// computation.
func Enabled(ctx context.Context) bool { return FromContext(ctx).Enabled() }

// WithTrack assigns the logical track (e.g. "rail:VDD1") that subsequent
// spans and events on this context are recorded under. A no-op when
// tracing is disabled.
func WithTrack(ctx context.Context, name string) context.Context {
	t := FromContext(ctx)
	if !t.Enabled() {
		return ctx
	}
	return context.WithValue(ctx, trackKey, name)
}

// Span is one in-flight span. The nil span (returned by StartSpan when
// tracing is disabled) is a safe no-op for every method.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	track  string
	name   string
	start  time.Duration
	attrs  []Attr
	err    string
}

// StartSpan opens a span named after a pipeline stage. The returned
// context carries the span so children nest under it; when tracing is
// disabled the context is returned unchanged and the span is nil.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := FromContext(ctx)
	if !t.Enabled() {
		return ctx, nil
	}
	s := &Span{t: t, name: name, start: t.now()}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	if parent, ok := ctx.Value(spanKey).(*Span); ok && parent != nil {
		s.parent = parent.id
		s.track = parent.track
	}
	if track, ok := ctx.Value(trackKey).(string); ok {
		s.track = track
	}
	t.mu.Lock()
	t.nextSpan++
	s.id = t.nextSpan
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey, s), s
}

// SetAttrs appends annotations to the span (no-op on nil).
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Fail records the failure that ended the span. Nil-safe on both the
// span and the error, so `sp.Fail(err)` needs no guard at call sites.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
}

// End closes the span and appends its record to the tracer (no-op on
// nil). End must be called exactly once, from the goroutine that started
// the span.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.now()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Track:  s.track,
		Name:   s.name,
		Start:  s.start,
		End:    end,
		Attrs:  s.attrs,
		Err:    s.err,
	})
	s.t.mu.Unlock()
	if l := s.t.logger; l != nil {
		if s.err != "" {
			l.Warn("span failed", "span", s.name, "dur", end-s.start, "err", s.err)
		} else {
			l.Debug("span", "span", s.name, "dur", end-s.start)
		}
	}
}

// Event records an instant event (e.g. one grow iteration) on the
// context's current track. A no-op when tracing is disabled.
func Event(ctx context.Context, name string, attrs ...Attr) {
	t := FromContext(ctx)
	if !t.Enabled() {
		return
	}
	rec := EventRecord{Name: name, TS: t.now()}
	if sp, ok := ctx.Value(spanKey).(*Span); ok && sp != nil {
		rec.Track = sp.track
	}
	if track, ok := ctx.Value(trackKey).(string); ok {
		rec.Track = track
	}
	if len(attrs) > 0 {
		rec.Attrs = append(rec.Attrs, attrs...)
	}
	t.mu.Lock()
	t.events = append(t.events, rec)
	t.mu.Unlock()
}
