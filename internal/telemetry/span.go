package telemetry

import (
	"context"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing rides on the trace-ID plumbing that already existed
// (TraceID in every log record): a Tracer mints spans with parent links,
// start times, durations, status, and a bounded attribute set; span trees
// accumulate per root request and are tail-sampled into a lock-striped
// in-process TraceStore when the root span ends. Requests arriving with a
// wire-propagated trace context (see wire.EncodeTraceCtx) join the
// caller's trace instead of minting their own, so a GIIS-style nested
// query produces one coherent multi-hop tree.
//
// The disarmed path — no Tracer in the context chain — costs one context
// lookup and allocates nothing: StartSpan returns (ctx, nil) and every
// Span method is safe on a nil receiver, so instrumented code carries no
// "is tracing on" branches.

// SpanID identifies one span within a trace. Zero means "no span".
type SpanID uint64

// NewSpanID mints a random non-zero span ID from the per-P rand source.
func NewSpanID() SpanID {
	for {
		if id := SpanID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// String renders the ID as 16 hex digits ("" for the zero ID).
func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	var b [16]byte
	s := strconv.AppendUint(b[:0], uint64(id), 16)
	for len(s) < 16 {
		s = append(s[:1], s...)
		s[0] = '0'
	}
	return string(s)
}

// ParseSpanID parses the hex form produced by String; "" parses to 0.
func ParseSpanID(s string) (SpanID, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	return SpanID(v), err
}

// MarshalJSON renders the ID as a quoted hex string.
func (id SpanID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

// MaxSpanAttrs bounds the attributes one span can carry; SetAttr calls
// past the bound are dropped so a hot loop cannot balloon a span.
const MaxSpanAttrs = 8

// SpanAttr is one key-value annotation on a span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is the immutable, stored form of a finished span.
type SpanRecord struct {
	ID       SpanID        `json:"id"`
	Parent   SpanID        `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Err      string        `json:"err,omitempty"`
	Attrs    []SpanAttr    `json:"attrs,omitempty"`
}

// traceBuf accumulates the spans of one root request until the root span
// ends, at which point the tail-sampling decision is made once for the
// whole tree. Spans that finish after the root (async job work spawned by
// a SUBMIT that already acked) append directly to the store iff the trace
// was kept.
type traceBuf struct {
	mu        sync.Mutex
	trace     TraceID
	root      SpanID
	spans     []SpanRecord
	err       bool
	finalized bool
	kept      bool
}

// Span is one in-flight timed operation. All methods are safe on a nil
// receiver, which is what StartSpan returns when tracing is disarmed.
type Span struct {
	tracer *Tracer
	buf    *traceBuf
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	root   bool
	attrs  [MaxSpanAttrs]SpanAttr
	nattrs int
	errMsg string
	ended  atomic.Bool
}

// Trace returns the span's trace ID ("" on nil).
func (s *Span) Trace() TraceID {
	if s == nil {
		return ""
	}
	return s.trace
}

// ID returns the span's ID (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Parent returns the parent span's ID (0 on nil or for a root).
func (s *Span) Parent() SpanID {
	if s == nil {
		return 0
	}
	return s.parent
}

// SetAttr annotates the span; attributes past MaxSpanAttrs are dropped.
// Not safe for concurrent use on the same span.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.nattrs >= MaxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = SpanAttr{Key: key, Value: value}
	s.nattrs++
}

// Fail marks the span errored; an errored span forces its whole trace to
// be retained by tail sampling.
func (s *Span) Fail(msg string) {
	if s == nil {
		return
	}
	if msg == "" {
		msg = "error"
	}
	s.errMsg = msg
}

// End finishes the span and records it into its trace. Ending a span
// twice (or ending nil) is a no-op.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.tracer.finish(s, s.tracer.now())
}

// EndAt is End with a caller-supplied completion time, for call sites
// that already measured the operation on their own clock.
func (s *Span) EndAt(end time.Time) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.tracer.finish(s, end)
}

type spanKey struct{}

// ContextWithSpan returns a context carrying the span as the current
// parent for StartSpan.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom extracts the current span from ctx (nil when absent).
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's current span. When the
// context carries no span (tracing disarmed, or the request was not
// sampled) it returns (ctx, nil) at the cost of one context lookup and
// zero allocations; the nil span accepts SetAttr/Fail/End as no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tracer.child(parent, name)
	return ContextWithSpan(ctx, s), s
}

// TracerOptions configures a Tracer. The zero value traces everything
// into a default-sized store.
type TracerOptions struct {
	// SampleRate is the probability that a trace with no error and no
	// slow-threshold hit is kept. Exactly 0 means the default of 1.0
	// (keep everything); pass a negative rate to keep only errored and
	// slow traces. Values above 1 clamp to 1.
	SampleRate float64
	// SlowThreshold retains every trace whose root span lasts at least
	// this long, regardless of SampleRate. Zero disables the rule.
	SlowThreshold time.Duration
	// Capacity bounds the trace store (default 512 traces); the oldest
	// trace is evicted when full.
	Capacity int
	// MaxSpans bounds the spans buffered per trace (default 256); spans
	// past the bound are counted, not stored.
	MaxSpans int
	// Telemetry, when set, receives the tracer's drop/keep counters.
	Telemetry *Registry
	// Clock, when set, replaces time.Now for span timestamps (tests).
	Clock func() time.Time
}

// TracerOptionsFromFlags maps the server binaries' -trace-sample and
// -trace-slow flag values onto TracerOptions. The flag's 0 means "keep
// only errored and slow traces", which TracerOptions spells as a
// negative rate (its own 0 means "default to 1.0").
func TracerOptionsFromFlags(sample float64, slow time.Duration) TracerOptions {
	if sample == 0 {
		sample = -1
	}
	return TracerOptions{SampleRate: sample, SlowThreshold: slow}
}

// Tracer mints spans, buffers them per trace, and tail-samples finished
// traces into its store. All methods are safe on a nil receiver.
type Tracer struct {
	sample   float64
	slow     time.Duration
	maxSpans int
	clock    func() time.Time
	store    *TraceStore

	spansTotal    *Counter
	tracesKept    *Counter
	tracesSampled *Counter // sampled out (dropped by probability)
	spansOverflow *Counter
	spansLate     *Counter // finished after root finalize, trace dropped

	// publishHook, when set, runs after a kept trace's buffer finalizes
	// and before the trace is stored; tests use it to end a late span in
	// that window.
	publishHook func()
}

// NewTracer builds a tracer from opts.
func NewTracer(opts TracerOptions) *Tracer {
	sample := opts.SampleRate
	switch {
	case sample == 0:
		sample = 1
	case sample < 0:
		sample = 0
	case sample > 1:
		sample = 1
	}
	maxSpans := opts.MaxSpans
	if maxSpans <= 0 {
		maxSpans = 256
	}
	clk := opts.Clock
	if clk == nil {
		clk = time.Now
	}
	t := &Tracer{
		sample:   sample,
		slow:     opts.SlowThreshold,
		maxSpans: maxSpans,
		clock:    clk,
		store:    NewTraceStore(opts.Capacity),
	}
	if reg := opts.Telemetry; reg != nil {
		t.spansTotal = reg.Counter("infogram_trace_spans_total", "spans finished across all traces")
		t.tracesKept = reg.Counter("infogram_traces_kept_total", "traces retained by tail sampling")
		t.tracesSampled = reg.Counter("infogram_traces_dropped_total", "healthy traces dropped by probabilistic sampling")
		t.spansOverflow = reg.Counter("infogram_trace_spans_overflow_total", "spans dropped because their trace hit the per-trace span bound")
		t.spansLate = reg.Counter("infogram_trace_spans_late_dropped_total", "late spans dropped because their trace was not retained")
	}
	return t
}

// Store exposes the tracer's trace store (nil on a nil tracer).
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

func (t *Tracer) now() time.Time {
	if t == nil {
		return time.Now()
	}
	return t.clock()
}

// StartTrace mints a fresh trace rooted at a new span named name, and
// returns a context carrying both the trace ID and the root span. On a
// nil tracer it returns (ctx, nil).
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.join(ctx, NewTraceID(), 0, name)
}

// JoinTrace roots a new span tree under a caller-propagated trace context:
// the root span's trace is the caller's trace ID and its parent is the
// caller's span. On a nil tracer it returns (ctx, nil).
func (t *Tracer) JoinTrace(ctx context.Context, trace TraceID, parent SpanID, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if trace == "" {
		trace = NewTraceID()
	}
	return t.join(ctx, trace, parent, name)
}

func (t *Tracer) join(ctx context.Context, trace TraceID, parent SpanID, name string) (context.Context, *Span) {
	s := &Span{
		tracer: t,
		trace:  trace,
		id:     NewSpanID(),
		parent: parent,
		name:   name,
		start:  t.now(),
		root:   true,
	}
	s.buf = &traceBuf{trace: trace, root: s.id}
	return ContextWithSpan(WithTrace(ctx, trace), s), s
}

// child mints a non-root span under parent, sharing its trace buffer.
func (t *Tracer) child(parent *Span, name string) *Span {
	return &Span{
		tracer: t,
		buf:    parent.buf,
		trace:  parent.trace,
		id:     NewSpanID(),
		parent: parent.id,
		name:   name,
		start:  t.now(),
	}
}

// RecordSpan records a pre-measured operation (e.g. the GSI handshake,
// timed before any trace existed) as a finished child of parent. Nil
// parent or nil tracer is a no-op.
func (t *Tracer) RecordSpan(parent *Span, name string, start time.Time, d time.Duration, errMsg string) {
	if t == nil || parent == nil {
		return
	}
	s := t.child(parent, name)
	s.start = start
	s.errMsg = errMsg
	s.ended.Store(true)
	t.finish(s, start.Add(d))
}

// finish appends the span to its trace buffer; the root span's finish
// makes the tail-sampling decision and commits (or drops) the tree.
func (t *Tracer) finish(s *Span, end time.Time) {
	t.spansTotal.Inc()
	rec := SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: end.Sub(s.start),
		Err:      s.errMsg,
	}
	if rec.Duration < 0 {
		rec.Duration = 0
	}
	if s.nattrs > 0 {
		rec.Attrs = append([]SpanAttr(nil), s.attrs[:s.nattrs]...)
	}
	b := s.buf
	b.mu.Lock()
	if b.finalized {
		// Late span: the root already ended (async work outliving the
		// request, e.g. the job a SUBMIT spawned). Append to the stored
		// trace when it was kept; count the drop otherwise.
		kept := b.kept
		b.mu.Unlock()
		if kept && t.store.AppendSpan(b.trace, rec) {
			return
		}
		t.spansLate.Inc()
		return
	}
	if rec.Err != "" {
		b.err = true
	}
	if len(b.spans) < t.maxSpans {
		b.spans = append(b.spans, rec)
	} else {
		t.spansOverflow.Inc()
	}
	if !s.root {
		b.mu.Unlock()
		return
	}
	keep := b.err || (t.slow > 0 && rec.Duration >= t.slow) || t.sampleHit()
	b.finalized = true
	b.kept = keep
	spans := b.spans
	b.spans = nil
	if !keep {
		b.mu.Unlock()
		t.tracesSampled.Inc()
		return
	}
	t.tracesKept.Inc()
	if t.publishHook != nil {
		t.publishHook()
	}
	// The trace reaches the store before b.mu is released, so a late span
	// that finds the buffer finalized and kept always finds the trace
	// stored. Lock order: buffer, then store stripe.
	t.store.Put(TraceRecord{
		Trace:    b.trace,
		Root:     b.root,
		Err:      b.err,
		Start:    s.start,
		Duration: rec.Duration,
		Spans:    spans,
	})
	b.mu.Unlock()
}

func (t *Tracer) sampleHit() bool {
	if t.sample >= 1 {
		return true
	}
	if t.sample <= 0 {
		return false
	}
	return rand.Float64() < t.sample
}
