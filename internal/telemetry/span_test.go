package telemetry

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanIDString(t *testing.T) {
	if got := SpanID(0).String(); got != "" {
		t.Errorf("zero ID = %q, want empty", got)
	}
	if got := SpanID(0xab).String(); got != "00000000000000ab" {
		t.Errorf("SpanID(0xab) = %q", got)
	}
	id := NewSpanID()
	if id == 0 {
		t.Fatal("NewSpanID minted zero")
	}
	back, err := ParseSpanID(id.String())
	if err != nil || back != id {
		t.Errorf("roundtrip %v -> %q -> %v, %v", id, id.String(), back, err)
	}
	if v, err := ParseSpanID(""); err != nil || v != 0 {
		t.Errorf("ParseSpanID(\"\") = %v, %v", v, err)
	}
}

func TestStartSpanDisarmed(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := StartSpan(ctx, "noop")
		sp.SetAttr("k", "v")
		sp.Fail("boom")
		sp.End()
		if c != ctx {
			t.Fatal("disarmed StartSpan changed the context")
		}
	})
	if allocs != 0 {
		t.Errorf("disarmed StartSpan allocates %v times per run, want 0", allocs)
	}
	var nilSpan *Span
	if nilSpan.Trace() != "" || nilSpan.ID() != 0 || nilSpan.Parent() != 0 {
		t.Error("nil span accessors not zero")
	}
}

func TestSpanTreeRecorded(t *testing.T) {
	tr := NewTracer(TracerOptions{Telemetry: NewRegistry()})
	ctx, root := tr.StartTrace(context.Background(), "request:SUBMIT")
	root.SetAttr("peer", "/O=Grid/CN=alice")

	ctx2, child := StartSpan(ctx, "cache.lookup")
	child.SetAttr("outcome", "miss")
	_, grand := StartSpan(ctx2, "provider.collect")
	grand.End()
	child.End()
	root.End()

	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("trace not retained")
	}
	if rec.Root != root.ID() {
		t.Errorf("root = %v, want %v", rec.Root, root.ID())
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(rec.Spans))
	}
	byID := map[SpanID]SpanRecord{}
	for _, s := range rec.Spans {
		byID[s.ID] = s
	}
	if byID[child.ID()].Parent != root.ID() {
		t.Errorf("child parent = %v, want root %v", byID[child.ID()].Parent, root.ID())
	}
	if byID[grand.ID()].Parent != child.ID() {
		t.Errorf("grandchild parent = %v, want child %v", byID[grand.ID()].Parent, child.ID())
	}
	if attrs := byID[root.ID()].Attrs; len(attrs) != 1 || attrs[0].Key != "peer" {
		t.Errorf("root attrs = %v", attrs)
	}
}

func TestJoinTraceUsesCallerIDs(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	callerTrace := NewTraceID()
	callerSpan := NewSpanID()
	ctx, root := tr.JoinTrace(context.Background(), callerTrace, callerSpan, "request:SUBMIT")
	if root.Trace() != callerTrace || root.Parent() != callerSpan {
		t.Fatalf("joined root = (%v, parent %v)", root.Trace(), root.Parent())
	}
	if TraceFrom(ctx) != callerTrace {
		t.Error("context does not carry the caller's trace")
	}
	root.End()
	if rec, ok := tr.Store().Get(callerTrace); !ok || rec.Spans[0].Parent != callerSpan {
		t.Errorf("stored trace = %+v, %v", rec, ok)
	}
}

func TestTailSamplingKeepsErrored(t *testing.T) {
	// Negative rate: only errored or slow traces survive.
	tr := NewTracer(TracerOptions{SampleRate: -1, Telemetry: NewRegistry()})

	_, healthy := tr.StartTrace(context.Background(), "ok")
	healthy.End()
	if _, ok := tr.Store().Get(healthy.Trace()); ok {
		t.Error("healthy trace retained under sample=-1")
	}

	ctx, root := tr.StartTrace(context.Background(), "bad")
	_, child := StartSpan(ctx, "journal.append")
	child.Fail("disk full")
	child.End()
	root.End()
	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("errored trace dropped")
	}
	if !rec.Err {
		t.Error("trace error bit not set")
	}
}

func TestTailSamplingKeepsSlow(t *testing.T) {
	now := time.Unix(1000, 0)
	clk := func() time.Time { return now }
	tr := NewTracer(TracerOptions{SampleRate: -1, SlowThreshold: 50 * time.Millisecond, Clock: clk})

	_, fast := tr.StartTrace(context.Background(), "fast")
	now = now.Add(10 * time.Millisecond)
	fast.End()
	if _, ok := tr.Store().Get(fast.Trace()); ok {
		t.Error("fast healthy trace retained")
	}

	_, slow := tr.StartTrace(context.Background(), "slow")
	now = now.Add(80 * time.Millisecond)
	slow.End()
	if rec, ok := tr.Store().Get(slow.Trace()); !ok || rec.Duration < 50*time.Millisecond {
		t.Errorf("slow trace = %+v, %v", rec, ok)
	}
}

func TestLateSpansAppendToKeptTrace(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	ctx, root := tr.StartTrace(context.Background(), "request:SUBMIT")
	_, spawn := StartSpan(ctx, "gram.spawn")
	spawn.End()
	root.End() // SUBMIT acked; the job keeps running

	// The async job's span finishes after the root finalized.
	jobCtx := ContextWithSpan(context.Background(), spawn)
	_, sched := StartSpan(jobCtx, "scheduler.run")
	sched.End()

	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("trace dropped")
	}
	names := map[string]SpanID{}
	for _, s := range rec.Spans {
		names[s.Name] = s.Parent
	}
	if parent, ok := names["scheduler.run"]; !ok || parent != spawn.ID() {
		t.Errorf("late span parent = %v (present %t), want %v", parent, ok, spawn.ID())
	}
}

// TestLateSpanDuringPublishAppended ends a job's span after its root
// finalized but before the kept trace reached the store: the span must
// join the stored trace, not be counted as a late drop.
func TestLateSpanDuringPublishAppended(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{Telemetry: reg})
	ctx, root := tr.StartTrace(context.Background(), "request:SUBMIT")
	_, spawn := StartSpan(ctx, "gram.spawn")
	spawn.End()
	_, sched := StartSpan(ContextWithSpan(context.Background(), spawn), "scheduler.run")

	ended := make(chan struct{})
	tr.publishHook = func() {
		go func() {
			sched.End()
			close(ended)
		}()
		// Give the span time to end inside the window; with the buffer
		// locked until the trace is stored it cannot, and ends after.
		select {
		case <-ended:
		case <-time.After(50 * time.Millisecond):
		}
	}
	root.End()
	<-ended

	if got := counterValue(t, reg, "infogram_trace_spans_late_dropped_total"); got != 0 {
		t.Errorf("late-dropped counter = %d, want 0", got)
	}
	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("trace dropped")
	}
	found := false
	for _, s := range rec.Spans {
		found = found || s.ID == sched.ID()
	}
	if !found || len(rec.Spans) != 3 {
		t.Errorf("stored spans = %+v, want root, gram.spawn and scheduler.run", rec.Spans)
	}
}

func TestLateSpanOnDroppedTraceCounted(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{SampleRate: -1, Telemetry: reg})
	ctx, root := tr.StartTrace(context.Background(), "healthy")
	_, spawn := StartSpan(ctx, "gram.spawn")
	spawn.End()
	root.End() // dropped: healthy under sample=-1

	_, late := StartSpan(ContextWithSpan(context.Background(), spawn), "scheduler.run")
	late.End()
	if got := counterValue(t, reg, "infogram_trace_spans_late_dropped_total"); got != 1 {
		t.Errorf("late-dropped counter = %d, want 1", got)
	}
}

func TestSpanOverflowBound(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerOptions{MaxSpans: 4, Telemetry: reg})
	ctx, root := tr.StartTrace(context.Background(), "burst")
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("op%d", i))
		sp.End()
	}
	root.End()
	rec, ok := tr.Store().Get(root.Trace())
	if !ok {
		t.Fatal("trace dropped")
	}
	if len(rec.Spans) != 4 {
		t.Errorf("stored spans = %d, want the MaxSpans bound of 4", len(rec.Spans))
	}
	if got := counterValue(t, reg, "infogram_trace_spans_overflow_total"); got != 7 {
		// 10 children + 1 root = 11 finishes, 4 stored.
		t.Errorf("overflow counter = %d, want 7", got)
	}
}

func TestStoreEvictionFIFO(t *testing.T) {
	store := NewTraceStore(storeStripes) // one trace per stripe
	// Random IDs don't guarantee every stripe is hit (a stripe stays empty
	// ~11% of the time over 32 draws), so draw until each stripe has seen
	// exactly four inserts.
	perStripe := make(map[*storeStripe]int)
	var traces []TraceID
	for len(traces) < 4*storeStripes {
		id := NewTraceID()
		if st := store.stripe(id); perStripe[st] < 4 {
			perStripe[st]++
			traces = append(traces, id)
			store.Put(TraceRecord{Trace: id, Start: time.Unix(int64(len(traces)), 0)})
		}
	}
	if n := store.Len(); n != storeStripes {
		t.Errorf("Len = %d, want %d", n, storeStripes)
	}
	if ev := store.Evicted(); ev != int64(3*storeStripes) {
		t.Errorf("Evicted = %d, want %d", ev, 3*storeStripes)
	}
	// The newest trace is always still present (its stripe evicted its
	// own oldest, never the newest).
	if _, ok := store.Get(traces[len(traces)-1]); !ok {
		t.Error("newest trace evicted")
	}
}

func TestStoreMergesSameTrace(t *testing.T) {
	store := NewTraceStore(0)
	trace := NewTraceID()
	t0 := time.Unix(100, 0)
	store.Put(TraceRecord{Trace: trace, Start: t0, Duration: time.Second,
		Spans: []SpanRecord{{ID: 1, Name: "a"}}})
	store.Put(TraceRecord{Trace: trace, Start: t0.Add(2 * time.Second), Duration: time.Second,
		Err: true, Spans: []SpanRecord{{ID: 2, Name: "b"}}})
	rec, ok := store.Get(trace)
	if !ok {
		t.Fatal("trace missing")
	}
	if len(rec.Spans) != 2 || !rec.Err {
		t.Errorf("merged = %+v", rec)
	}
	if rec.Duration != 3*time.Second {
		t.Errorf("window = %v, want 3s (extended over both requests)", rec.Duration)
	}
}

func TestTracerConcurrentTraces(t *testing.T) {
	tr := NewTracer(TracerOptions{Capacity: 1024})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartTrace(context.Background(), "request")
				_, child := StartSpan(ctx, "work")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if n := tr.Store().Len(); n != 400 {
		t.Errorf("stored traces = %d, want 400", n)
	}
}

func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency")
	trace := NewTraceID()
	h.ObserveTrace(3*time.Millisecond, trace)
	h.Observe(4 * time.Millisecond) // no trace: must not clobber exemplar shape
	found := false
	for _, p := range reg.Snapshot() {
		if p.Name != "lat" {
			continue
		}
		for _, ex := range p.Hist.Exemplars {
			if ex != nil && ex.Trace == trace {
				found = true
				if ex.Value != 3*time.Millisecond {
					t.Errorf("exemplar value = %v", ex.Value)
				}
			}
		}
	}
	if !found {
		t.Error("exemplar not captured in snapshot")
	}
}

func TestDoubleEndIsNoOp(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	_, root := tr.StartTrace(context.Background(), "once")
	root.End()
	root.End()
	rec, ok := tr.Store().Get(root.Trace())
	if !ok || len(rec.Spans) != 1 {
		t.Errorf("double End stored %d spans (ok=%t), want 1", len(rec.Spans), ok)
	}
}

// counterValue digs a counter out of a registry snapshot.
func counterValue(t *testing.T, reg *Registry, name string) int64 {
	t.Helper()
	for _, p := range reg.Snapshot() {
		if p.Name == name && p.Kind == KindCounter {
			return p.Value
		}
	}
	t.Fatalf("counter %q not found", name)
	return 0
}
