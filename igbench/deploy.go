package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"infogram/internal/bootstrap"
	"infogram/internal/core"
	"infogram/internal/gram"
	"infogram/internal/job"
	"infogram/internal/journal"
	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/scheduler"
	"infogram/internal/telemetry"
	"infogram/internal/wire"
	"infogram/internal/xrsl"
)

// Deployment settings. They are the infogram-server defaults except
// where a comment says why.
const (
	// providerTTL and cacheTTL are long, so provider fetches happen once
	// per deployment and hot answers stay cached for the whole run.
	providerTTL = time.Hour
	cacheTTL    = time.Hour
	// cacheBytes holds the query-hot population (about 1.2 MB of rendered
	// answers) but not the stream of unique query-miss answers, so
	// query-miss evicts during its measured phase.
	cacheBytes = 4 << 20
	// maxInflight switches the admission gate on so its wait is measured.
	// No phase runs more than a few requests at once, so it never sheds.
	maxInflight = 64
	// traceCapacity keeps every trace of a traced run: nothing is evicted
	// before the ledger reads the store.
	traceCapacity = 1 << 24
	// opTimeout bounds one operation; a lifecycle that has not reached
	// DONE by then is a failure, not a hang.
	opTimeout = 30 * time.Second
)

// deployment is one booted InfoGram service plus the benchmark's clients.
type deployment struct {
	w       *world
	fab     *bootstrap.Fabric
	dir     string
	callers int

	tel     *telemetry.Registry // the service's always-on registry
	poolTel *telemetry.Registry
	svc     *core.Service
	queue   *scheduler.Queue
	addr    string
	pool    *core.Pool
	cb      *callbacks
	tracer  *telemetry.Tracer // benchmark-side spans; nil when untraced
	opts    core.Options

	jobSrc [3]string // per jobKind, with this deployment's callback contact

	// verified[k] is a hot key's last fully checked answer; an identical
	// later answer (a byte-cache hit) needs only a byte comparison.
	verified []atomic.Pointer[[]byte]

	mu       sync.Mutex
	contacts map[string]bool // every job contact the service acknowledged
}

// boot builds and warms one deployment through the constructors
// cmd/infogram-server uses, and returns the set-up time: from the start
// of service construction to the end of the fixed-work warm-up.
func boot(w *world, fab *bootstrap.Fabric, dir string, callers int, traced bool, next *atomic.Uint64) (*deployment, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d := &deployment{w: w, fab: fab, dir: dir, callers: callers,
		contacts: make(map[string]bool), verified: make([]atomic.Pointer[[]byte], hotKeys)}
	d.tel = telemetry.NewRegistry()
	reg := provider.NewRegistry(nil)
	for _, p := range w.providers {
		var prov provider.Provider
		switch p.Kind {
		case "static":
			vals := make(provider.Attributes, len(p.Attrs))
			for i, a := range p.Attrs {
				vals[i] = provider.Attr{Name: a.Name, Value: a.Value}
			}
			prov = &provider.StaticProvider{KeywordName: p.Keyword, Values: vals}
		case "file":
			prov = provider.NewFileProvider(p.Keyword, filepath.Join(filepath.Dir(dir), "inputs", p.Keyword))
		default:
			prov = provider.RuntimeProvider{}
		}
		reg.Register(prov, provider.RegisterOptions{TTL: providerTTL})
	}
	jnl, _, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "state"), Fsync: journal.FsyncInterval, Telemetry: d.tel})
	if err != nil {
		return nil, 0, err
	}
	fn := scheduler.NewFunc(scheduler.TrustedMode, scheduler.Budgets{})
	fn.RegisterFunc("noop", func(context.Context, *scheduler.Sandbox, []string, string) (string, error) {
		return "", nil
	})
	d.queue = scheduler.NewQueue(scheduler.QueueConfig{
		Name:            "pbs",
		Slots:           4,
		Policy:          scheduler.FIFO{},
		Executor:        &scheduler.Fork{},
		DepthGauge:      d.tel.Gauge("infogram_queue_depth", "tasks pending in the batch queue"),
		DispatchLatency: d.tel.Histogram("infogram_queue_dispatch_seconds", "enqueue-to-dispatch wait per task"),
	})
	cfg := core.Config{
		ResourceName:  resourceName,
		Credential:    fab.Service,
		Trust:         fab.Trust,
		Gridmap:       fab.Gridmap,
		Registry:      reg,
		Backends:      gram.Backends{Exec: &scheduler.Fork{}, Func: fn, Queue: d.queue},
		Journal:       jnl,
		Telemetry:     d.tel,
		MaxInflight:   maxInflight,
		CacheTTL:      cacheTTL,
		CacheMaxBytes: cacheBytes,
	}
	if traced {
		cfg.TraceOptions = telemetry.TracerOptions{SampleRate: 1, Capacity: traceCapacity}
		d.tracer = telemetry.NewTracer(telemetry.TracerOptions{SampleRate: 1, Capacity: traceCapacity})
	} else {
		cfg.DisableTracing = true
	}
	d.svc = core.NewService(cfg)
	if d.addr, err = d.svc.Listen("127.0.0.1:0"); err != nil {
		d.svc.Close()
		return nil, 0, err
	}
	if d.cb, err = newCallbacks(); err != nil {
		d.svc.Close()
		return nil, 0, err
	}
	for k, src := range map[jobKind]xrsl.JobRequest{
		jobFunc:  {Executable: "noop", JobType: "func"},
		jobExec:  {Executable: "/bin/true"},
		jobQueue: {Executable: "/bin/true", JobType: "queue"},
	} {
		src.CallbackContact = d.cb.l.Contact()
		d.jobSrc[k] = src.Encode()
	}
	d.poolTel = telemetry.NewRegistry()
	d.opts = core.Options{RequestTimeout: opTimeout}
	popts := d.opts
	popts.Telemetry = d.poolTel
	d.pool = core.NewPool(d.addr, fab.User, fab.Trust, core.PoolOptions{Size: callers, Client: popts})
	if err := d.warmup(next); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// warmup is the fixed work that ends set-up: it opens every pooled
// connection (one GSI handshake each), runs the workload's warm-up, then
// one operation of every kind, so every layer has run at least once
// before measurement and the traced ledger has a sample for each.
func (d *deployment) warmup(next *atomic.Uint64) error {
	leases := make([]*core.Client, d.callers)
	for i := range leases {
		ctx, root := d.tracer.StartTrace(context.Background(), "op:dial")
		cctx, sp := telemetry.StartSpan(ctx, "client.dial")
		cl, err := d.pool.Checkout(cctx)
		sp.End()
		root.End()
		if err != nil {
			return fmt.Errorf("warm-up dial: %w", err)
		}
		leases[i] = cl
	}
	for _, cl := range leases {
		d.pool.Checkin(cl)
	}
	// parallel runs n operations on d.callers closed-loop callers, as the
	// cap phase does, so set-up is bound by throughput rather than by one
	// caller's wake-ups.
	parallel := func(n int, at func(i int) op) error {
		var idx atomic.Int64
		errc := make(chan error, d.callers)
		for g := 0; g < d.callers; g++ {
			go func() {
				var c caller
				for i := int(idx.Add(1) - 1); i < n; i = int(idx.Add(1) - 1) {
					if _, err := d.runOp(context.Background(), at(i), &c, "warmup"); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
		}
		var first error
		for g := 0; g < d.callers; g++ {
			first = firstErr(first, <-errc)
		}
		return first
	}
	hot := func(i int) op { return op{Kind: opHot, Key: i} }
	generated := func(n int) func(int) op {
		base := next.Add(uint64(n)) - uint64(n)
		return func(i int) op {
			o := d.w.opAt(base + uint64(i))
			if o.Kind == opJob {
				// A forked job's cost varies most from boot to boot; set-up
				// runs one of each backend below.
				o.Job = jobFunc
			}
			return o
		}
	}
	// Warm-up work: the hot population once where the workload queries
	// it, then generated operations. Each workload's warm-up takes a
	// similar time, so set-up noise is a similar share of setup_s.
	var err error
	switch d.w.workload {
	case wlQueryHot:
		err = parallel(hotKeys, hot)
	case wlQueryMiss, wlJobs:
		err = parallel(1024, generated(1024))
	default:
		if err = parallel(hotKeys, hot); err == nil {
			err = parallel(512, generated(512))
		}
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var c caller
	run := func(o op) error {
		_, err := d.runOp(context.Background(), o, &c, "warmup")
		return err
	}
	miss := d.w.missOp(next.Add(1)-1, 0)
	for _, o := range []op{miss, miss, {Kind: opJob, Job: jobFunc}, {Kind: opJob, Job: jobExec},
		{Kind: opJob, Job: jobQueue, Status: true}, {Kind: opOneShot}} {
		if err := run(o); err != nil {
			return fmt.Errorf("warm-up %s: %w", o.Kind, err)
		}
	}
	return nil
}

// caller is one closed-loop client's state.
type caller struct {
	lastContact string
	// checkCPU is the CPU time spent in the benchmark's own answer checks;
	// cpu_us_per_op leaves it out, since it is neither InfoGram's nor
	// core.Client's work.
	checkCPU time.Duration
}

// verify runs one of the benchmark's answer checks and adds the CPU time
// it takes to c.checkCPU. The goroutine is pinned to its thread, so the
// thread's CPU clock sees only the check, plus the clock reads, whose cost
// clockCost adds back.
func (c *caller) verify(check func() error) error {
	runtime.LockOSThread()
	t := threadCPU()
	err := check()
	c.checkCPU += threadCPU() - t + clockCost
	runtime.UnlockOSThread()
	return err
}

// runOp performs one operation and checks its outcome. The returned
// latency runs from the start of the operation to the decoded answer (or
// the DONE callback) and excludes the answer check. phase is recorded on
// the operation's trace for the ledger.
func (d *deployment) runOp(ctx context.Context, o op, c *caller, phase string) (time.Duration, error) {
	ctx, root := d.tracer.StartTrace(ctx, "op:"+o.Kind.String())
	root.SetAttr("phase", phase)
	defer root.End()
	start := time.Now()
	switch o.Kind {
	case opHot, opMiss:
		kws, f, src := o.Keywords, o.Filter, ""
		if o.Kind == opHot {
			q := &d.w.hot[o.Key]
			kws, f, src = q.Keywords, 0, q.Src
		} else {
			src = d.w.querySrc(kws, f)
		}
		cl, err := d.checkout(ctx)
		if err != nil {
			return 0, err
		}
		resp, err := d.roundtrip(ctx, cl, wire.Frame{Verb: gram.VerbSubmit, Payload: []byte(src)}, true)
		if err != nil {
			return 0, err
		}
		entries, err := decodeInfo(ctx, resp)
		lat := time.Since(start)
		if err != nil {
			return lat, err
		}
		root.SetAttr("bytes", fmt.Sprint(len(resp.Payload)))
		if o.Kind == opHot {
			return lat, c.verify(func() error { return d.checkHot(o.Key, resp.Payload, entries) })
		}
		return lat, c.verify(func() error {
			if len(entries) == 0 {
				return errors.New("query-miss answer is empty")
			}
			return d.w.checkAnswer(kws, f, entries)
		})
	case opOneShot:
		q := &d.w.hot[o.Key]
		_, sp := telemetry.StartSpan(ctx, "client.dial")
		cl, err := core.DialWithOptions(d.addr, d.fab.User, d.fab.Trust, d.opts)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("dial: %w", err)
		}
		rctx, rsp := telemetry.StartSpan(ctx, "client.roundtrip")
		resp, err := cl.ForwardContext(rctx, wire.Frame{Verb: gram.VerbSubmit, Payload: []byte(q.Src)}, true)
		rsp.End()
		cl.Close()
		if err != nil {
			return 0, err
		}
		entries, err := decodeInfo(ctx, resp)
		lat := time.Since(start)
		if err != nil {
			return lat, err
		}
		return lat, c.verify(func() error { return d.checkHot(o.Key, resp.Payload, entries) })
	default:
		return d.runJob(ctx, o, c, start)
	}
}

// runJob is one SUBMIT → DONE lifecycle; DONE arrives through the GRAM
// status callback, not through STATUS polling.
func (d *deployment) runJob(ctx context.Context, o op, c *caller, start time.Time) (time.Duration, error) {
	cl, err := d.checkout(ctx)
	if err != nil {
		return 0, err
	}
	resp, err := d.roundtrip(ctx, cl, wire.Frame{Verb: gram.VerbSubmit, Payload: []byte(d.jobSrc[o.Job])}, false)
	if err != nil {
		return 0, err
	}
	_, sp := telemetry.StartSpan(ctx, "client.decode")
	contact, err := decodeContact(resp)
	sp.End()
	if err != nil {
		return 0, err
	}
	c.verify(func() error {
		d.mu.Lock()
		d.contacts[contact] = true
		d.mu.Unlock()
		return nil
	})
	_, sp = telemetry.StartSpan(ctx, "gram.done_wait")
	ev, err := d.cb.wait(contact, opTimeout)
	sp.End()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if ev.State != job.Done || ev.ExitCode != 0 {
		return lat, fmt.Errorf("job %s ended %s exit %d: %s", contact, ev.State, ev.ExitCode, ev.Error)
	}
	if o.Status && c.lastContact != "" {
		if err := d.pollStatus(ctx, c, c.lastContact); err != nil {
			return lat, err
		}
	}
	c.lastContact = contact
	return lat, nil
}

// pollStatus reads a finished job back through STATUS.
func (d *deployment) pollStatus(ctx context.Context, c *caller, contact string) error {
	cl, err := d.checkout(ctx)
	if err != nil {
		return err
	}
	resp, err := d.roundtrip(ctx, cl, wire.Frame{Verb: gram.VerbStatus, Payload: []byte(contact)}, true)
	if err != nil {
		return err
	}
	return c.verify(func() error {
		var st gram.StatusReply
		if resp.Verb != gram.VerbStatusOK || json.Unmarshal(resp.Payload, &st) != nil || st.State != job.Done || st.ExitCode != 0 {
			return fmt.Errorf("STATUS %s: %s %s", contact, resp.Verb, resp.Payload)
		}
		return nil
	})
}

func (d *deployment) checkout(ctx context.Context) (*core.Client, error) {
	cctx, sp := telemetry.StartSpan(ctx, "pool.checkout")
	cl, err := d.pool.Checkout(cctx)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("checkout: %w", err)
	}
	return cl, nil
}

// roundtrip sends one frame on a leased connection and returns the lease.
// Transport failures discard the connection; a REJECT or ERROR answer is
// a failed operation on a healthy connection.
func (d *deployment) roundtrip(ctx context.Context, cl *core.Client, req wire.Frame, idempotent bool) (wire.Frame, error) {
	rctx, sp := telemetry.StartSpan(ctx, "client.roundtrip")
	resp, err := cl.ForwardContext(rctx, req, idempotent)
	sp.End()
	if err != nil {
		d.pool.Discard(cl)
		return resp, err
	}
	d.pool.Checkin(cl)
	switch resp.Verb {
	case wire.VerbReject:
		return resp, fmt.Errorf("rejected: %s", resp.Payload)
	case gram.VerbError:
		return resp, fmt.Errorf("error: %s", resp.Payload)
	}
	return resp, nil
}

// decodeInfo is the client-side decode of an LDIF answer.
func decodeInfo(ctx context.Context, resp wire.Frame) ([]ldif.Entry, error) {
	if resp.Verb != core.VerbResultLDIF {
		return nil, fmt.Errorf("answer verb %s", resp.Verb)
	}
	_, sp := telemetry.StartSpan(ctx, "client.decode")
	entries, err := ldif.Unmarshal(string(resp.Payload))
	sp.End()
	return entries, err
}

func decodeContact(resp wire.Frame) (string, error) {
	if resp.Verb != gram.VerbSubmitted || len(resp.Payload) == 0 {
		return "", fmt.Errorf("submit answered %s %s", resp.Verb, resp.Payload)
	}
	return string(resp.Payload), nil
}

// checkHot verifies a hot-key answer. A byte-identical repeat of an
// answer already checked in full is accepted by comparison.
func (d *deployment) checkHot(k int, payload []byte, entries []ldif.Entry) error {
	if p := d.verified[k].Load(); p != nil && bytes.Equal(*p, payload) {
		return nil
	}
	q := &d.w.hot[k]
	if err := d.w.checkAnswer(q.Keywords, 0, entries); err != nil {
		return err
	}
	d.verified[k].Store(&payload)
	return nil
}

// close shuts the deployment down and checks the journal: reopened with
// journal.Open, it must replay exactly the acknowledged jobs, each DONE.
func (d *deployment) close() error {
	d.pool.Close()
	err := d.svc.Close()
	d.cb.close()
	d.queue.Close()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	jnl, rec, err := journal.Open(journal.Options{Dir: filepath.Join(d.dir, "state"), Fsync: journal.FsyncNever})
	if err != nil {
		return fmt.Errorf("journal reopen: %w", err)
	}
	defer jnl.Close()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(rec.Jobs) != len(d.contacts) {
		return fmt.Errorf("journal replayed %d jobs, %d were acknowledged", len(rec.Jobs), len(d.contacts))
	}
	for _, js := range rec.Jobs {
		if !d.contacts[js.Contact] {
			return fmt.Errorf("journal replayed unknown job %s", js.Contact)
		}
		if js.State != job.Done || js.ExitCode != 0 {
			return fmt.Errorf("journal replayed %s as %s exit %d", js.Contact, js.State, js.ExitCode)
		}
	}
	return nil
}

// callbacks receives GRAM status callbacks and hands each job's terminal
// event to the caller waiting for it. An event may arrive before the
// caller has read the SUBMIT acknowledgement; it is then held until asked
// for.
type callbacks struct {
	l       *gram.CallbackListener
	mu      sync.Mutex
	waiting map[string]chan job.Event
	early   map[string]job.Event
	stop    chan struct{}
	done    chan struct{}
}

func newCallbacks() (*callbacks, error) {
	l, err := gram.NewCallbackListener()
	if err != nil {
		return nil, err
	}
	c := &callbacks{l: l, waiting: make(map[string]chan job.Event), early: make(map[string]job.Event),
		stop: make(chan struct{}), done: make(chan struct{})}
	go c.run()
	return c, nil
}

func (c *callbacks) run() {
	defer close(c.done)
	for {
		select {
		case ev := <-c.l.Events():
			if !ev.State.Terminal() {
				continue
			}
			c.mu.Lock()
			if ch, ok := c.waiting[ev.Contact]; ok {
				delete(c.waiting, ev.Contact)
				ch <- ev
			} else {
				c.early[ev.Contact] = ev
			}
			c.mu.Unlock()
		case <-c.stop:
			return
		}
	}
}

func (c *callbacks) wait(contact string, timeout time.Duration) (job.Event, error) {
	c.mu.Lock()
	if ev, ok := c.early[contact]; ok {
		delete(c.early, contact)
		c.mu.Unlock()
		return ev, nil
	}
	ch := make(chan job.Event, 1)
	c.waiting[contact] = ch
	c.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case ev := <-ch:
		return ev, nil
	case <-t.C:
		c.mu.Lock()
		delete(c.waiting, contact)
		c.mu.Unlock()
		return job.Event{}, fmt.Errorf("job %s: no terminal callback within %s", contact, timeout)
	}
}

func (c *callbacks) close() {
	close(c.stop)
	<-c.done
	c.l.Close()
}
