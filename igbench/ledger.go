package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"infogram/internal/bytecache"
	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/rsl"
	"infogram/internal/telemetry"
	"infogram/internal/xrsl"
)

// metricDef names one reported metric. For a per-layer metric, moves
// lists the end-to-end metrics it should move, works the workloads where
// its layer does the work, and flat the workloads where it should stay
// flat.
type metricDef struct {
	Name, Unit, Better string
	Moves              []string
	Works, Flat        string
}

// endToEnd are the metrics a user of InfoGram sees; every workload
// reports all of them from the untraced run. rss_peak_mb is the peak
// resident set once set-up's fixed work is done: the job table keeps every
// finished job, so a peak taken over the fixed-time phases would grow with
// throughput and punish a faster service.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "p50_us", Unit: "us", Better: "lower"},
	{Name: "p99_us", Unit: "us", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower"},
}

// perLayer is the layer ledger: counts, ratios and waits from registry
// deltas over the untraced cap phase; *_us times from the traced run's
// spans (self time where a span has children), or from direct calls for
// layers without a span.
var perLayer = []metricDef{
	{"pool.checkout_wait_us", "us", "lower", []string{"p99_us"}, "cap of all", "lat"},
	{"client.roundtrip_us", "us", "lower", []string{"p50_us", "cpu_us_per_op"}, "all", "-"},
	{"client.decode_us", "us", "lower", []string{"p50_us", "cpu_us_per_op"}, "query-hot", "jobs"},
	{"wire.bytes_per_op", "bytes", "lower", []string{"cpu_us_per_op"}, "query-hot, query-miss", "-"},
	{"gsi.handshake_us", "us", "lower", []string{"ops_per_s", "p50_us"}, "mixed", "-"},
	{"gsi.handshakes_per_kop", "count", "lower", []string{"ops_per_s", "p50_us"}, "mixed", "0 in the others"},
	{"gsi.auth_us", "us", "lower", []string{"ops_per_s", "p50_us"}, "mixed", "-"},
	{"core.request_us", "us", "lower", []string{"p50_us", "p99_us"}, "all", "-"},
	{"core.admission_wait_us", "us", "lower", []string{"p50_us", "p99_us"}, "all", "-"},
	{"core.unattributed_us", "us", "lower", []string{"p50_us", "p99_us"}, "all", "-"},
	{"xrsl.parse_us", "us", "lower", []string{"cpu_us_per_op"}, "query-miss, jobs", "-"},
	{"bytecache.hit_ratio", "ratio", "higher", []string{"p50_us", "ops_per_s"}, "query-hot", "jobs"},
	{"bytecache.lookup_us", "us", "lower", []string{"p50_us"}, "query-hot", "jobs"},
	{"bytecache.sets_per_op", "count", "lower", []string{"ops_per_s"}, "query-miss", "jobs"},
	{"bytecache.evictions_per_kop", "count", "lower", []string{"ops_per_s"}, "query-miss", "jobs"},
	{"bytecache.resident_mb", "MiB", "lower", []string{"rss_peak_mb"}, "query-hot, query-miss", "jobs"},
	{"cache.hit_ratio", "ratio", "higher", []string{"ops_per_s"}, "query-miss", "query-hot"},
	{"cache.lookup_us", "us", "lower", []string{"ops_per_s"}, "query-miss", "query-hot"},
	{"provider.collect_us", "us", "lower", []string{"p50_us", "ops_per_s"}, "query-miss", "query-hot, jobs"},
	{"provider.fanout_us", "us", "lower", []string{"p50_us", "ops_per_s"}, "query-miss", "query-hot, jobs"},
	{"provider.fetches_per_kop", "count", "lower", []string{"p50_us", "ops_per_s"}, "query-miss", "query-hot, jobs"},
	{"ldif.render_us", "us", "lower", []string{"cpu_us_per_op"}, "query-miss", "query-hot"},
	{"ldif.render_bytes_per_op", "bytes", "lower", []string{"cpu_us_per_op"}, "query-miss", "query-hot"},
	{"gram.submit_ack_us", "us", "lower", []string{"p50_us", "ops_per_s"}, "jobs", "query-*"},
	{"gram.done_notify_us", "us", "lower", []string{"p50_us", "ops_per_s"}, "jobs", "query-*"},
	{"gram.spawn_us", "us", "lower", []string{"p50_us", "ops_per_s"}, "jobs", "query-*"},
	{"journal.appends_per_job", "count", "lower", []string{"p99_us", "ops_per_s"}, "jobs", "0 appends in query-*"},
	{"journal.append_us", "us", "lower", []string{"p99_us", "ops_per_s"}, "jobs", "query-*"},
	{"journal.fsync_us", "us", "lower", []string{"p99_us", "ops_per_s"}, "jobs", "query-*"},
	{"journal.fsyncs_per_kop", "count", "lower", []string{"p99_us", "ops_per_s"}, "jobs", "query-*"},
	{"journal.bytes_per_job", "bytes", "lower", []string{"p99_us", "ops_per_s"}, "jobs", "query-*"},
	{"scheduler.dispatch_us", "us", "lower", []string{"p50_us"}, "jobs", "query-*"},
	{"scheduler.run_us", "us", "lower", []string{"p50_us"}, "jobs", "query-*"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", []string{"cpu_us_per_op", "p99_us"}, "query-hot most, all", "-"},
	{"runtime.gc_cycles_per_kop", "count", "lower", []string{"cpu_us_per_op", "p99_us"}, "query-hot most, all", "-"},
	{"runtime.gc_pause_us_per_op", "us", "lower", []string{"cpu_us_per_op", "p99_us"}, "query-hot most, all", "-"},
	{"telemetry.trace_overhead_ratio", "ratio", "lower", nil, "traced vs untraced cpu_us_per_op, every workload", "-"},
}

// counts fills the registry- and runtime-sourced per-layer metrics from
// the untraced run's cap windows.
func counts(m map[string]float64, cp windows) {
	ops := cp.sum(func(r *phaseResult) float64 { return float64(r.ok) })
	perOp := func(v float64) float64 { return ratio(v, ops) }
	perKop := func(v float64) float64 { return ratio(1000*v, ops) }
	m["pool.checkout_wait_us"] = ratio(cp.poolDelta("infogram_pool_checkout_wait_seconds.sum_us"), cp.poolDelta("infogram_pool_checkout_wait_seconds.count"))
	m["wire.bytes_per_op"] = perOp(cp.delta("infogram_wire_bytes_read_total") + cp.delta("infogram_wire_bytes_written_total"))
	m["gsi.handshakes_per_kop"] = perKop(cp.delta("infogram_auth_total"))
	m["core.admission_wait_us"] = ratio(cp.delta("infogram_admission_wait_seconds.sum_us"), cp.delta("infogram_admission_wait_seconds.count"))
	hits, misses := cp.delta("infogram_bytecache_hits_total"), cp.delta("infogram_bytecache_misses_total")
	m["bytecache.hit_ratio"] = ratio(hits, hits+misses)
	m["bytecache.sets_per_op"] = perOp(cp.delta("infogram_bytecache_sets_total"))
	m["bytecache.evictions_per_kop"] = perKop(cp.delta("infogram_bytecache_evictions_total"))
	m["bytecache.resident_mb"] = cp.last().after.svc["infogram_bytecache_resident_bytes"] / (1 << 20)
	phits, pmisses := cp.delta("infogram_cache_hits_total"), cp.delta("infogram_cache_misses_total")
	m["cache.hit_ratio"] = ratio(phits, phits+pmisses)
	m["provider.fetches_per_kop"] = perKop(pmisses)
	jobs := cp.sum(func(r *phaseResult) float64 { return float64(r.jobs) })
	m["journal.appends_per_job"] = ratio(cp.delta("infogram_journal_appends_total"), jobs)
	m["journal.bytes_per_job"] = ratio(cp.sum(func(r *phaseResult) float64 { return float64(r.after.journalB - r.before.journalB) }), jobs)
	m["journal.fsyncs_per_kop"] = perKop(cp.delta("infogram_journal_fsync_seconds.count"))
	// fsyncs are group commits off the request path; their mean over the
	// deployment's life keeps the figure defined where cap appends nothing.
	end := cp.last().after.svc
	m["journal.fsync_us"] = ratio(end["infogram_journal_fsync_seconds.sum_us"], end["infogram_journal_fsync_seconds.count"])
	m["runtime.alloc_bytes_per_op"] = perOp(cp.sum(func(r *phaseResult) float64 { return float64(r.after.mem.TotalAlloc - r.before.mem.TotalAlloc) }))
	m["runtime.gc_cycles_per_kop"] = perKop(cp.sum(func(r *phaseResult) float64 { return float64(r.after.mem.NumGC - r.before.mem.NumGC) }))
	m["runtime.gc_pause_us_per_op"] = perOp(cp.sum(func(r *phaseResult) float64 { return float64(r.after.mem.PauseTotalNs-r.before.mem.PauseTotalNs) / 1e3 }))
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// layerOf maps a span name onto the ledger bucket its self time feeds.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "request:"), name == "part":
		return "core.request_us"
	case name == "gsi.handshake":
		return "gsi.auth_us"
	case name == "info.collect":
		return "provider.fanout_us"
	case name == "provider.collect":
		return "provider.collect_us"
	case name == "cache.lookup":
		return "cache.lookup_us"
	case name == "gram.spawn":
		return "gram.spawn_us"
	case name == "journal.append":
		return "journal.append_us"
	case name == "scheduler.run":
		return "scheduler.run_us"
	case name == "scheduler.dispatch":
		return "scheduler.dispatch_us"
	}
	return name
}

// selfTimed are the ledger buckets reported as mean self time per span.
var selfTimed = []string{"core.request_us", "provider.fanout_us", "provider.collect_us", "cache.lookup_us",
	"gram.spawn_us", "journal.append_us", "scheduler.run_us", "scheduler.dispatch_us"}

// node is one span of an operation's joined trace.
type node struct {
	rec   telemetry.SpanRecord
	depth int
	share time.Duration // wall time attributed to this span
}

// acc accumulates a per-event mean separately for measured-phase and
// set-up operations; the phase figure is reported when it has samples.
type acc struct{ phaseSum, phaseN, setupSum, setupN float64 }

func (a *acc) add(phase bool, v float64) {
	if phase {
		a.phaseSum += v
		a.phaseN++
	} else {
		a.setupSum += v
		a.setupN++
	}
}

func (a *acc) mean() float64 {
	if a.phaseN > 0 {
		return a.phaseSum / a.phaseN
	}
	return ratio(a.setupSum, a.setupN)
}

// traceLedger joins every benchmark operation trace with the service's
// spans for the same trace ID and splits each operation's wall time over
// its spans: every instant goes to the deepest span covering it, shared
// equally among parallel spans at that depth (the provider fan-out), so a
// span's share is its self time and the shares of an operation add up to
// its duration. What remains of a round trip after the service's spans is
// core.unattributed_us: wire, mux and scheduling.
type traceLedger struct {
	accs        map[string]*acc
	ops         int // operations joined
	unjoined    int // operations whose service spans were missing
	orphans     int // spans left without their parent, dropped
	misnested   int // service requests not inside their client round trip
	sumErr      time.Duration
	renderBytes float64 // answer bytes of phase operations that rendered
	phaseOps    float64
}

func analyze(bench, svc *telemetry.TraceStore) *traceLedger {
	l := &traceLedger{accs: make(map[string]*acc)}
	get := func(k string) *acc {
		a, ok := l.accs[k]
		if !ok {
			a = &acc{}
			l.accs[k] = a
		}
		return a
	}
	for _, op := range bench.Snapshot() {
		var root telemetry.SpanRecord
		for _, s := range op.Spans {
			if s.ID == op.Root {
				root = s
			}
		}
		phaseAttr := attrOf(root, "phase")
		phase := phaseAttr == "lat" || phaseAttr == "cap"
		nodes := make([]*node, 0, len(op.Spans)+8)
		for _, s := range op.Spans {
			nodes = append(nodes, &node{rec: s})
		}
		svcRec, joined := svc.Get(op.Trace)
		for _, s := range svcRec.Spans {
			nodes = append(nodes, &node{rec: s})
		}
		all := len(nodes)
		nodes = setDepths(nodes, op.Root)
		l.orphans += all - len(nodes)
		hasRequest, rendered := false, false
		for _, n := range nodes {
			switch {
			case strings.HasPrefix(n.rec.Name, "request:"):
				hasRequest = true
			case n.rec.Name == "info.collect":
				rendered = true
			}
		}
		if root.Name == "op:dial" {
			// Warm-up connection opening: one client.dial, no request.
			for _, n := range nodes {
				if n.rec.Name == "client.dial" {
					get("gsi.handshake_us").add(false, us(n.rec.Duration))
				}
			}
			continue
		}
		if !joined || !hasRequest {
			l.unjoined++
			continue
		}
		l.ops++
		partition(nodes, root.Start, root.Start.Add(root.Duration))
		// The shares partition the operation: they add up to its duration.
		var total time.Duration
		for _, n := range nodes {
			total += n.share
		}
		if diff := (total - root.Duration).Abs(); diff > l.sumErr {
			l.sumErr = diff
		}
		var submit *node // a job's SUBMIT: its first round trip
		if root.Name == "op:"+opJob.String() {
			submit = firstRoundtrip(nodes)
		}
		for _, n := range nodes {
			name := n.rec.Name
			switch name {
			case "client.roundtrip":
				get("client.roundtrip_us").add(phase, us(n.rec.Duration))
				get("core.unattributed_us").add(phase, us(n.share))
				if n == submit {
					get("gram.submit_ack_us").add(phase, us(n.rec.Duration))
				}
				l.checkRoundtrip(n, nodes)
			case "client.decode":
				get("client.decode_us").add(phase, us(n.rec.Duration))
			case "client.dial":
				get("gsi.handshake_us").add(phase, us(n.rec.Duration))
			case "gram.done_wait":
				get("gram.done_notify_us").add(phase, us(n.rec.Duration))
			case "gsi.handshake":
				get("gsi.auth_us").add(phase, us(n.rec.Duration))
			default:
				if b := layerOf(name); b != name {
					get(b).add(phase, us(n.share))
				}
			}
		}
		if phase {
			l.phaseOps++
			if rendered {
				b, _ := strconv.ParseFloat(attrOf(root, "bytes"), 64)
				l.renderBytes += b
			}
		}
	}
	return l
}

// checkRoundtrip verifies that the service's request spans lie inside
// the client round trip that carried them, so the round trip's shares
// are its own unattributed time plus the self times of what it caused.
func (l *traceLedger) checkRoundtrip(rt *node, nodes []*node) {
	start, end := rt.rec.Start, rt.rec.Start.Add(rt.rec.Duration)
	for _, n := range nodes {
		if n.rec.Parent == rt.rec.ID && strings.HasPrefix(n.rec.Name, "request:") &&
			(n.rec.Start.Before(start) || n.rec.Start.Add(n.rec.Duration).After(end)) {
			l.misnested++
		}
	}
}

func firstRoundtrip(nodes []*node) *node {
	var first *node
	for _, n := range nodes {
		if n.rec.Name == "client.roundtrip" && (first == nil || n.rec.Start.Before(first.rec.Start)) {
			first = n
		}
	}
	return first
}

// setDepths resolves every span's depth below the operation root through
// parent links and returns the spans it resolved, dropping any whose
// parent is missing (its parent was one of the late-dropped spans).
func setDepths(nodes []*node, root telemetry.SpanID) []*node {
	byID := make(map[telemetry.SpanID]*node, len(nodes))
	for _, n := range nodes {
		byID[n.rec.ID] = n
		n.depth = -1
	}
	var depth func(n *node, guard int) int
	depth = func(n *node, guard int) int {
		if n.depth >= 0 {
			return n.depth
		}
		if n.rec.ID == root {
			n.depth = 0
			return 0
		}
		p, ok := byID[n.rec.Parent]
		if !ok || guard > len(nodes) {
			return -1
		}
		pd := depth(p, guard+1)
		if pd < 0 {
			return -1
		}
		n.depth = pd + 1
		return n.depth
	}
	out := nodes[:0]
	for _, n := range nodes {
		if depth(n, 0) >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// partition attributes every instant of [start, end] to the deepest span
// covering it, split equally among parallel spans at that depth.
func partition(nodes []*node, start, end time.Time) {
	pts := []time.Time{start, end}
	for _, n := range nodes {
		s, e := n.rec.Start, n.rec.Start.Add(n.rec.Duration)
		if s.After(start) && s.Before(end) {
			pts = append(pts, s)
		}
		if e.After(start) && e.Before(end) {
			pts = append(pts, e)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Before(pts[j]) })
	var deepest []*node
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		if !a.Before(b) {
			continue
		}
		deepest = deepest[:0]
		best := -1
		for _, n := range nodes {
			s, e := n.rec.Start, n.rec.Start.Add(n.rec.Duration)
			if s.After(a) || e.Before(b) {
				continue
			}
			switch {
			case n.depth > best:
				best = n.depth
				deepest = append(deepest[:0], n)
			case n.depth == best:
				deepest = append(deepest, n)
			}
		}
		if len(deepest) == 0 {
			continue
		}
		each := b.Sub(a) / time.Duration(len(deepest))
		for _, n := range deepest {
			n.share += each
		}
	}
}

func attrOf(s telemetry.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// fill writes the traced figures into m.
func (l *traceLedger) fill(m map[string]float64) {
	for _, k := range append([]string{"client.roundtrip_us", "client.decode_us", "core.unattributed_us",
		"gsi.handshake_us", "gsi.auth_us", "gram.submit_ack_us", "gram.done_notify_us"}, selfTimed...) {
		if a, ok := l.accs[k]; ok {
			m[k] = a.mean()
		} else {
			m[k] = 0
		}
	}
	m["ldif.render_bytes_per_op"] = ratio(l.renderBytes, l.phaseOps)
}

// directCalls times the layers that have no span in the program — xRSL
// parsing, LDIF rendering and byte-cache lookup — by calling their public
// functions on the run's own generated inputs: the first operations of
// the measured phase, or the set-up's query when the phase sends none.
func directCalls(m map[string]float64, d *deployment, first uint64) error {
	const sample = 2000
	type q struct {
		kws []int
		f   int
		src string
	}
	var queries []q
	var srcs []string
	for i := uint64(0); i < sample; i++ {
		o := d.w.opAt(first + i)
		switch o.Kind {
		case opHot, opOneShot:
			h := d.w.hot[o.Key]
			queries = append(queries, q{h.Keywords, 0, h.Src})
		case opMiss:
			queries = append(queries, q{o.Keywords, o.Filter, d.w.querySrc(o.Keywords, o.Filter)})
		case opJob:
			srcs = append(srcs, d.jobSrc[o.Job])
			continue
		}
		srcs = append(srcs, queries[len(queries)-1].src)
	}
	if len(queries) == 0 {
		o := d.w.missOp(first, 0)
		queries = append(queries, q{o.Keywords, o.Filter, d.w.querySrc(o.Keywords, o.Filter)})
	}
	env := rsl.NewEnv("LOGNAME", "demo", "HOME", "/home/demo")
	t := time.Now()
	for _, s := range srcs {
		if _, err := xrsl.DecodeOne(s, env); err != nil {
			return fmt.Errorf("generated xRSL does not parse: %w", err)
		}
	}
	m["xrsl.parse_us"] = us(time.Since(t)) / float64(max(len(srcs), 1))

	answers := make([][]ldif.Entry, len(queries))
	for i, qq := range queries {
		answers[i] = d.w.expectedEntries(qq.kws, qq.f)
	}
	bodies := make([]string, len(queries))
	t = time.Now()
	for i, a := range answers {
		var err error
		if bodies[i], err = ldif.Marshal(a); err != nil {
			return fmt.Errorf("render: %w", err)
		}
	}
	m["ldif.render_us"] = us(time.Since(t)) / float64(len(queries))

	// The byte cache is warmed the way the service's is: the hot
	// population is resident before the sample is looked up.
	bc := bytecache.New(bytecache.Options{MaxBytes: cacheBytes, DefaultTTL: cacheTTL})
	if d.w.workload == wlQueryHot || d.w.workload == wlMixed {
		for _, h := range d.w.hot {
			body, _ := ldif.Marshal(d.w.expectedEntries(h.Keywords, 0))
			bc.Set([]byte(h.Src), []byte(body), 0)
		}
	}
	var lookup time.Duration
	for i, qq := range queries {
		key := []byte(qq.src)
		t = time.Now()
		_, ok := bc.Get(key)
		lookup += time.Since(t)
		if !ok {
			bc.Set(key, []byte(bodies[i]), 0)
		}
	}
	m["bytecache.lookup_us"] = us(lookup) / float64(len(queries))
	return nil
}

// expectedEntries renders the entries the seeded providers must produce
// for a query, with placeholder values for volatile runtime attributes.
func (w *world) expectedEntries(kws []int, f int) []ldif.Entry {
	var out []ldif.Entry
	for _, p := range kws {
		exp := w.expect[p][f]
		if len(exp) == 0 {
			continue
		}
		e := ldif.Entry{DN: w.dn[p]}
		e.Add("objectclass", provider.ObjectClass)
		e.Add("kw", w.providers[p].Keyword)
		e.Add("resource", resourceName)
		for _, a := range exp {
			v := a.Value
			if v == "" {
				v = "0"
			}
			e.Add(a.Name, v)
		}
		out = append(out, e)
	}
	return out
}
