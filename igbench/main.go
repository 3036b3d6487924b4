// Command igbench is InfoGram's benchmark: it boots one InfoGram service
// in its own process through the constructors cmd/infogram-server uses,
// drives it closed-loop through core.Pool from the same process, checks
// every answer, and prints end-to-end metrics (untraced run) or the
// per-layer ledger (traced run) by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (run.sh builds the binary first):
//
//	igbench --workload query-hot --seed 1 --seconds 20 --trace 0
//	igbench --workload all --seed 1 --seconds 20
//
// --workload all runs every workload untraced and then traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"infogram/internal/bootstrap"
)

// setups is how many times a trace-0 run boots and warms a deployment;
// setup_s is the median of their scaled set-up times, and the one booted
// after the first setups/2 is measured. Each phase runs as numWindows
// windows.
const (
	setups     = 11
	numWindows = 40
)

// procs is the benchmark's GOMAXPROCS. With more than one P, a single
// caller's request and the service's reply are handed between vCPUs, and
// on a shared virtual machine the cost of those wake-ups moved with the
// neighbours' load far more than the host-speed reference (reference.go)
// could follow. On one P the hand-off is a goroutine switch, as it is in
// the reference. The cap phase still runs nproc callers.
const procs = 1

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer ledger from a traced run")
	state := flag.String("state", ".bench_build", "directory for the run's fabric, inputs and service state")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "igbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "igbench: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	base, err := filepath.Abs(filepath.Join(*state, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "igbench:", err)
		os.Exit(1)
	}
	code := runAll(names, *seed, *seconds, *trace == 1, base)
	os.RemoveAll(base)
	os.Exit(code)
}

// runAll runs one workload with the requested tracing, or every workload
// untraced and then traced, and returns the exit code.
func runAll(names []string, seed uint64, seconds float64, traced bool, base string) int {
	if len(names) == 1 {
		res, err := run(names[0], seed, seconds, traced, base)
		return report(res, err)
	}
	all := result{Correct: true, Metrics: make(map[string]value)}
	for _, name := range names {
		for _, withTrace := range []bool{false, true} {
			res, err := run(name, seed, seconds, withTrace, base)
			if report(res, err) != 0 {
				all.Correct = false
			}
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, v := range res.Metrics {
				all.Metrics[name+"."+k] = v
			}
		}
	}
	out, _ := json.Marshal(all)
	fmt.Println(string(out))
	if !all.Correct {
		return 1
	}
	return 0
}

// report prints a run's metrics and its result line, and returns the
// exit code.
func report(res result, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "igbench:", err)
		res.Correct = false
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one workload: untraced it boots setups deployments and
// measures the last; traced it measures an untraced and a traced
// deployment, each for half the time, and reports the ledger.
func run(name string, seed uint64, seconds float64, traced bool, base string) (result, error) {
	res := result{Correct: true, Metrics: make(map[string]value)}
	dir := filepath.Join(base, name)
	defer os.RemoveAll(dir)
	fab, err := bootstrap.SelfSigned(filepath.Join(dir, "fabric"))
	if err != nil {
		return res, err
	}
	w := newWorld(name, seed)
	if err := os.MkdirAll(filepath.Join(dir, "inputs"), 0o755); err != nil {
		return res, err
	}
	for _, p := range w.providers {
		if p.Kind == "file" {
			if err := os.WriteFile(filepath.Join(dir, "inputs", p.Keyword), []byte(fileContent(p)), 0o644); err != nil {
				return res, err
			}
		}
	}
	callers := runtime.NumCPU()
	var next atomic.Uint64
	var errs errLog
	var setupRSS, phaseRSS float64
	total := time.Duration(seconds * float64(time.Second))
	fmt.Printf("provenance workload=%s seed=%d trace=%t nproc=%d gomaxprocs=%d go=%s callers_lat=1 callers_cap=%d ref_nominal_us=%g\n",
		name, seed, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), callers, us(refNominal))

	// The host-speed references (reference.go): one pair for the lat
	// phase's one caller, nproc pairs beside the cap phase and set-up.
	ref1, err := newReference(1)
	if err != nil {
		return res, err
	}
	defer ref1.close()
	refN, err := newReference(callers)
	if err != nil {
		return res, err
	}
	defer refN.close()

	// timedBoot boots a deployment from a collected heap, so no set-up
	// pays for an earlier one's garbage, with a reference run just before
	// and just after it, and returns its set-up time raw and scaled to the
	// nominal host speed.
	timedBoot := func(label string, tracedDeploy bool) (*deployment, setupTime, error) {
		runtime.GC()
		before, err := refN.run(setupRefDur)
		if err != nil {
			return nil, setupTime{}, err
		}
		d, st, err := boot(w, fab, filepath.Join(dir, label), callers, tracedDeploy, &next)
		if err != nil {
			return nil, setupTime{}, err
		}
		after, err := refN.run(setupRefDur)
		if err != nil {
			return d, setupTime{}, err
		}
		return d, setupTime{raw: st, scaled: time.Duration(float64(st) / slowdown(before, after, refWall))}, nil
	}

	// probes boots and closes n deployments and returns their set-up
	// times.
	probes := func(n int, label string) ([]setupTime, error) {
		var times []setupTime
		for k := 0; k < n; k++ {
			d, st, err := timedBoot(fmt.Sprintf("%s-%d", label, k), false)
			if d == nil {
				return times, err
			}
			times = append(times, st)
			if cerr := d.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return times, err
			}
		}
		return times, nil
	}

	// measure boots a deployment from a collected heap and runs the lat
	// and cap phases on it as interleaved windows, each phase lasting
	// phaseDur in all. It returns the deployment still open, and its
	// set-up time.
	measure := func(tracedDeploy bool, phaseDur time.Duration) (*deployment, windows, windows, setupTime, error) {
		// The set-up peak read after boot is this deployment's alone.
		if err := resetPeakRSS(); err != nil {
			return nil, nil, nil, setupTime{}, err
		}
		d, st, err := timedBoot(fmt.Sprintf("measured-%t", tracedDeploy), tracedDeploy)
		if err != nil {
			return d, nil, nil, st, err
		}
		setupRSS = peakRSSMiB()
		// Collect set-up's garbage now, so the first windows do not pay
		// for it, and restart the peak for the phases.
		if err := resetPeakRSS(); err != nil {
			return d, nil, nil, st, err
		}
		// Lat windows interleave their reference iterations with the
		// operations. A fifth of each cap window's share of the phase time
		// goes to the reference run just before it, and one more follows
		// the last, so every cap window has one on both sides.
		refDur := phaseDur / numWindows / 5
		var lat, capW windows
		for k := 0; k < numWindows; k++ {
			l := runPhase(d, "lat", 1, phaseDur/numWindows, &next, ref1, &errs)
			if l.refErr != nil {
				return d, nil, nil, st, l.refErr
			}
			rN, err := refN.run(refDur)
			if err != nil {
				return d, nil, nil, st, err
			}
			if k > 0 {
				capW[k-1].refAfter = rN
			}
			c := runPhase(d, "cap", callers, phaseDur/numWindows-refDur, &next, nil, &errs)
			c.refBefore = rN
			lat, capW = append(lat, l), append(capW, c)
		}
		rN, err := refN.run(refDur)
		if err != nil {
			return d, nil, nil, st, err
		}
		capW[numWindows-1].refAfter = rN
		phaseRSS = peakRSSMiB()
		for _, ws := range []windows{lat, capW} {
			ok := int64(ws.sum(func(r *phaseResult) float64 { return float64(r.ok) }))
			failed := int64(ws.sum(func(r *phaseResult) float64 { return float64(r.failed) }))
			res.Attempted += ok + failed
			res.Failed += failed
			fmt.Printf("provenance phase=%s traced=%t windows=%d seconds=%.3f callers=%d ops=%d failed=%d jobs=%g oneshots=%g min_window_samples=%g\n",
				ws[0].name, tracedDeploy, len(ws), ws.sum(func(r *phaseResult) float64 { return r.elapsed.Seconds() }), ws[0].callers, ok, failed,
				ws.sum(func(r *phaseResult) float64 { return float64(r.jobs) }), ws.sum(func(r *phaseResult) float64 { return float64(r.oneshots) }),
				minOver(ws, func(r *phaseResult) float64 { return float64(r.ok) }))
			if ok == 0 {
				return d, lat, capW, st, fmt.Errorf("%s: the %s phase completed no operation", name, ws[0].name)
			}
		}
		return d, lat, capW, st, nil
	}
	// Every time figure is scaled to the nominal host speed by the
	// reference timed beside its window (reference.go): latency by the
	// median of the reference iterations interleaved with the window's
	// operations, throughput by the nproc-pair reference's wall time per
	// iteration and CPU per operation by its CPU time per iteration, both
	// from the runs on either side of the window. The unscaled figures are
	// printed too.
	cpuPerOp := func(r *phaseResult) float64 { return ratio(us(r.after.cpu-r.before.cpu-r.checkCPU), float64(r.ok)) }
	opsPerS := func(r *phaseResult) float64 { return float64(r.ok) / r.elapsed.Seconds() }
	p50 := func(r *phaseResult) float64 { return us(quantile(r.lat, 0.50)) }
	p99 := func(r *phaseResult) float64 { return us(quantile(r.lat, 0.99)) }
	cpuScaled := func(r *phaseResult) float64 { return cpuPerOp(r) / r.slowdown(refCPU) }

	if !traced {
		// Half the set-ups run before the measured deployment and half
		// after it, so setup_s samples the host across the whole run as
		// the phases do.
		setupTimes, err := probes(setups/2, "before")
		var d *deployment
		var lat, capR windows
		var st setupTime
		if err == nil {
			d, lat, capR, st, err = measure(false, total/2)
			setupTimes = append(setupTimes, st)
		}
		if err == nil {
			err = guards(name, capR)
		}
		if d != nil {
			if cerr := d.close(); cerr != nil {
				res.Failed++
				err = firstErr(err, cerr)
			}
		}
		if err == nil {
			var after []setupTime
			after, err = probes(setups-len(setupTimes), "after")
			setupTimes = append(setupTimes, after...)
		}
		if err != nil {
			res.Correct = false
			errs.report()
			return res, err
		}
		raw, scaled := make([]float64, len(setupTimes)), make([]float64, len(setupTimes))
		for i, t := range setupTimes {
			raw[i], scaled[i] = t.raw.Seconds(), t.scaled.Seconds()
		}
		fmt.Printf("provenance setup_s_each=%.4f scaled=%.4f\n", raw, scaled)
		m := map[string]float64{
			"setup_s":       median(scaled),
			"ops_per_s":     capR.median(func(r *phaseResult) float64 { return opsPerS(r) * r.slowdown(refWall) }),
			"p50_us":        lat.median(func(r *phaseResult) float64 { return p50(r) / r.latSlowdown() }),
			"p99_us":        lat.median(func(r *phaseResult) float64 { return p99(r) / r.latSlowdown() }),
			"cpu_us_per_op": capR.median(cpuScaled),
			"rss_peak_mb":   phaseRSS,
		}
		if !rssOverPhases(name) {
			m["rss_peak_mb"] = setupRSS
		}
		fmt.Printf("provenance unscaled setup_s=%.4f ops_per_s=%.1f p50_us=%.2f p99_us=%.2f cpu_us_per_op=%.2f\n",
			median(raw), capR.median(opsPerS), lat.median(p50), lat.median(p99), capR.median(cpuPerOp))
		fmt.Printf("provenance reference ref1_p50_us=%.3f refN_wall_us=%.3f refN_cpu_us=%.3f\n",
			lat.median(func(r *phaseResult) float64 { return us(quantile(r.refLat, 0.5)) }),
			capR.median(func(r *phaseResult) float64 { return us(r.refBefore.wall) }),
			capR.median(func(r *phaseResult) float64 { return us(r.refBefore.cpu) }))
		fmt.Printf("provenance setup_runs=%d percentile_windows=%d min_window_samples=%g p99_samples_beyond_per_window=%g fail_ratio=%g\n",
			len(setupTimes), len(lat), minOver(lat, func(r *phaseResult) float64 { return float64(len(r.lat)) }),
			minOver(lat, func(r *phaseResult) float64 { return float64(len(r.lat) / 100) }), ratio(float64(res.Failed), float64(res.Attempted)))
		fmt.Printf("provenance rss_setup_mb=%.2f rss_phases_mb=%.2f rss_reported=%s check_cpu_share_cap=%.4f clock_cost_ns=%d\n",
			setupRSS, phaseRSS, map[bool]string{true: "phases", false: "setup"}[rssOverPhases(name)],
			ratio(capR.sum(func(r *phaseResult) float64 { return float64(r.checkCPU) }), capR.sum(func(r *phaseResult) float64 { return float64(r.after.cpu - r.before.cpu) })),
			clockCost.Nanoseconds())
		for _, def := range endToEnd {
			res.Metrics[def.Name] = value{m[def.Name], def.Unit}
		}
		res.Correct = res.Failed == 0
		errs.report()
		return res, nil
	}

	m := make(map[string]float64)
	d, _, capU, _, err := measure(false, total/4)
	if err == nil {
		err = guards(name, capU)
	}
	if d != nil {
		counts(m, capU)
		if cerr := d.close(); cerr != nil {
			res.Failed++
			err = firstErr(err, cerr)
		}
	}
	if err != nil {
		res.Correct = false
		errs.report()
		return res, err
	}
	d, latT, capT, _, err := measure(true, total/4)
	if d != nil {
		l := analyze(d.tracer.Store(), d.svc.Tracer().Store())
		l.fill(m)
		if err == nil {
			err = directCalls(m, d, latT[0].firstOp)
		}
		m["telemetry.trace_overhead_ratio"] = ratio(capT.median(cpuScaled), capU.median(cpuScaled))
		svcTel := flatten(d.tel)
		fmt.Printf("provenance traced_ops_joined=%d unjoined=%d misnested=%d max_partition_error_ns=%d spans_overflowed=%g spans_late_dropped=%g spans_orphaned=%d traces_evicted=%d\n",
			l.ops, l.unjoined, l.misnested, l.sumErr.Nanoseconds(), svcTel["infogram_trace_spans_overflow_total"],
			svcTel["infogram_trace_spans_late_dropped_total"], l.orphans, d.tracer.Store().Evicted()+d.svc.Tracer().Store().Evicted())
		if err == nil {
			err = traceGuards(d, l)
		}
		if cerr := d.close(); cerr != nil {
			res.Failed++
			err = firstErr(err, cerr)
		}
	}
	if err != nil {
		res.Correct = false
		errs.report()
		return res, err
	}
	for _, def := range perLayer {
		res.Metrics[def.Name] = value{m[def.Name], def.Unit}
	}
	res.Correct = res.Failed == 0
	errs.report()
	return res, nil
}

// rssOverPhases says whether a workload's rss_peak_mb is the peak over its
// measured phases, which covers nproc concurrent callers. In jobs and
// mixed the job table keeps every finished job, so a peak over fixed-time
// phases would grow with throughput and punish a faster service; there
// rss_peak_mb is the peak of the measured deployment's set-up, which is
// fixed work.
func rssOverPhases(workload string) bool {
	return workload == wlQueryHot || workload == wlQueryMiss
}

// guards are the workload-validity checks: they stop a change from
// quietly turning one workload into another.
func guards(name string, cp windows) error {
	hits, misses := cp.delta("infogram_bytecache_hits_total"), cp.delta("infogram_bytecache_misses_total")
	switch name {
	case wlQueryHot:
		if r := ratio(hits, hits+misses); r < 0.95 {
			return fmt.Errorf("query-hot: byte-cache hit ratio %.4f < 0.95 after warm-up", r)
		}
	case wlQueryMiss:
		if hits != 0 {
			return fmt.Errorf("query-miss: %g byte-cache hits, want 0", hits)
		}
		if ev := cp.delta("infogram_bytecache_evictions_total"); ev <= 0 {
			return fmt.Errorf("query-miss: no byte-cache eviction during cap")
		}
	case wlJobs:
		if r := ratio(cp.delta("infogram_journal_appends_total"), cp.sum(func(r *phaseResult) float64 { return float64(r.jobs) })); r < 2 {
			return fmt.Errorf("jobs: %.3f journal appends per job, want >= 2", r)
		}
		if hits+misses != 0 {
			return fmt.Errorf("jobs: %g response-cache lookups, want 0", hits+misses)
		}
	case wlMixed:
		if hs, n := cp.delta("infogram_auth_total"), cp.sum(func(r *phaseResult) float64 { return float64(r.oneshots) }); hs != n {
			return fmt.Errorf("mixed: %g handshakes for %g one-shot clients", hs, n)
		}
	}
	return nil
}

// traceGuards check that the traced run evicted no trace, overflowed no
// span and joined every operation, so the ledger covers the whole run.
// Late-dropped spans are reported on the provenance line, not gated:
// Tracer.finish releases a trace's buffer before storing it, so a job
// span that ends in that gap is dropped — a few per run.
func traceGuards(d *deployment, l *traceLedger) error {
	svcTel := flatten(d.tel)
	switch {
	case d.tracer.Store().Evicted() != 0 || d.svc.Tracer().Store().Evicted() != 0:
		return fmt.Errorf("traced run: the trace store evicted traces")
	case svcTel["infogram_trace_spans_overflow_total"] != 0:
		return fmt.Errorf("traced run: spans overflowed their trace")
	case l.unjoined != 0 || l.misnested != 0:
		return fmt.Errorf("traced run: %d operations without service spans, %d requests outside their round trip", l.unjoined, l.misnested)
	case l.sumErr > time.Microsecond:
		return fmt.Errorf("traced run: span shares miss the operation time by %s", l.sumErr)
	}
	return nil
}

// minOver is the smallest per-window figure.
func minOver(ws windows, f func(*phaseResult) float64) float64 {
	v := f(ws[0])
	for _, r := range ws[1:] {
		v = min(v, f(r))
	}
	return v
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}
