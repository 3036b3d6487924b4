package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"infogram/internal/telemetry"
)

// phaseResult is one measured phase of closed-loop callers.
type phaseResult struct {
	name     string
	callers  int
	ok       int64 // operations completed and checked
	failed   int64
	jobs     int64         // job lifecycles among ok
	oneshots int64         // one-shot clients among ok
	checkCPU time.Duration // CPU time of the benchmark's answer checks
	elapsed  time.Duration
	lat      []time.Duration // per-operation latency, recorded in the lat phase
	before   edge
	after    edge
	firstOp  uint64 // index of the phase's first generated operation
	// refLat holds the latencies of the reference iterations interleaved
	// with a lat window's operations, sorted; refErr is the first error
	// one returned.
	refLat []time.Duration
	refErr error
	// refBefore and refAfter are the reference runs on either side of a
	// cap window.
	refBefore, refAfter refSample
}

// slowdown is how much slower than nominal the host ran during a cap
// window, by the figure f of the reference runs on either side of it.
func (r *phaseResult) slowdown(f func(refSample) time.Duration) float64 {
	return slowdown(r.refBefore, r.refAfter, f)
}

// latSlowdown is how much slower than nominal the host ran during a lat
// window, by the median of the reference iterations interleaved with its
// operations.
func (r *phaseResult) latSlowdown() float64 {
	return float64(quantile(r.refLat, 0.5)) / float64(refNominal)
}

// edge is everything sampled at a phase boundary.
type edge struct {
	svc, pool map[string]float64
	mem       runtime.MemStats
	cpu       time.Duration // process user+sys
	journalB  int64         // bytes of journal files on disk
}

// runPhase drives callers closed-loop callers for dur: each takes the
// next operation index, runs it, checks it, and only then takes another.
// Given a reference (the lat phase, with one caller), the caller records
// each operation's latency and follows each operation with one reference
// iteration, so the host's speed is sampled at the same moments as the
// operations.
func runPhase(d *deployment, name string, callers int, dur time.Duration, next *atomic.Uint64, ref *reference, errs *errLog) *phaseResult {
	res := &phaseResult{name: name, callers: callers}
	res.before = d.edge()
	res.firstOp = next.Load()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cs caller
			var lat, refLat []time.Duration
			var refErr error
			var ok, failed, jobs, oneshots int64
			for refErr == nil && time.Now().Before(deadline) {
				o := d.w.opAt(next.Add(1) - 1)
				l, err := d.runOp(context.Background(), o, &cs, name)
				if err != nil {
					failed++
					errs.add(fmt.Sprintf("%s %s: %v", name, o.Kind, err))
					continue
				}
				ok++
				switch o.Kind {
				case opJob:
					jobs++
				case opOneShot:
					oneshots++
				}
				if ref != nil {
					lat = append(lat, l)
					var rl time.Duration
					rl, refErr = ref.once()
					refLat = append(refLat, rl)
				}
			}
			mu.Lock()
			res.ok += ok
			res.failed += failed
			res.jobs += jobs
			res.oneshots += oneshots
			res.checkCPU += cs.checkCPU
			res.lat = append(res.lat, lat...)
			res.refLat = append(res.refLat, refLat...)
			res.refErr = firstErr(res.refErr, refErr)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.after = d.edge()
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	sort.Slice(res.refLat, func(i, j int) bool { return res.refLat[i] < res.refLat[j] })
	return res
}

func (d *deployment) edge() edge {
	var e edge
	e.svc = flatten(d.tel)
	e.pool = flatten(d.poolTel)
	runtime.ReadMemStats(&e.mem)
	e.cpu = processCPU()
	_ = filepath.Walk(filepath.Join(d.dir, "state"), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			e.journalB += info.Size()
		}
		return nil
	})
	return e
}

// flatten snapshots a registry into name → value, summing label
// variants: counters and gauges by value, histograms as name.count and
// name.sum_us.
func flatten(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range reg.Snapshot() {
		if p.Kind == telemetry.KindHistogram {
			out[p.Name+".count"] += float64(p.Hist.Count)
			out[p.Name+".sum_us"] += float64(p.Hist.Sum) / 1e3
			continue
		}
		out[p.Name] += float64(p.Value)
	}
	return out
}

// windows are the measurement windows of one phase. A phase runs as
// several windows interleaved with the other phase's, so drift and
// bursts of outside load reach both phases alike, and each end-to-end
// figure is the median of its per-window values.
type windows []*phaseResult

// delta returns a registry value's change summed over the windows.
func (ws windows) delta(name string) float64 {
	var v float64
	for _, r := range ws {
		v += r.after.svc[name] - r.before.svc[name]
	}
	return v
}

func (ws windows) poolDelta(name string) float64 {
	var v float64
	for _, r := range ws {
		v += r.after.pool[name] - r.before.pool[name]
	}
	return v
}

// sum adds up a per-window quantity.
func (ws windows) sum(f func(*phaseResult) float64) float64 {
	var v float64
	for _, r := range ws {
		v += f(r)
	}
	return v
}

// median is the median over windows of a per-window figure.
func (ws windows) median(f func(*phaseResult) float64) float64 {
	vs := make([]float64, len(ws))
	for i, r := range ws {
		vs[i] = f(r)
	}
	return median(vs)
}

// median is the median of vs, which it sorts.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if len(vs)%2 == 1 {
		return vs[len(vs)/2]
	}
	return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
}

// last is the final window, whose after-edge holds end-of-phase gauges.
func (ws windows) last() *phaseResult { return ws[len(ws)-1] }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// clockCost is the CPU time of a pair of threadCPU reads that falls
// outside the interval they measure.
var clockCost = func() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const n = 20000
	var inside time.Duration
	start := threadCPU()
	for i := 0; i < n; i++ {
		t := threadCPU()
		inside += threadCPU() - t
	}
	return (threadCPU() - start - inside) / n
}()

// resetPeakRSS returns freed memory to the system and restarts the
// process's peak resident set (VmHWM) from the current one.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// errLog keeps the first few failure messages for the report.
type errLog struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (l *errLog) add(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.msgs) < 10 {
		l.msgs = append(l.msgs, msg)
	}
}

// report prints the kept failure messages to standard error and resets
// the log.
func (l *errLog) report() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.msgs {
		fmt.Fprintln(os.Stderr, "igbench: failed:", m)
	}
	if l.n > len(l.msgs) {
		fmt.Fprintf(os.Stderr, "igbench: ... %d failures in all\n", l.n)
	}
	l.n, l.msgs = 0, nil
}
