package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"infogram/internal/ldif"
	"infogram/internal/provider"
	"infogram/internal/xrsl"
)

// The seeded input set. Everything the service receives — provider
// contents, query keys, the operation sequence — is a pure function of the
// seed, so the same seed replays the same inputs byte for byte.
const (
	numStatic = 48 // StaticProvider keywords Site00..Site47
	numFile   = 16 // FileProvider keywords Node00..Node15
	attrsPer  = 8  // attributes f0..f7 on every static and file provider

	// hotKeys is the query-hot key population. Its rendered answers
	// (about 1.2 MB) fit the response cache budget, cacheBytes; query-miss
	// answers overflow it within a few thousand operations.
	hotKeys     = 1024
	hotKeywords = 3
	zipfS       = 1.1

	// missKeywords is how many providers one query-miss query names, so
	// every miss fans collect out.
	missKeywords = 4

	resourceName = "bench.resource"
)

// filters are the §6.5 filter-tag globs a query may carry; index 0 means
// no filter. Every static and file provider has f0..f7, so each non-empty
// filter keeps at least one attribute of every such entry and a filtered
// answer is never empty. None matches a quality:* annotation.
var filters = []string{"", "*:f0", "*:f1", "*:f2", "*:f3", "*:f4", "*:f5", "*:f6", "*:f7", "*:F2*"}

// Workload names, as BENCHMARK.json lists them.
const (
	wlQueryHot  = "query-hot"
	wlQueryMiss = "query-miss"
	wlJobs      = "jobs"
	wlMixed     = "mixed"
)

var workloads = []string{wlQueryHot, wlQueryMiss, wlJobs, wlMixed}

type attr struct{ Name, Value string }

// providerSpec is one seeded information provider.
type providerSpec struct {
	Keyword string
	Kind    string // "static", "file" or "runtime"
	Attrs   []attr // un-namespaced; nil for runtime
}

type opKind uint8

const (
	opHot     opKind = iota // pooled query drawn Zipf from the hot population
	opMiss                  // pooled query never asked before
	opJob                   // SUBMIT → DONE lifecycle
	opOneShot               // dial, GSI handshake, one hot query, close
)

func (k opKind) String() string {
	return [...]string{"hot", "miss", "job", "oneshot"}[k]
}

type jobKind uint8

const (
	jobFunc  jobKind = iota // in-process no-op (jobtype=func)
	jobExec                 // /bin/true through scheduler.Fork (jobtype=exec)
	jobQueue                // /bin/true through the batch queue (jobtype=queue)
)

// op is one generated operation.
type op struct {
	Kind     opKind
	Key      int   // hot population index (opHot, opOneShot)
	Keywords []int // provider indices (opMiss)
	Filter   int   // filter index (opMiss)
	Job      jobKind
	// Status asks the caller to poll STATUS on its previous finished job
	// after this one, adding job-table reads beside the writes.
	Status bool
}

// query is one member of the hot population; hot queries carry no
// filter.
type query struct {
	Keywords []int
	Src      string
}

// world is the seeded input set of one run.
type world struct {
	seed      uint64
	workload  string
	providers []providerSpec
	dn        []string
	// expect[p][f] is provider p's expected namespaced attributes under
	// filter f. Runtime values that change between collections are "".
	expect  [][][]attr
	hot     []query
	hotCDF  []float64
	hotPerm []int
	// query-miss keys come from an affine bijection onto the ranks of the
	// 4-keyword combinations, so op index i always names a combination no
	// other index names.
	missN, missA, missB uint64
	missPool            int // static+file providers eligible for misses
}

func newWorld(workload string, seed uint64) *world {
	w := &world{seed: seed, workload: workload}
	r := rand.New(rand.NewSource(int64(mix(seed))))
	for i := 0; i < numStatic; i++ {
		w.providers = append(w.providers, providerSpec{Keyword: fmt.Sprintf("Site%02d", i), Kind: "static", Attrs: randAttrs(r)})
	}
	for i := 0; i < numFile; i++ {
		w.providers = append(w.providers, providerSpec{Keyword: fmt.Sprintf("Node%02d", i), Kind: "file", Attrs: randAttrs(r)})
	}
	w.missPool = len(w.providers)
	w.providers = append(w.providers, providerSpec{Keyword: provider.RuntimeProvider{}.Keyword(), Kind: "runtime"})

	host, _ := os.Hostname()
	runtimeAttrs := []attr{
		{"hostname", host}, {"os", runtime.GOOS}, {"arch", runtime.GOARCH},
		{"cpus", strconv.Itoa(runtime.NumCPU())}, {"goroutines", ""}, {"heapAlloc", ""},
		{"heapSys", ""}, {"totalAlloc", ""}, {"gcCycles", ""},
	}
	for _, p := range w.providers {
		w.dn = append(w.dn, fmt.Sprintf("kw=%s, resource=%s, o=grid", p.Keyword, resourceName))
		raw := p.Attrs
		if p.Kind == "runtime" {
			raw = runtimeAttrs
		}
		perFilter := make([][]attr, len(filters))
		for f, pat := range filters {
			for _, a := range raw {
				name := p.Keyword + ":" + a.Name
				if pat == "" || glob(pat, name) {
					perFilter[f] = append(perFilter[f], attr{name, a.Value})
				}
			}
		}
		w.expect = append(w.expect, perFilter)
	}

	// Hot population: every key names hotKeywords distinct providers and
	// no filter. Zipf concentrates traffic on a few keys, so keys of one
	// shape keep the per-operation cost from depending on which keys the
	// seed happens to rank first.
	seen := make(map[string]bool)
	for len(w.hot) < hotKeys {
		kws := r.Perm(len(w.providers))[:hotKeywords]
		q := query{Keywords: kws, Src: w.querySrc(kws, 0)}
		if seen[q.Src] {
			continue
		}
		seen[q.Src] = true
		w.hot = append(w.hot, q)
	}
	w.hotPerm = r.Perm(hotKeys)
	w.hotCDF = make([]float64, hotKeys)
	var sum float64
	for i := range w.hotCDF {
		sum += 1 / math.Pow(float64(i+1), zipfS)
		w.hotCDF[i] = sum
	}
	for i := range w.hotCDF {
		w.hotCDF[i] /= sum
	}

	w.missN = binom(uint64(w.missPool), missKeywords)
	w.missA = 1 + mix(seed^0xa5a5)%(w.missN-1)
	for gcd(w.missA, w.missN) != 1 {
		w.missA++
	}
	w.missB = mix(seed^0x5a5a) % w.missN
	return w
}

func randAttrs(r *rand.Rand) []attr {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	out := make([]attr, attrsPer)
	for i := range out {
		b := make([]byte, 8+r.Intn(17))
		for j := range b {
			b[j] = alnum[r.Intn(len(alnum))]
		}
		out[i] = attr{fmt.Sprintf("f%d", i), string(b)}
	}
	return out
}

// fileContent renders a file provider's backing file in the
// "name: value" lines provider.ParseOutput reads.
func fileContent(p providerSpec) string {
	var sb strings.Builder
	for _, a := range p.Attrs {
		fmt.Fprintf(&sb, "%s: %s\n", a.Name, a.Value)
	}
	return sb.String()
}

func (w *world) querySrc(kws []int, f int) string {
	req := xrsl.InfoRequest{Filter: filters[f]}
	for _, p := range kws {
		req.Keywords = append(req.Keywords, w.providers[p].Keyword)
	}
	return req.Encode()
}

// opAt generates operation i of the run. It depends only on the seed,
// the workload and i, so concurrent callers drawing indices from one
// counter replay the same sequence.
func (w *world) opAt(i uint64) op {
	h := mix(w.seed ^ mix(i+0x1234567))
	switch w.workload {
	case wlQueryHot:
		return op{Kind: opHot, Key: w.hotPick(h)}
	case wlQueryMiss:
		return w.missOp(i, h)
	case wlJobs:
		return w.jobOp(i, h)
	default:
		// mixed is a synthetic probe, not modelled traffic: no source in
		// the paper or the repository gives a query/job/dial mix. Its
		// shares — 9/20 hot, 5/20 miss, 5/20 jobs, 1/20 one-shot clients —
		// give each kind about a quarter of the CPU, from the single-kind
		// workloads' cpu_us_per_op on a 2-CPU host (hot ≈ 116 µs, miss
		// ≈ 199 µs, job ≈ 214 µs, one-shot ≈ 1 ms), so a cost change in
		// any one kind moves mixed by a similar amount.
		switch k := h % 20; {
		case k < 9:
			return op{Kind: opHot, Key: w.hotPick(mix(h))}
		case k < 14:
			return w.missOp(i, mix(h))
		case k < 19:
			return w.jobOp(i, mix(h))
		default:
			return op{Kind: opOneShot, Key: w.hotPick(mix(h))}
		}
	}
}

func (w *world) hotPick(h uint64) int {
	u := float64(h>>11) / (1 << 53)
	rank := sort.SearchFloat64s(w.hotCDF, u)
	if rank >= hotKeys {
		rank = hotKeys - 1
	}
	return w.hotPerm[rank]
}

func (w *world) missOp(i, h uint64) op {
	rank := (w.missA*(i%w.missN) + w.missB) % w.missN
	return op{Kind: opMiss, Keywords: unrank(rank, w.missPool, missKeywords), Filter: 1 + int(h%uint64(len(filters)-1))}
}

// jobOp: 14 in 16 jobs are in-process no-ops; one in 16 forks /bin/true
// directly and one in 16 runs it through the batch queue, so
// scheduler.Fork, gram spawn and the queue dispatcher all do work. Every
// fourth lifecycle also reads the caller's previous job back with STATUS,
// a synthetic share that keeps job-table reads beside the writes (each
// lifecycle writes at least twice) without making them the main cost.
func (w *world) jobOp(i, h uint64) op {
	o := op{Kind: opJob, Job: jobFunc, Status: i%4 == 3}
	switch h % 16 {
	case 0:
		o.Job = jobExec
	case 1:
		o.Job = jobQueue
	}
	return o
}

// checkAnswer compares decoded entries with what the seeded providers
// must produce for keywords kws under filter f: the DN of every surviving
// entry in request order, its structural attributes, and every provider
// attribute name and value (runtime values that change between
// collections are checked by name only). Quality annotations appear only
// on unfiltered answers and are skipped.
func (w *world) checkAnswer(kws []int, f int, entries []ldif.Entry) error {
	ei := 0
	for _, p := range kws {
		exp := w.expect[p][f]
		if len(exp) == 0 {
			continue // the filter drops the whole entry
		}
		kw := w.providers[p].Keyword
		if ei >= len(entries) {
			return fmt.Errorf("answer lacks the %s entry", kw)
		}
		e := &entries[ei]
		ei++
		if e.DN != w.dn[p] {
			return fmt.Errorf("entry %d: DN %q, want %q", ei-1, e.DN, w.dn[p])
		}
		got := 0
		for _, a := range e.Attrs {
			switch {
			case a.Name == "objectclass":
				if a.Value != provider.ObjectClass {
					return fmt.Errorf("%s: objectclass %q", kw, a.Value)
				}
			case a.Name == "kw":
				if a.Value != kw {
					return fmt.Errorf("%s: kw %q", kw, a.Value)
				}
			case a.Name == "resource":
				if a.Value != resourceName {
					return fmt.Errorf("%s: resource %q", kw, a.Value)
				}
			case f == 0 && strings.HasPrefix(a.Name, "quality:"):
			default:
				if got >= len(exp) {
					return fmt.Errorf("%s: unexpected attribute %s", kw, a.Name)
				}
				want := exp[got]
				if a.Name != want.Name || (want.Value != "" && a.Value != want.Value) {
					return fmt.Errorf("%s: attribute %s=%q, want %s=%q", kw, a.Name, a.Value, want.Name, want.Value)
				}
				got++
			}
		}
		if got != len(exp) {
			return fmt.Errorf("%s: %d provider attributes, want %d", kw, got, len(exp))
		}
	}
	if ei != len(entries) {
		return fmt.Errorf("answer has %d entries, want %d", len(entries), ei)
	}
	return nil
}

// glob matches pattern, whose only metacharacter is '*', against s
// case-insensitively — the filter-tag semantics of §6.5.
func glob(pattern, s string) bool {
	p, v := strings.ToLower(pattern), strings.ToLower(s)
	star, mark := -1, 0
	pi, vi := 0, 0
	for vi < len(v) {
		switch {
		case pi < len(p) && p[pi] == '*':
			star, mark = pi, vi
			pi++
		case pi < len(p) && p[pi] == v[vi]:
			pi++
			vi++
		case star >= 0:
			pi = star + 1
			mark++
			vi = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}

// mix is splitmix64's finalizer: a cheap, well-spread hash of x.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func binom(n, k uint64) uint64 {
	r := uint64(1)
	for i := uint64(1); i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// unrank returns the rank-th k-subset of {0..n-1} in lexicographic order.
func unrank(rank uint64, n, k int) []int {
	out := make([]int, 0, k)
	x := 0
	for j := k; j > 0; j-- {
		for {
			c := binom(uint64(n-x-1), uint64(j-1))
			if rank < c {
				break
			}
			rank -= c
			x++
		}
		out = append(out, x)
		x++
	}
	return out
}
