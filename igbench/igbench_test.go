package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"infogram/internal/ldif"
	"infogram/internal/telemetry"
)

// sequence renders everything a seed determines — providers, hot
// population and the first operations — as bytes.
func sequence(t *testing.T, workload string, seed uint64) []byte {
	t.Helper()
	w := newWorld(workload, seed)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%v\n%v\n", w.providers, w.hot)
	for i := uint64(0); i < 5000; i++ {
		fmt.Fprintf(&buf, "%+v\n", w.opAt(i))
	}
	return buf.Bytes()
}

func TestSeedDeterminesSequence(t *testing.T) {
	for _, wl := range workloads {
		a, b := sequence(t, wl, 7), sequence(t, wl, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different operation sequences", wl)
		}
		if bytes.Equal(a, sequence(t, wl, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", wl)
		}
	}
}

func TestMissQueriesAreDistinctAndNonEmpty(t *testing.T) {
	w := newWorld(wlQueryMiss, 3)
	seen := make(map[string]bool)
	for i := uint64(0); i < 20000; i++ {
		o := w.opAt(i)
		if o.Kind != opMiss || len(o.Keywords) < missKeywords {
			t.Fatalf("op %d: %+v is not a %d-keyword miss query", i, o, missKeywords)
		}
		src := w.querySrc(o.Keywords, o.Filter)
		if seen[src] {
			t.Fatalf("op %d repeats query %s", i, src)
		}
		seen[src] = true
		if len(w.expectedEntries(o.Keywords, o.Filter)) == 0 {
			t.Fatalf("op %d: %s has an empty answer", i, src)
		}
	}
}

func TestCheckAnswer(t *testing.T) {
	w := newWorld(wlQueryMiss, 5)
	o := w.opAt(0)
	entries := w.expectedEntries(o.Keywords, o.Filter)
	if err := w.checkAnswer(o.Keywords, o.Filter, entries); err != nil {
		t.Fatalf("expected answer rejected: %v", err)
	}
	body, err := ldif.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := ldif.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	wrong[1].Attrs[len(wrong[1].Attrs)-1].Value += "x"
	if w.checkAnswer(o.Keywords, o.Filter, wrong) == nil {
		t.Error("an answer with a wrong attribute value was accepted")
	}
	if w.checkAnswer(o.Keywords, o.Filter, entries[:len(entries)-1]) == nil {
		t.Error("an answer missing an entry was accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(def.Name) || !unitRE.MatchString(def.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", def.Name, def.Unit)
		}
		if seen[def.Name] {
			t.Errorf("metric %q defined twice", def.Name)
		}
		seen[def.Name] = true
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %q: better is %q", def.Name, def.Better)
		}
	}
}

// TestLayerMap checks that every per-layer metric names the end-to-end
// metrics it should move and where its layer works, and that
// BENCHMARK.json lists exactly the metrics the benchmark reports.
func TestLayerMap(t *testing.T) {
	e2e := make(map[string]metricDef)
	for _, def := range endToEnd {
		e2e[def.Name] = def
	}
	layers := make(map[string]metricDef)
	for _, def := range perLayer {
		layers[def.Name] = def
		if def.Works == "" {
			t.Errorf("%s: no workload where its layer works", def.Name)
		}
		if len(def.Moves) == 0 && def.Name != "telemetry.trace_overhead_ratio" {
			t.Errorf("%s: moves no end-to-end metric", def.Name)
		}
		for _, m := range def.Moves {
			if _, ok := e2e[m]; !ok {
				t.Errorf("%s: moves unknown end-to-end metric %q", def.Name, m)
			}
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, listed []struct{ Name, Unit, Better string }, defs map[string]metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(listed), kind, len(defs))
		}
		for _, m := range listed {
			def, ok := defs[m.Name]
			if !ok || def.Unit != m.Unit || def.Better != m.Better {
				t.Errorf("BENCHMARK.json %s metric %+v does not match the benchmark's %+v", kind, m, def)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, e2e)
	compare("per_layer", bj.PerLayer, layers)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range bj.Workloads {
		if i < len(workloads) && wl.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, wl.Name, workloads[i])
		}
	}
}

// TestPartition checks that span shares add up to the operation's
// duration, that a parent keeps only the time its children leave
// uncovered, and that parallel children split the time they overlap.
func TestPartition(t *testing.T) {
	t0 := time.Now()
	mk := func(id, parent telemetry.SpanID, name string, from, to int) *node {
		return &node{rec: telemetry.SpanRecord{ID: id, Parent: parent, Name: name,
			Start: t0.Add(time.Duration(from) * time.Microsecond), Duration: time.Duration(to-from) * time.Microsecond}}
	}
	nodes := []*node{
		mk(1, 0, "op:miss", 0, 100),
		mk(2, 1, "client.roundtrip", 10, 90),
		mk(3, 2, "request:SUBMIT", 20, 80),
		mk(4, 3, "provider.collect", 30, 60),
		mk(5, 3, "provider.collect", 40, 70),
	}
	if got := setDepths(nodes, 1); len(got) != len(nodes) {
		t.Fatalf("resolved %d of %d spans", len(got), len(nodes))
	}
	partition(nodes, t0, t0.Add(100*time.Microsecond))
	want := []time.Duration{20, 20, 20, 20, 20} // in µs
	var total time.Duration
	for i, n := range nodes {
		total += n.share
		if n.share != want[i]*time.Microsecond {
			t.Errorf("%s: share %s, want %dµs", n.rec.Name, n.share, want[i])
		}
	}
	if total != 100*time.Microsecond {
		t.Errorf("shares add up to %s, want 100µs", total)
	}
	if got := setDepths([]*node{mk(1, 0, "op", 0, 1), mk(2, 9, "orphan", 0, 1), mk(3, 2, "child", 0, 1)}, 1); len(got) != 1 {
		t.Errorf("resolved %d spans, want only the root: spans under a missing parent must be dropped", len(got))
	}
}

// TestReference checks that the host-speed reference runs on every pair
// and that slowdown scales by the mean of the two runs around a window.
func TestReference(t *testing.T) {
	r, err := newReference(2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	s, err := r.run(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := r.once(); err != nil || l <= 0 {
		t.Fatalf("one reference iteration: %s, %v", l, err)
	}
	if s.wall <= 0 || s.cpu <= 0 {
		t.Fatalf("reference sample %+v: every figure must be positive", s)
	}
	at := func(d time.Duration) refSample { return refSample{wall: d} }
	if got := slowdown(at(refNominal), at(3*refNominal), refWall); got != 2 {
		t.Fatalf("slowdown between nominal and three times nominal = %g, want 2", got)
	}
}
