package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// The drift guard: every workload runs for a fraction of a second in both
// passes, and what it emits must be exactly what BENCHMARK.json names. It
// asserts names, units and finiteness, never speeds — under `go test ./...`
// the box is shared with every other package's tests.

func quickCfg(t *testing.T, name string, traced bool) runCfg {
	seconds := 0.3
	if name == "failover" {
		seconds = 1.0 // one trial: 0.375 s steady, a crash, 0.625 s after
	}
	return runCfg{seed: 7, seconds: seconds, trace: traced, out: t.TempDir(), commit: "test", passes: 1, quick: true, noProbes: true}
}

func runQuick(t *testing.T, w workload, cfg runCfg) *report {
	t.Helper()
	var out bytes.Buffer
	rep := newReport(w.name, &out)
	if err := w.run(cfg, rep); err != nil {
		t.Fatalf("%s (trace=%v): %v\n%s", w.name, cfg.trace, err, out.String())
	}
	if rep.violations != 0 || rep.failed != 0 {
		t.Errorf("%s (trace=%v): %d oracle violation(s), %d failed op(s)\n%s",
			w.name, cfg.trace, rep.violations, rep.failed, out.String())
	}
	// Every emitted metric is also a `workload metric value unit` line.
	for name := range rep.metrics {
		if !strings.Contains(out.String(), w.name+" "+name+" ") {
			t.Errorf("%s: metric %s has no output line", w.name, name)
		}
	}
	return rep
}

// checkMetrics asserts that got is exactly the named metrics, each once
// (emit flags duplicates), with its unit and a finite value.
func checkMetrics(t *testing.T, what string, rep *report, want []benchMetric) {
	t.Helper()
	for _, why := range rep.invalid {
		if strings.Contains(why, "emitted twice") || strings.Contains(why, "not finite") || strings.Contains(why, "not in perLayerDefs") {
			t.Errorf("%s: %s", what, why)
		}
	}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s of BENCHMARK.json was not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s is %v", what, m.Name, got.Value)
		}
	}
	if len(rep.metrics) != len(want) {
		for name := range rep.metrics {
			named := false
			for _, m := range want {
				named = named || m.Name == name
			}
			if !named {
				t.Errorf("%s: emitted metric %s is not in BENCHMARK.json", what, name)
			}
		}
	}
}

func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, w := range ws {
		plain := runQuick(t, w, quickCfg(t, w.name, false))
		checkMetrics(t, w.name+" --trace 0", plain, bf.EndToEnd)
		for _, m := range bf.EndToEnd {
			if v := plain.metrics[m.Name].Value; v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, m.Name, v)
			}
		}
		traced := runQuick(t, w, quickCfg(t, w.name, true))
		checkMetrics(t, w.name+" --trace 1", traced, bf.PerLayer)
		// A metric reads 0 on every workload that does not measure it.
		for _, d := range perLayerDefs {
			if v := traced.metrics[d.name].Value; d.on != nil && !slices.Contains(d.on, w.name) && v != 0 {
				t.Errorf("%s: per-layer metric %s = %v, but only %v measure it", w.name, d.name, v, d.on)
			}
		}
	}
}

// TestProbes runs the isolated probes once (the traced passes above skip
// them: they do not depend on the workload).
func TestProbes(t *testing.T) {
	pl := newPerLayer()
	cfg := runCfg{seed: 7, seconds: 0.3, out: t.TempDir()}
	if err := pl.probes(cfg, cfg.tracer(0), 100); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"transport.rtt_us", "rchannel.rtt_us", "rchannel.send_allocs",
		"eventq.pop_ns_backlog1", "eventq.pop_ns_backlog4096",
		"consensus.decide_us", "consensus.msgs_per_decision",
		"abcast.deliver_us", "rbcast.deliver_us",
		"replication.request_direct_us", "storage.disk_sync_us",
	} {
		if v := pl.values[name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("probe metric %s = %v, want a positive finite value", name, v)
		}
	}
}

// TestOracleBites proves the exit code is wired to something: a replica
// whose state machine drops one apply must fail the run.
func TestOracleBites(t *testing.T) {
	w := workloads()[0]
	cfg := quickCfg(t, w.name, false)
	cfg.dropApply = func(k opKey) bool { return k.client == 0 && k.seq == 40 }
	var out bytes.Buffer
	rep := newReport(w.name, &out)
	if err := w.run(cfg, rep); err != nil {
		t.Fatal(err)
	}
	if rep.violations == 0 || rep.result().Correct {
		t.Fatalf("a dropped apply went unnoticed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "misses 1 acked write") || !strings.Contains(out.String(), "diverge") {
		t.Errorf("expected a missing-write and a digest violation, got:\n%s", out.String())
	}
}

func TestDefsMatchBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, file []benchMetric) {
		if len(defs) != len(file) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(file))
			return
		}
		for i, d := range defs {
			if f := file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s metric %d: code has %v, BENCHMARK.json %v", kind, i, d, f)
			}
		}
	}
	check("end_to_end", endToEndDefs, bf.EndToEnd)
	check("per_layer", perLayerDefs, bf.PerLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > bf.bound("setup_s") {
			t.Errorf("end-to-end metric %s: bound %v above setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
}

// TestPerLayerDefs holds every per-layer metric to a layer, to workloads that
// measure it and to end-to-end metrics it should move, and the README to
// naming each of them.
func TestPerLayerDefs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names, e2e []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	for _, d := range endToEndDefs {
		e2e = append(e2e, d.name)
	}
	used := make(map[string]bool)
	for _, d := range perLayerDefs {
		used[d.layer()] = true
		if !slices.Contains(layers, d.layer()) {
			t.Errorf("%s: %q is not a layer", d.name, d.layer())
		}
		for _, w := range d.on {
			if !slices.Contains(names, w) {
				t.Errorf("%s: measured on %q, which is not a workload", d.name, w)
			}
		}
		for _, m := range d.moves {
			if !slices.Contains(e2e, m) {
				t.Errorf("%s: should move %q, which is not an end-to-end metric", d.name, m)
			}
		}
		if _, what, _ := strings.Cut(d.name, "."); !bytes.Contains(readme, []byte("`"+what+"`")) && !bytes.Contains(readme, []byte("`"+d.name+"`")) {
			t.Errorf("README.md does not name %s", d.name)
		}
	}
	for _, l := range layers {
		if !used[l] {
			t.Errorf("layer %s has no metric", l)
		}
	}
}

// plantFlip makes node 2 record one conflicting delivery as commuting: to the
// oracle, a node on another order with every message delivered once, which is
// what the seed code's generic-broadcast bug looks like. times bounds how
// many passes it hits.
func plantFlip(times int32) func(int, opKey) bool {
	var hits atomic.Int32
	return func(node int, k opKey) bool {
		return node == 2 && k.client == 0 && k.seq == 20 && hits.Add(1) <= times
	}
}

// TestGbcastRetryIsBoundedAndSaved: one violation with the known bug's
// signature costs one pass, is printed and is saved with the result; a second
// one fails the run.
func TestGbcastRetryIsBoundedAndSaved(t *testing.T) {
	w := workloads()[3]
	for _, c := range []struct {
		hits    int32
		correct bool
	}{{1, true}, {2, false}} {
		cfg := quickCfg(t, w.name, false)
		cfg.seconds = 0.15
		cfg.gbFlip = plantFlip(c.hits)
		var out bytes.Buffer
		res, err := runOne(w, cfg, &out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != c.correct {
			t.Errorf("%d planted violation(s): correct=%v, want %v\n%s", c.hits, res.Correct, c.correct, out.String())
		}
		if !strings.Contains(out.String(), "KNOWN BUG HIT") || !strings.Contains(out.String(), w.name+" oracle_retries 1 count") {
			t.Errorf("%d planted violation(s): the retry was not printed:\n%s", c.hits, out.String())
		}
		runs, err := loadRuns(cfg.out)
		if err != nil || runs[w.name] == nil || runs[w.name].retries != 1 {
			t.Errorf("%d planted violation(s): saved result does not carry the retry: %+v, %v", c.hits, runs[w.name], err)
		}
	}
}

// TestGbcastOracleVerdicts: only the known bug's signature may be retried.
func TestGbcastOracleVerdicts(t *testing.T) {
	type node struct {
		skip, dup, reorder bool
	}
	for _, c := range []struct {
		name       string
		nodes      [3]node
		violations bool
		known      bool
	}{
		{"clean", [3]node{}, false, false},
		{"one node on another order", [3]node{2: {reorder: true}}, true, true},
		{"one node stopped", [3]node{1: {skip: true}}, true, true},
		{"two nodes stopped", [3]node{0: {skip: true}, 1: {skip: true}}, true, false},
		{"two nodes on other orders", [3]node{0: {reorder: true}, 2: {skip: true}}, true, false},
		{"duplicate delivery", [3]node{2: {dup: true}}, true, false},
	} {
		var oracles []*gbOracle
		for _, n := range c.nodes {
			o := newGbOracle()
			seqs := []uint64{1, 2, 3, 4}
			if n.reorder {
				seqs = []uint64{1, 3, 2, 4}
			}
			if n.skip {
				seqs = seqs[:2]
			}
			for _, seq := range seqs {
				o.deliver(opKey{client: 0, seq: seq}, true, seq == 3) // 3 is the conflicting one
			}
			if n.dup {
				o.deliver(opKey{client: 0, seq: 4}, true, false)
			}
			oracles = append(oracles, o)
		}
		v := checkGbcast(oracles, 4)
		if (v.violations > 0) != c.violations || v.knownBug != c.known {
			t.Errorf("%s: violations=%d knownBug=%v, want violations=%v knownBug=%v (%v)",
				c.name, v.violations, v.knownBug, c.violations, c.known, v.notes)
		}
	}
}

// TestCompareRefusesTaintedRuns: numbers from a run that was wrong, that
// failed operations the other side did not, or that needed a retry do not
// earn an ok.
func TestCompareRefusesTaintedRuns(t *testing.T) {
	bench := filepath.Join("..", "BENCHMARK.json")
	bf, err := loadBenchmarkFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	side := func(taint func(seed int64, r *savedRun)) string {
		dir := t.TempDir()
		for _, w := range bf.Workloads {
			for seed := int64(1); seed <= 3; seed++ {
				run := savedRun{Stamp: stamp{Workload: w.Name, Seed: seed},
					Result: result{Correct: true, Attempted: 100, Metrics: map[string]metric{}}}
				for _, m := range bf.EndToEnd {
					run.Result.Metrics[m.Name] = metric{Value: 10 + float64(seed)/100, Unit: m.Unit}
				}
				if taint != nil && w.Name == "gbcast_mix" {
					taint(seed, &run)
				}
				if err := saveRun(dir, run.Stamp, run.Result, run.OracleRetries); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	clean := side(nil)
	once := func(f func(*savedRun)) func(int64, *savedRun) {
		return func(seed int64, r *savedRun) {
			if seed == 2 {
				f(r)
			}
		}
	}
	for _, c := range []struct {
		verdict string
		ok      bool
		taint   func(int64, *savedRun)
	}{
		{"", true, nil},
		{"incorrect", false, once(func(r *savedRun) { r.Result.Correct = false })},
		{"worse", false, once(func(r *savedRun) { r.Result.Failed = 1 })},
		{"retried", false, once(func(r *savedRun) { r.OracleRetries = 1 })},
		// 5 % more allocations on every run: inside any bound, far outside
		// the 0.2 % these runs spread.
		{"ok, but moved", true, func(_ int64, r *savedRun) {
			m := r.Result.Metrics["allocs_per_op"]
			m.Value *= 1.05
			r.Result.Metrics["allocs_per_op"] = m
		}},
	} {
		var out bytes.Buffer
		ok, err := compareDirs(&out, clean, side(c.taint), bench)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("want verdict %q, ok=%v: got ok=%v\n%s", c.verdict, c.ok, ok, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
