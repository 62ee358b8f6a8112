package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// bound returns the named end-to-end metric's bound (0: no such metric).
func (bf benchmarkFile) bound(name string) float64 {
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// quartiles is Python's statistics.quantiles(values, n=4) (the exclusive
// method), so the spread printed here is the one the acceptance rule uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sideRuns is what one directory holds for one workload: each end-to-end
// metric's values over the saved untraced runs, and the runs that cannot
// stand as evidence whatever their numbers say.
type sideRuns struct {
	values  map[string][]float64
	runs    int
	wrong   int    // runs saved with correct=false
	failed  uint64 // failed operations over all runs
	retries uint64 // gbcast_mix passes measured again after an oracle violation
}

// loadRuns collects, per workload, every untraced result saved under dir.
func loadRuns(dir string) (map[string]*sideRuns, error) {
	runs := make(map[string]*sideRuns)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "result-") || !strings.HasSuffix(d.Name(), ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var run savedRun
		if err := json.Unmarshal(data, &run); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if run.Stamp.Trace {
			return nil // per-layer metrics carry no bound
		}
		w := runs[run.Stamp.Workload]
		if w == nil {
			w = &sideRuns{values: make(map[string][]float64)}
			runs[run.Stamp.Workload] = w
		}
		w.runs++
		if !run.Result.Correct {
			w.wrong++
		}
		w.failed += run.Result.Failed
		w.retries += run.OracleRetries
		for name, m := range run.Result.Metrics {
			w.values[name] = append(w.values[name], m.Value)
		}
		return nil
	})
	return runs, err
}

// compareDirs prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict against the metric's bound:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  a side's own spread (q3-q1 over its median) exceeds the
//	            bound, so the runs cannot tell
//
// An ok whose worsening is more than twice the larger spread says so: one
// bound per metric has to hold on its noisiest workload, and on a quiet one
// a change far inside it is still no noise.
//
// and per workload a correctness row, the two absolute gates the issue
// listed as fail_frac and oracle_violations (bound 0): not ok when a side
// has a run saved with correct=false, when B failed more operations than A,
// or when either side measured a gbcast_mix pass again after an oracle
// violation. It reports whether every row came out ok.
func compareDirs(w io.Writer, dirA, dirB, benchmarkPath string) (bool, error) {
	bf, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	allOK := true
	const row = "%-20s %-14s %5s %36s %36s %8s %7s  %s\n"
	fmt.Fprintf(w, row, "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A", "spread", "verdict")
	for _, wl := range bf.Workloads {
		sa, sb := a[wl.Name], b[wl.Name]
		if sa == nil || sb == nil {
			fmt.Fprintf(w, row, wl.Name, "*", "", "-", "-", "-", "-", "missing")
			allOK = false
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := sa.values[m.Name], sb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, row, wl.Name, m.Name, fmt.Sprintf("%.2f", m.Bound), "-", "-", "-", "-", "missing")
				allOK = false
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := (b2 - a2) / a2 // positive = B larger
			if m.Better == "higher" {
				change = -change
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
			}
			allOK = allOK && verdict == "ok"
			if verdict == "ok" && change > 2*spread {
				// Within the bound, yet no run-to-run noise: the reader of a
				// change that claims "no effect here" should see it.
				verdict = fmt.Sprintf("ok, but moved %.1fx the spread", change/spread)
			}
			fmt.Fprintf(w, row, wl.Name, m.Name, fmt.Sprintf("%.2f", m.Bound),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", a2, a1, a3, len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", b2, b1, b3, len(vb)),
				fmt.Sprintf("%+.1f%%", 100*change), fmt.Sprintf("%.1f%%", 100*spread), verdict)
		}
		verdict := "ok"
		switch {
		case sa.wrong > 0 || sb.wrong > 0:
			verdict = "incorrect"
		case sb.failed > sa.failed:
			verdict = "worse"
		case sa.retries > 0 || sb.retries > 0:
			verdict = "retried"
		}
		allOK = allOK && verdict == "ok"
		side := func(s *sideRuns) string {
			return fmt.Sprintf("%d wrong, %d failed ops, %d retried (%d)", s.wrong, s.failed, s.retries, s.runs)
		}
		fmt.Fprintf(w, row, wl.Name, "correctness", "0", side(sa), side(sb), "", "", verdict)
	}
	return allOK, nil
}
