package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// metric is one named value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp makes rows comparable: everything a number depends on besides the
// code under test. It is printed as its own line (the result object's keys
// are fixed) and saved next to the result.
type stamp struct {
	Workload     string  `json:"workload"`
	Trace        bool    `json:"trace"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Connections  int     `json:"connections"`
	Pipeline     int     `json:"pipeline_depth"`
	NetDelayUS   [2]int  `json:"net_delay_us"`
	SyncDelayUS  int     `json:"sync_delay_us"`
	StorageMedia string  `json:"storage_medium"`
}

func newStamp(workload string, cfg runCfg) stamp {
	medium := "none: no storage engine on this workload"
	if workload == durableWorkload {
		_, medium = walBase(cfg.out)
	}
	return stamp{
		Workload: workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Commit: commitID(cfg.commit), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Connections: loadClients, Pipeline: loadDepth,
		NetDelayUS:   [2]int{int(netDelayMin.Microseconds()), int(netDelayMax.Microseconds())},
		SyncDelayUS:  int(syncDelay.Microseconds()),
		StorageMedia: medium,
	}
}

// commitID prefers the flag (pairs.sh passes git rev-parse), then the VCS
// stamp of a `go build` binary; `go run` in an exported tree has neither.
func commitID(flag string) string {
	if flag != "" {
		return flag
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// report collects one run's metrics and prints each as
// `workload metric value unit` the moment it is known.
type report struct {
	workload   string
	w          io.Writer
	metrics    map[string]metric
	attempted  uint64
	failed     uint64
	violations uint64
	// retries counts passes measured again after the known generic-broadcast
	// bug (gbcast_mix only, at most gbMaxRetries): saved with the result so
	// that -compare can refuse to call such a side ok.
	retries uint64
	invalid []string // reasons the run does not count (backlog, generator lag)
}

func newReport(workload string, w io.Writer) *report {
	return &report{workload: workload, w: w, metrics: make(map[string]metric)}
}

// emit records a metric of the result object.
func (r *report) emit(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.invalid = append(r.invalid, fmt.Sprintf("metric %s is not finite", name))
		v = 0
	}
	if _, dup := r.metrics[name]; dup {
		r.invalid = append(r.invalid, fmt.Sprintf("metric %s emitted twice", name))
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "%s %s %.6g %s\n", r.workload, name, v, unit)
}

// info prints a value that is not part of the result object (sample counts,
// the zero-valued health numbers the contract keeps out of the metrics).
func (r *report) info(name string, v float64, unit string) {
	fmt.Fprintf(r.w, "%s %s %.6g %s\n", r.workload, name, v, unit)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

func (r *report) violate(n uint64, notes []string) {
	r.violations += n
	for _, s := range notes {
		r.note("ORACLE: %s", s)
	}
}

func (r *report) result() result {
	return result{
		Correct:   r.violations == 0 && r.failed == 0 && len(r.invalid) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// finish prints the health lines, the stamp and the result object (last),
// and saves stamp+result under the output directory for -compare.
func (r *report) finish(st stamp) (result, error) {
	res := r.result()
	r.info("oracle_violations", float64(r.violations), "count")
	r.info("oracle_retries", float64(r.retries), "count")
	r.info("fail_frac", float64(r.failed)/float64(res.Attempted), "frac")
	for _, why := range r.invalid {
		r.note("INVALID: %s", why)
	}
	stampLine, err := json.Marshal(map[string]stamp{"stamp": st})
	if err != nil {
		return res, err
	}
	fmt.Fprintln(r.w, string(stampLine))
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(r.w, string(line))
	return res, nil
}

// savedRun is the file format -compare reads. The result object's keys are
// fixed, so what else a comparison must know rides beside it.
type savedRun struct {
	Stamp         stamp  `json:"stamp"`
	Result        result `json:"result"`
	OracleRetries uint64 `json:"oracle_retries"`
}

func saveRun(dir string, st stamp, res result, retries uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if st.Trace {
		t = 1
	}
	data, err := json.MarshalIndent(savedRun{Stamp: st, Result: res, OracleRetries: retries}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-trace%d-seed%d.json", st.Workload, t, st.Seed)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
