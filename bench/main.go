// Command bench is the one benchmark of the whole stack: five workloads over
// an in-process 3-node cluster on seeded memnet, end-to-end metrics from an
// undecorated pass and a per-layer budget from a traced pass, every run
// checked by a correctness oracle. BENCHMARK.json at the repository root
// names it; README.md in this directory explains every metric.
//
//	go run ./bench -workload write_sat -seed 1 -seconds 20 -trace 0
//	go run ./bench -workload all -seed 1            # every workload, both passes
//	go run ./bench -compare dirA dirB               # verdict per workload x metric
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input: payloads, mix choices, arrival times, memnet delays")
		seconds = flag.Float64("seconds", 20, "measured window per pass, seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from the undecorated pass; 1: per-layer metrics from the traced pass")
		out     = flag.String("out", "bench/out", "directory for span files and saved results (and for the WAL where /dev/shm cannot be written)")
		commit  = flag.String("commit", "", "commit id to stamp rows with (default: the binary's VCS stamp)")
		compare = flag.Bool("compare", false, "compare the saved results under two directories: bench -compare dirA dirB")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare <dirA> <dirB>")
		}
		ok, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err.Error())
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// One process, at most 4 Ps: the numbers are for a small box, and more Ps
	// than cores only adds scheduler noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	// The client library logs every retried operation during a failover; the
	// benchmark counts them instead.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out, commit: *commit, passes: 8}
	var todo []workload
	for _, w := range workloads() {
		if w.name == *name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fatal(fmt.Sprintf("unknown workload %q (have: write_sat write_durable_rate read_mix gbcast_mix failover all)", *name))
	}
	passes := []bool{cfg.trace}
	if *name == "all" {
		passes = []bool{false, true}
	}
	failed := false
	for _, w := range todo {
		for _, traced := range passes {
			cfg.trace = traced
			res, err := runOne(w, cfg, os.Stdout)
			if err != nil {
				fatal(fmt.Sprintf("%s: %v", w.name, err))
			}
			failed = failed || !res.Correct
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runOne runs one pass of one workload, prints its lines and its result
// object (last), and saves both under cfg.out.
func runOne(w workload, cfg runCfg, stdout io.Writer) (result, error) {
	rep := newReport(w.name, stdout)
	if err := w.run(cfg, rep); err != nil {
		return result{}, err
	}
	st := newStamp(w.name, cfg)
	res, err := rep.finish(st)
	if err != nil {
		return res, err
	}
	return res, saveRun(cfg.out, st, res, rep.retries)
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}
