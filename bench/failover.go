package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/proc"
)

// failover is the Section 4.3 responsiveness workload: an open loop of 1000
// writes/s keeps arriving on schedule while the primary is crashed, so the
// time without service is counted rather than skipped. Each trial is a fresh
// cluster with default core.Config timings, monitoring on and primary
// failover at failoverSuspicion; the window is split into trials of
// pre-crash steady state followed by a post-crash stretch long enough to see
// the exclusion and the view change as well.

const (
	failoverRate   = 1000
	failoverTrials = 6
	failoverWarm   = 200 // ops completed before a trial's window opens
)

// trialPlan splits the measured seconds into trials of (pre, post).
func trialPlan(window time.Duration) (trials int, pre, post time.Duration) {
	trials = failoverTrials
	if window < 6*time.Second {
		trials = 1 // the drift guard's short run
	}
	per := window / time.Duration(trials)
	pre = per * 3 / 8
	return trials, pre, per - pre
}

// trial is what one crash yields.
type trial struct {
	setup     time.Duration
	samples   []sample
	lagNs     []int64
	t0, tc    int64 // window start, crash time
	t1        int64
	u0, u1    usage
	outageMs  float64
	falseSusp float64 // primary changes before the crash
	// stages (traced trials only), ms
	detect, change, client, exclude, view float64
	views                                 float64
	startMs                               float64
	c0, c1                                counters
	rssMB                                 float64
}

func runFailover(cfg runCfg, rep *report) error {
	trials, pre, post := trialPlan(cfg.window())
	var (
		all      []trial
		lagNs    []int64
		lastTr   *tracer
		setups   []float64
		pooled   e2e
		outages  []float64
		rss      []float64
		cpu      time.Duration
		mallocs  uint64
		duration float64
	)
	for i := 0; i < trials; i++ {
		var tr *tracer
		if cfg.trace {
			tr = cfg.tracer(0)
			lastTr = tr
		}
		t, err := runTrial(cfg, int64(i), pre, post, tr, rep)
		if err != nil {
			return fmt.Errorf("failover trial %d: %w", i, err)
		}
		all = append(all, t)
		setups = append(setups, t.setup.Seconds())
		outages = append(outages, t.outageMs)
		rss = append(rss, t.rssMB)
		lagNs = append(lagNs, t.lagNs...)
		// Latency is the pre-crash steady segment; throughput, CPU and
		// allocations cover the whole trial, outage included.
		steady := summarize(t.samples, t.t0, t.tc, t.u0, t.u1, nil)
		whole := summarize(t.samples, t.t0, t.t1, t.u0, t.u1, nil)
		pooled.lat = append(pooled.lat, steady.lat...)
		pooled.attempted += whole.attempted
		pooled.failed += whole.failed
		pooled.completed += whole.completed
		cpu += t.u1.cpu - t.u0.cpu
		mallocs += t.u1.mallocs - t.u0.mallocs
		duration += float64(t.t1-t.t0) / 1e9
	}
	sort.Float64s(pooled.lat)
	pooled.p50, pooled.p99 = sortedQuantile(pooled.lat, 0.50), sortedQuantile(pooled.lat, 0.99)
	pooled.opsPerS = float64(pooled.completed) / duration
	pooled.cpuUsPerOp = float64(cpu) / 1e3 / float64(pooled.completed)
	pooled.allocsPerOp = float64(mallocs) / float64(pooled.completed)
	pooled.outageMs = median(outages)
	pooled.rssMB = median(rss)
	rep.info("failover_trials", float64(trials), "count")
	lag := checkGenerator(rep, lagNs, cfg.trace)
	if !cfg.trace {
		emitE2E(rep, pooled, setups)
		return nil
	}
	rep.attempted += pooled.attempted
	rep.failed += pooled.failed

	col := func(f func(trial) float64) float64 { return medianOf(all, f) }
	pl := newPerLayer()
	pl.set("loadgen.sched_lag_p99_us", lag)
	pl.set("fd.detect_ms", col(func(t trial) float64 { return t.detect }))
	pl.set("replication.primary_change_ms", col(func(t trial) float64 { return t.change }))
	pl.set("service.failover_client_ms", col(func(t trial) float64 { return t.client }))
	pl.set("monitoring.exclude_ms", col(func(t trial) float64 { return t.exclude }))
	pl.set("membership.view_ms", col(func(t trial) float64 { return t.view }))
	pl.set("membership.view_changes", col(func(t trial) float64 { return t.views }))
	pl.set("fd.false_suspicions", col(func(t trial) float64 { return t.falseSusp }))
	pl.set("core.start_ms", col(func(t trial) float64 { return t.startMs }))
	sum := pl.values["fd.detect_ms"] + pl.values["replication.primary_change_ms"] + pl.values["service.failover_client_ms"]
	rep.note("failover stages: detect %.1f + primary change %.1f + client %.1f = %.1f ms; outage %.1f ms (residual %.1f%%)",
		pl.values["fd.detect_ms"], pl.values["replication.primary_change_ms"], pl.values["service.failover_client_ms"],
		sum, pooled.outageMs, 100*(pooled.outageMs-sum)/pooled.outageMs)
	pl.set("loadgen.budget_residual_frac", abs(pooled.outageMs-sum)/pooled.outageMs)
	// Counts and captured frames are the last trial's.
	last := all[len(all)-1]
	whole := summarize(last.samples, last.t0, last.t1, last.u0, last.u1, nil)
	pl.counts(last.c0, last.c1, whole.completed, float64(last.t1-last.t0)/1e9)
	pl.traced(lastTr)
	if err := pl.probes(cfg, lastTr, pooled.cpuUsPerOp); err != nil {
		return err
	}
	pl.emit(rep)
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func runTrial(cfg runCfg, n int64, pre, post time.Duration, tr *tracer, rep *report) (trial, error) {
	var t trial
	start := time.Now()
	c, err := buildCluster(clusterOpts{seed: cfg.seed*31 + n, failover: true, tr: tr})
	if err != nil {
		return t, err
	}
	defer c.stop()
	t.startMs = c.startMs
	g, err := newLoadgen(c, loadOpts{seed: cfg.seed*31 + n, rate: failoverRate,
		capHint: int(failoverRate*(pre+post).Seconds()) + 1024})
	if err != nil {
		return t, err
	}
	defer g.close()
	g.start()
	if err := g.waitCompleted(cfg.warm(failoverWarm), 20*time.Second); err != nil {
		g.stop()
		return t, err
	}
	t.setup = time.Since(start)

	if tr != nil {
		tr.startCapture()
	}
	t.c0, t.u0, t.t0 = c.counters(g), readUsage(), g.now()
	t.rssMB = sleepWatchingRSS(pre)
	victim := c.reps[1].Primary()
	vi := -1
	var live []int
	for i, id := range c.members {
		if id == victim {
			vi = i
		} else {
			live = append(live, i)
		}
	}
	if vi < 0 {
		g.stop()
		return t, fmt.Errorf("no primary to crash (replica 1 believes %q)", victim)
	}
	if vi != 0 {
		t.falseSusp = float64(c.reps[live[0]].Epoch())
	}
	var obs *crashObserver
	if tr != nil {
		obs = observeCrash(c, tr, live[0], victim)
	}
	t.tc = g.now()
	if tr != nil {
		tr.armed.Store(t.tc)
	}
	c.net.Crash(victim)
	t.rssMB = max(t.rssMB, sleepWatchingRSS(post))
	t.t1, t.u1, t.c1 = g.now(), readUsage(), c.counters(g)
	g.stop()
	t.samples, t.lagNs = g.all()
	var detect, exclude, view, views int64
	if obs != nil {
		detect, exclude, view, views = obs.stop()
	}

	// Outage: from the crash to the first acknowledgement of an operation
	// that was due after it.
	first := int64(-1)
	for _, s := range t.samples {
		if s.ok && s.start >= t.tc && (first < 0 || s.end < first) {
			first = s.end
		}
	}
	if first < 0 {
		return t, fmt.Errorf("no operation due after the crash was ever acknowledged")
	}
	t.outageMs = float64(first-t.tc) / 1e6

	// Oracle: every acknowledged write — the pre-crash ones above all —
	// survives at both survivors, exactly once, in the same order.
	acked := ackedWritesList(t.samples)
	c.quiesce(live, uint64(len(acked)))
	var sms []*oracleSM
	var names []string
	for _, i := range live {
		sms = append(sms, c.sms[i])
		names = append(names, string(c.members[i]))
	}
	rep.violate(checkReplicas(sms, names, acked))
	if n := g.badEcho.Load(); n > 0 {
		rep.violate(n, []string{fmt.Sprintf("%d result(s) did not echo their request", n)})
	}

	if obs != nil {
		ms := func(at int64) float64 {
			if at == 0 {
				return 0
			}
			return float64(at-t.tc) / 1e6
		}
		changeAt := int64(0)
		for _, i := range live {
			if at := tr.change[i].Load(); at != 0 && (changeAt == 0 || at < changeAt) {
				changeAt = at
			}
		}
		t.detect, t.exclude, t.view, t.views = ms(detect), ms(exclude), ms(view), float64(views)
		if detect != 0 && changeAt != 0 {
			t.change = float64(changeAt-detect) / 1e6
			t.client = float64(first-changeAt) / 1e6
		}
	}
	return t, nil
}

// crashObserver watches one survivor for the stages of a failover, all as
// times on the tracer's clock (0 = never seen).
type crashObserver struct {
	stopCh chan struct{}
	done   chan struct{}
	// Written by the observer goroutine, read after done is closed.
	detect  int64 // suspicion event on a bench-owned failover-timeout subscription
	exclude int64 // Monitor().Excluded(victim)
	view    int64 // first view without the victim
	views   int64 // view changes seen (the initial OnView call not counted)
}

func observeCrash(c *cluster, tr *tracer, survivor int, victim proc.ID) *crashObserver {
	o := &crashObserver{stopCh: make(chan struct{}), done: make(chan struct{})}
	nd := c.nodes[survivor]
	sub := nd.FailureDetector().Subscribe(failoverSuspicion)
	viewCh := make(chan int64, 64) // view changes per trial are a handful
	nd.OnView(func(v proc.View) {
		at := int64(0)
		if !v.Contains(victim) {
			at = tr.now()
		}
		select {
		case viewCh <- at:
		default:
		}
	})
	go func() {
		defer close(o.done)
		defer sub.Close()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case ev := <-sub.Events():
				if ev.Peer == victim && ev.Suspected && o.detect == 0 {
					o.detect = tr.now()
				}
			case at := <-viewCh:
				o.views++
				if at != 0 && o.view == 0 {
					o.view = at
				}
			case <-tick.C:
				if o.exclude == 0 && nd.Monitor().Excluded(victim) {
					o.exclude = tr.now()
				}
			case <-o.stopCh:
				o.views-- // OnView delivered the current view on registration
				return
			}
		}
	}()
	return o
}

func (o *crashObserver) stop() (detect, exclude, view, views int64) {
	close(o.stopCh)
	<-o.done
	return o.detect, o.exclude, o.view, o.views
}
