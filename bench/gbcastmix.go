package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gbcast"
	"repro/internal/replication"
)

// gbcast_mix drives the paper's own interface: raw Node.Gbcast on a 3-node
// group under the bank relation of Section 4.2. Two senders on two different
// nodes keep gbDepth messages outstanding each; 90 % go out in the commuting
// class (deposit: the fast path), 10 % in the conflicting class (withdraw:
// the ordered path). An operation completes when its own node delivers it.
//
// gbDepth is 8, not the 32 the service workloads pipeline: at 32 the group
// sits in a retransmission storm (thousands of retransmits per pass, delivery
// latency = the channel's RTO) for 10 % more throughput, so the latency
// metrics would measure rchannel's timer, not generic broadcast. The depth is
// NOT a cure for the bug below: it was seen at both depths, at rates that
// cannot be told apart (4 of ~100 runs at 32, 1 of 45 at 8).

const (
	gbSenders      = 2
	gbDepth        = 8
	gbConflictFrac = 0.10
	gbMaxRetries   = 1         // set to 0 once the bug is fixed
	gbRingMask     = 1<<12 - 1 // in-flight start times, indexed by seq
)

type gbSender struct {
	node    int
	tokens  chan struct{} // one per outstanding message
	starts  [gbRingMask + 1]atomic.Int64
	sent    atomic.Uint64
	samples []sample // appended by the node's delivery goroutine only
}

type gbRun struct {
	c        *gbCluster
	epoch    time.Time
	senders  [gbSenders]*gbSender
	oracles  []*gbOracle
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	errs     atomic.Uint64
	setup    time.Duration
	// flip, when set, makes the oracle record the matching delivery under the
	// other class: the drift guard's way to plant an order violation.
	flip func(node int, k opKey) bool
}

func (r *gbRun) stopSending() { r.stopOnce.Do(func() { close(r.stopCh) }) }

func (r *gbRun) now() int64 { return int64(time.Since(r.epoch)) }

func setUpGbcast(cfg runCfg, tr *tracer, window time.Duration) (*gbRun, error) {
	start := time.Now()
	r := &gbRun{epoch: start, stopCh: make(chan struct{}), flip: cfg.gbFlip,
		oracles: []*gbOracle{newGbOracle(), newGbOracle(), newGbOracle()}}
	if tr != nil {
		r.epoch = tr.epoch
	}
	for i := range r.senders {
		r.senders[i] = &gbSender{
			node: i, tokens: make(chan struct{}, gbDepth),
			samples: make([]sample, 0, int(15000*window.Seconds())+4096),
		}
	}
	c, err := buildGbCluster(cfg.seed, replication.BankRelation(), tr, r.onDeliver)
	if err != nil {
		return nil, err
	}
	r.c = c
	for _, s := range r.senders {
		r.wg.Add(1)
		go r.send(s, cfg.seed)
	}
	deadline := time.Now().Add(20 * time.Second)
	for r.completed() < cfg.warm(3000) {
		if time.Now().After(deadline) || r.errs.Load() > 0 {
			r.tearDown()
			return nil, fmt.Errorf("gbcast_mix warm-up: %d deliveries, %d errors", r.completed(), r.errs.Load())
		}
		time.Sleep(200 * time.Microsecond)
	}
	r.setup = time.Since(start)
	return r, nil
}

// completed counts messages delivered back at their senders. The sample
// slices belong to the delivery goroutines, so it is derived from the tokens.
func (r *gbRun) completed() uint64 {
	var n uint64
	for _, s := range r.senders {
		n += s.sent.Load() - uint64(len(s.tokens))
	}
	return n
}

func (r *gbRun) send(s *gbSender, seed int64) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(seed*1000003 + int64(s.node)))
	for {
		select {
		case s.tokens <- struct{}{}:
		case <-r.stopCh:
			return
		}
		k := opKey{client: uint32(s.node), seq: s.sent.Load() + 1}
		body := newPayload(rng) // retained by the stack until delivered
		putKey(body, k)
		class := replication.ClassDeposit
		if rng.Float64() < gbConflictFrac {
			class = replication.ClassWithdraw
		}
		s.starts[k.seq&gbRingMask].Store(r.now())
		s.sent.Add(1)
		if err := r.c.nodes[s.node].Gbcast(class, body); err != nil {
			r.errs.Add(1)
			<-s.tokens
		}
	}
}

// onDeliver runs on node's delivery goroutine: it feeds the oracle and, for
// the node's own messages, completes the operation.
func (r *gbRun) onDeliver(node int, d gbcast.Delivery) {
	body, _ := d.Body.([]byte)
	k, ok := keyAt(body)
	conflicting := d.Class == replication.ClassWithdraw
	r.oracles[node].deliver(k, ok, conflicting != (r.flip != nil && ok && r.flip(node, k)))
	if !ok || int(k.client) != node || node >= gbSenders {
		return
	}
	s := r.senders[node]
	s.samples = append(s.samples, sample{
		start: s.starts[k.seq&gbRingMask].Load(), end: r.now(),
		seq: k.seq, client: k.client, read: conflicting, ok: true,
	})
	<-s.tokens
}

// drain stops the senders, waits until every node delivered every message
// and runs the oracle.
func (r *gbRun) drain() gbVerdict {
	r.stopSending()
	r.wg.Wait()
	var sent uint64
	for _, s := range r.senders {
		sent += s.sent.Load()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		settled := true
		for _, o := range r.oracles {
			settled = settled && o.state().delivered >= sent
		}
		if settled {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return checkGbcast(r.oracles, sent)
}

func (r *gbRun) tearDown() {
	r.stopSending()
	r.wg.Wait()
	r.c.stop()
}

// gbPass is one measured window on one fresh group.
type gbPass struct {
	setup   time.Duration
	startMs float64
	samples []sample
	t0, t1  int64
	c0, c1  counters
	e       e2e
}

// measureGbPass measures one pass under the workload's one tolerance. Generic
// broadcast on seed code has a rare ordering/liveness bug (README, "A bug the
// oracle found"): about one 20 s run in fifty ends with one node on a
// different order, or stopped. The gate runs this workload dozens of times
// per change and would fail half of all changes on a bug they did not write,
// so ONE pass per run may be measured again — only when the violation has
// that bug's signature (gbVerdict.knownBug), never silently: the hit is
// printed, the run's saved result carries oracle_retries, and -compare
// refuses to call a side with a retry ok. Any other violation, and a second
// one of this kind in the same run, fails the run.
//
// mkTracer (nil for an undecorated pass) is called per attempt so a repeated
// pass does not inherit the discarded one's samples.
func measureGbPass(rep *report, cfg runCfg, mkTracer func() *tracer, window time.Duration) (*gbPass, *tracer, error) {
	for {
		var tr *tracer
		if mkTracer != nil {
			tr = mkTracer()
		}
		r, err := setUpGbcast(cfg, tr, window)
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			tr.startCapture()
		}
		p := &gbPass{setup: r.setup, startMs: r.c.startMs}
		p.c0 = stackCounters(r.c.net, r.c.nodes)
		u0 := readUsage()
		p.t0 = r.now()
		rss := sleepWatchingRSS(window)
		p.t1 = r.now()
		u1 := readUsage()
		p.c1 = stackCounters(r.c.net, r.c.nodes)
		v := r.drain()
		r.tearDown()
		rep.failed += r.errs.Load()
		if v.violations > 0 && v.knownBug && rep.retries < gbMaxRetries {
			rep.retries++
			for _, n := range v.notes {
				rep.note("KNOWN BUG HIT, pass discarded and measured again: %s", n)
			}
			cfg.seed += 7919 // other inputs for the repeat
			continue
		}
		rep.violate(v.violations, v.notes)
		p.samples = r.samplesAll()
		p.e = summarize(p.samples, p.t0, p.t1, u0, u1, nil)
		p.e.rssMB = rss
		return p, tr, nil
	}
}

// samplesAll is safe once the cluster has stopped delivering.
func (r *gbRun) samplesAll() []sample {
	var out []sample
	for _, s := range r.senders {
		out = append(out, s.samples...)
	}
	return out
}

func runGbcast(cfg runCfg, rep *report) error {
	if cfg.trace {
		return runGbcastTraced(cfg, rep)
	}
	var (
		setups []float64
		passes []e2e
	)
	// Half the passes of the service workloads: a set-up here takes over a
	// second (3000 messages through the ordered path).
	cfg.passes = max(cfg.passes/2, 1)
	for i := 0; i < cfg.passes; i++ {
		pc := cfg.passCfg(i)
		p, _, err := measureGbPass(rep, pc, nil, pc.window())
		if err != nil {
			return err
		}
		setups = append(setups, p.setup.Seconds())
		passes = append(passes, p.e)
	}
	emitE2E(rep, medianE2E(passes), setups)
	return nil
}

func runGbcastTraced(cfg runCfg, rep *report) error {
	// As runServiceTraced: the tracer's memory and one discarded set-up come
	// before both passes, so neither runs colder than the other.
	first := cfg.tracer(0)
	if !cfg.quick {
		warm, err := setUpGbcast(cfg, nil, 0)
		if err != nil {
			return err
		}
		warm.tearDown()
	}
	plain, _, err := measureGbPass(rep, cfg, nil, cfg.window()*3/10)
	if err != nil {
		return err
	}
	mkTracer := func() *tracer {
		if tr := first; tr != nil {
			first = nil
			return tr
		}
		return cfg.tracer(0)
	}
	p, tr, err := measureGbPass(rep, cfg, mkTracer, cfg.window()*7/10)
	if err != nil {
		return err
	}
	rep.attempted += plain.e.attempted + p.e.attempted

	pl := newPerLayer()
	pl.set("gbcast.oracle_retries", float64(rep.retries))
	pl.set("loadgen.trace_overhead_frac", 1-p.e.opsPerS/plain.e.opsPerS)
	pl.set("core.start_ms", p.startMs)
	var fast, ordered []float64
	for _, s := range p.samples {
		if s.start < p.t0 || s.end > p.t1 {
			continue
		}
		if s.read {
			ordered = append(ordered, float64(s.end-s.start)/1e3)
		} else {
			fast = append(fast, float64(s.end-s.start)/1e3)
		}
	}
	pl.set("gbcast.fast_deliver_us_p50", quantile(fast, 0.50))
	pl.set("gbcast.ordered_deliver_us_p50", quantile(ordered, 0.50))
	pl.counts(p.c0, p.c1, p.e.completed, float64(p.t1-p.t0)/1e9)
	pl.traced(tr)
	if err := pl.probes(cfg, tr, plain.e.cpuUsPerOp); err != nil {
		return err
	}
	pl.emit(rep)
	return nil
}
