package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

// The load generator drives the service through at most nproc client
// connections (2 here), each pipelined `depth` deep: in-flight calls ride
// goroutines on ONE service.Client, not extra connections. Closed loops keep
// `depth` calls outstanding per connection; open loops issue on a seeded
// Poisson schedule and time every call from its INTENDED send time, so a
// stall is charged to every request it delays.

const (
	loadClients = 2
	loadDepth   = 32
	opTimeout   = 10 * time.Second
)

// sample is one completed (or failed) operation. Times are ns since the
// generator's epoch; start is the intended send time in open loops.
type sample struct {
	start, end int64
	seq        uint64
	client     uint32
	read       bool
	ok         bool
}

type loadOpts struct {
	seed     int64
	readFrac float64 // share of ops that are linearizable reads
	rate     float64 // ops/s over all connections; 0 = closed loop
	capHint  int     // expected samples per lane (pre-allocation)
}

type lane struct {
	mu      sync.Mutex // open loops only: many op goroutines share a lane
	samples []sample
	lagNs   []int64 // open loops: how late the generator issued each op
}

type loadgen struct {
	opts    loadOpts
	tr      *tracer
	epoch   time.Time
	clients []*service.Client
	lanes   []*lane

	nextSeq     [loadClients]atomic.Uint64
	ackedWrites [loadClients]atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	staleReads  atomic.Uint64 // oracle: a read missed a write acked before it
	badEcho     atomic.Uint64 // oracle: a result that does not echo its request

	stopping atomic.Bool
	wg       sync.WaitGroup
	firstErr atomic.Value
}

func newLoadgen(c *cluster, o loadOpts) (*loadgen, error) {
	g := &loadgen{opts: o, tr: c.opts.tr, epoch: time.Now()}
	if g.tr != nil {
		g.epoch = g.tr.epoch // one clock for samples and marks
	}
	for i := 0; i < loadClients; i++ {
		cl, err := service.NewClient(service.ClientConfig{
			Addrs: c.addrs(), Dial: c.dialer(),
			MaxInflight: loadDepth, OpTimeout: opTimeout,
			ReadLevel: service.ReadLinearizable,
		})
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, cl)
	}
	return g, nil
}

func (g *loadgen) now() int64 { return int64(time.Since(g.epoch)) }

func (g *loadgen) start() {
	if g.opts.rate > 0 {
		for ci := range g.clients {
			ln := &lane{samples: make([]sample, 0, g.opts.capHint), lagNs: make([]int64, 0, g.opts.capHint)}
			g.lanes = append(g.lanes, ln)
			g.wg.Add(1)
			go g.schedule(ci, ln)
		}
		return
	}
	for ci := range g.clients {
		for w := 0; w < loadDepth; w++ {
			ln := &lane{samples: make([]sample, 0, g.opts.capHint)}
			g.lanes = append(g.lanes, ln)
			g.wg.Add(1)
			go g.closedWorker(ci, w, ln)
		}
	}
}

// closedWorker keeps exactly one call outstanding.
func (g *loadgen) closedWorker(ci, w int, ln *lane) {
	defer g.wg.Done()
	rng := rand.New(rand.NewSource(g.opts.seed*1000003 + int64(ci*loadDepth+w)))
	buf := newPayload(rng)
	for !g.stopping.Load() {
		read := g.opts.readFrac > 0 && rng.Float64() < g.opts.readFrac
		ln.samples = append(ln.samples, g.issue(ci, buf, read, g.now()))
	}
}

// schedule is one connection's open-loop arrival process: exponential gaps
// at rate/loadClients, each op on its own goroutine so a slow reply never
// delays the next arrival.
func (g *loadgen) schedule(ci int, ln *lane) {
	defer g.wg.Done()
	rng := rand.New(rand.NewSource(g.opts.seed*1000003 + int64(ci)))
	perNs := g.opts.rate / loadClients / 1e9
	due := g.now()
	for !g.stopping.Load() {
		due += int64(rng.ExpFloat64() / perNs)
		time.Sleep(time.Duration(due - g.now()))
		lag := g.now() - due
		buf := newPayload(rng)
		read := g.opts.readFrac > 0 && rng.Float64() < g.opts.readFrac
		g.wg.Add(1)
		go func(due int64) {
			defer g.wg.Done()
			s := g.issue(ci, buf, read, due)
			ln.mu.Lock()
			ln.samples = append(ln.samples, s)
			ln.lagNs = append(ln.lagNs, lag)
			ln.mu.Unlock()
		}(due)
	}
}

// issue runs one operation and checks its result against the client-side
// oracle: a write's result echoes its key; a read returns the client's
// applied-write count, which must cover every write acked before the read
// was issued.
func (g *loadgen) issue(ci int, buf []byte, read bool, start int64) sample {
	k := opKey{client: uint32(ci), seq: g.nextSeq[ci].Add(1)}
	putKey(buf, k)
	var rec *opRec
	if g.tr != nil {
		if rec = g.tr.rec(k); rec != nil {
			rec.t[mCallStart].Store(g.now())
		}
	}
	var (
		res []byte
		err error
	)
	if read {
		ackedBefore := g.ackedWrites[ci].Load()
		res, err = g.clients[ci].ReadAt(buf, service.ReadLinearizable)
		if err == nil {
			if len(res) != keyLen+8 || !bytes.Equal(res[:keyLen], buf[:keyLen]) {
				g.badEcho.Add(1)
			} else if binary.BigEndian.Uint64(res[keyLen:]) < ackedBefore {
				g.staleReads.Add(1)
			}
		}
	} else {
		res, err = g.clients[ci].Call(buf)
		if err == nil {
			if !bytes.Equal(res, buf[:keyLen]) {
				g.badEcho.Add(1)
			}
			g.ackedWrites[ci].Add(1)
		}
	}
	end := g.now()
	if rec != nil {
		rec.t[mCallEnd].Store(end)
	}
	if err != nil {
		// Errors after stop are the drain racing Close, not the system's.
		if !g.stopping.Load() {
			g.failed.Add(1)
			g.firstErr.CompareAndSwap(nil, err)
		}
	} else {
		g.completed.Add(1)
	}
	return sample{start: start, end: end, seq: k.seq, client: k.client, read: read, ok: err == nil}
}

// waitCompleted is the warm-up gate: it returns once n operations completed.
func (g *loadgen) waitCompleted(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for g.completed.Load() < n {
		if g.failed.Load() > 0 {
			return fmt.Errorf("warm-up: %v", g.firstErr.Load())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %d of %d ops after %v", g.completed.Load(), n, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// stop ends issuing and waits for every in-flight call to finish.
func (g *loadgen) stop() {
	g.stopping.Store(true)
	g.wg.Wait()
}

func (g *loadgen) close() {
	for _, cl := range g.clients {
		cl.Close()
	}
}

// all returns every sample and every open-loop lag, unordered.
func (g *loadgen) all() (samples []sample, lagNs []int64) {
	for _, ln := range g.lanes {
		samples = append(samples, ln.samples...)
		lagNs = append(lagNs, ln.lagNs...)
	}
	return samples, lagNs
}

// ackedWritesList lists the keys of the acknowledged writes: the set the
// replica oracle demands at every live replica.
func ackedWritesList(samples []sample) []opKey {
	var out []opKey
	for _, s := range samples {
		if s.ok && !s.read {
			out = append(out, opKey{client: s.client, seq: s.seq})
		}
	}
	return out
}

// usage is the process accounting sampled at the window's edges.
type usage struct {
	cpu     time.Duration // user+sys
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// rssMB is the process's resident set now, from /proc/self/statm; where
// that cannot be read it falls back to getrusage's high-water mark.
func rssMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident int64
		if _, err := fmt.Sscan(string(data), &size, &resident); err == nil {
			return float64(resident*int64(os.Getpagesize())) / (1 << 20)
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sleepWatchingRSS sleeps for d and returns the highest resident set sampled
// meanwhile, in MB. The process-wide high-water mark (maxrss) cannot be
// reset, so it would be the worst pass's peak; a peak per pass lets the run
// report their median like every other metric.
func sleepWatchingRSS(d time.Duration) float64 {
	peak := rssMB()
	for end := time.Now().Add(d); ; {
		left := time.Until(end)
		if left <= 0 {
			return peak
		}
		time.Sleep(min(left, 100*time.Millisecond))
		peak = max(peak, rssMB())
	}
}

// preciseSleep blocks the calling thread in nanosleep(2). A runtime timer
// will not do for a sub-millisecond wait: when every P is idle the Go
// scheduler parks in epoll_wait, whose timeout is whole milliseconds, so
// time.Sleep(500µs) returns after ~1.08 ms on this kernel.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens one wait
}
