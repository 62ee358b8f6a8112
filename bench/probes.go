package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/consensus"
	"repro/internal/eventq"
	"repro/internal/fd"
	"repro/internal/gbcast"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/transport"
)

// Probes are short isolated call loops on one layer's public functions: what
// the layer costs with nothing else running, to set beside what it costs
// inside a workload. Each stays well under a second.

// probeMsg is the body the broadcast and channel probes send.
type probeMsg struct {
	N   uint64
	Pad []byte
}

func init() { msg.Register(probeMsg{}) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// medianUs times fn n times and returns the median in µs.
func medianUs(n int, fn func(i int) error) (float64, error) {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0)) / 1e3
	}
	return median(d), nil
}

func recvTimeout[T any](ch <-chan T, what string) (T, error) {
	select {
	case v := <-ch:
		return v, nil
	case <-time.After(5 * time.Second):
		var zero T
		return zero, fmt.Errorf("probe: %s timed out", what)
	}
}

// probeTimerRes is how late a 100 µs runtime timer fires on an idle process,
// in µs (median of 200). When every P is idle the Go scheduler parks in
// epoll_wait, whose timeout is whole milliseconds, so on this kernel the
// answer is ~980: memnet's injected 50-200 µs delay, delivered from such a
// timer, is a millisecond whenever the process has nothing else to do.
//
// A rig-side fix was tried and dropped: a goroutine on a locked thread that
// nanosleeps 100 µs and yields makes an idle process's timers fire within
// ~70 µs, but under load its P hand-offs halved read_mix's throughput and
// tripled write_durable_rate's p99. The number is reported instead.
func probeTimerRes() float64 {
	const ask = 100 * time.Microsecond
	took, _ := medianUs(200, func(int) error {
		time.Sleep(ask)
		return nil
	})
	return took - float64(ask)/1e3
}

// probeTransport is a raw memnet round trip with NO injected delay: the
// plumbing alone (route, frame pool copy, channel hop).
func probeTransport() (rttUs float64, err error) {
	net := transport.NewNetwork(transport.WithSeed(1))
	defer net.Shutdown()
	a, b := net.Endpoint("a"), net.Endpoint("b")
	go func() {
		for pkt := range b.Receive() {
			b.Send("a", pkt.Data)
			transport.PutFrame(pkt.Data)
		}
	}()
	data := make([]byte, 128)
	return medianUs(2000, func(int) error {
		a.Send("b", data)
		pkt, err := recvTimeout(a.Receive(), "transport echo")
		if err == nil {
			transport.PutFrame(pkt.Data)
		}
		return err
	})
}

// probeRchannel is a reliable-channel round trip over zero-delay memnet and
// the allocations of one such round trip (send, deliver, reply, both acks).
func probeRchannel() (rttUs, allocs float64, err error) {
	net := transport.NewNetwork(transport.WithSeed(1))
	a, b := rchannel.New(net.Endpoint("a")), rchannel.New(net.Endpoint("b"))
	back := make(chan struct{}, 1)
	b.Handle("probe", func(from proc.ID, body any) { _ = b.Send(from, "probe", body) })
	a.Handle("probe", func(proc.ID, any) { back <- struct{}{} })
	a.Start()
	b.Start()
	defer func() { a.Stop(); b.Stop(); net.Shutdown() }()
	body := probeMsg{Pad: make([]byte, 64)}
	const n = 1500
	m0 := mallocs()
	rttUs, err = medianUs(n, func(i int) error {
		body.N = uint64(i)
		if err := a.Send("b", "probe", body); err != nil {
			return err
		}
		_, err := recvTimeout(back, "rchannel echo")
		return err
	})
	return rttUs, float64(mallocs()-m0) / n, err
}

// probeEventq is the cost of one TryPop when the queue holds `backlog`
// items: push the backlog, drain it, divide.
func probeEventq(backlog, reps int) float64 {
	q := eventq.New[int]()
	var total time.Duration
	for r := 0; r < reps; r++ {
		for i := 0; i < backlog; i++ {
			q.Push(i)
		}
		t0 := time.Now()
		for {
			if _, ok := q.TryPop(); !ok {
				break
			}
		}
		total += time.Since(t0)
	}
	return float64(total) / float64(reps*backlog)
}

// probeConsensus runs a bare consensus.Service on three reliable-channel
// endpoints (standard injected delay): time from Propose to the local
// decision, and messages per decision with the idle heartbeat traffic
// subtracted.
func probeConsensus(seed int64) (decideUs, msgsPerDecision float64, err error) {
	net := newNet(seed)
	members := memberIDs(3)
	decided := make(chan uint64, 16)
	var (
		eps  []*rchannel.Endpoint
		dets []*fd.Detector
		css  []*consensus.Service
	)
	for i, id := range members {
		ep := rchannel.New(net.Endpoint(id))
		det := fd.New(ep, members)
		onDecide := func(consensus.Decision) {}
		if i == 0 {
			onDecide = func(d consensus.Decision) { decided <- d.Instance }
		}
		cs := consensus.New(ep, members, det.Subscribe(50*time.Millisecond), onDecide)
		eps, dets, css = append(eps, ep), append(dets, det), append(css, cs)
	}
	for i := range members {
		eps[i].Start()
		dets[i].Start()
		css[i].Start()
	}
	defer func() {
		for i := range members {
			css[i].Stop()
			dets[i].Stop()
			eps[i].Stop()
		}
		net.Shutdown()
	}()
	time.Sleep(30 * time.Millisecond) // first heartbeats exchanged
	idle0, t0 := net.Stats().Sent, time.Now()
	time.Sleep(100 * time.Millisecond)
	idlePerNs := float64(net.Stats().Sent-idle0) / float64(time.Since(t0))

	const n = 150
	val := make([]byte, 64)
	sent0, t0 := net.Stats().Sent, time.Now()
	decideUs, err = medianUs(n, func(i int) error {
		inst := uint64(i + 1)
		for _, cs := range css {
			cs.Propose(inst, val)
		}
		for {
			got, err := recvTimeout(decided, "consensus decision")
			if err != nil || got == inst {
				return err
			}
		}
	})
	busy := float64(net.Stats().Sent-sent0) - idlePerNs*float64(time.Since(t0))
	return decideUs, busy / n, err
}

// probeBroadcast measures Node.Abcast and Node.Rbcast with one message in
// flight: broadcast to delivery at the sender.
func probeBroadcast(seed int64) (abcastUs, rbcastUs float64, err error) {
	delivered := make(chan uint64, 16)
	c, err := buildGbCluster(seed, gbcast.DefaultRelation(), nil, func(node int, d gbcast.Delivery) {
		if m, ok := d.Body.(probeMsg); ok && node == 0 {
			delivered <- m.N
		}
	})
	if err != nil {
		return 0, 0, err
	}
	defer c.stop()
	time.Sleep(30 * time.Millisecond)
	pad := make([]byte, 48)
	round := func(send func(any) error, n, base int) (float64, error) {
		return medianUs(n, func(i int) error {
			want := uint64(base + i)
			if err := send(probeMsg{N: want, Pad: pad}); err != nil {
				return err
			}
			for {
				got, err := recvTimeout(delivered, "broadcast delivery")
				if err != nil || got == want {
					return err
				}
			}
		})
	}
	if rbcastUs, err = round(c.nodes[0].Rbcast, 300, 1); err != nil {
		return 0, 0, err
	}
	abcastUs, err = round(c.nodes[0].Abcast, 150, 1000)
	return abcastUs, rbcastUs, err
}

// probeRequestDirect calls RequestSession on the primary with no gateway and
// no client: the replication layer's own cost for one batched write with
// nothing to share the window with.
func probeRequestDirect(seed int64) (float64, error) {
	c, err := buildCluster(clusterOpts{seed: seed})
	if err != nil {
		return 0, err
	}
	defer c.stop()
	time.Sleep(30 * time.Millisecond)
	op := make([]byte, payloadLen)
	return medianUs(200, func(i int) error {
		seq := uint64(i + 1)
		putKey(op, opKey{client: maxClients - 1, seq: seq})
		_, err := c.reps[0].RequestSession("probe", seq, seq-1, op, 5*time.Second)
		return err
	})
}

// probeDiskSync is one 4 KiB write + fsync on the medium the WAL uses.
// Informational: it says what the medium adds to the stated sync delay (a few
// microseconds on tmpfs, a device flush on a disk).
func probeDiskSync(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("syncprobe-%d", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	return medianUs(40, func(int) error {
		if _, err := f.Write(buf); err != nil {
			return err
		}
		return f.Sync()
	})
}

// codecCost is the msg layer's cost over real captured frames.
type codecCost struct {
	decodeNs, encodeNs, decodeAllocs, encodeAllocs, bytesMean float64
}

// probeCodec decodes and re-encodes frames captured by the transport
// decorator during the traced window. The hot message types are unexported,
// but msg.Decode of a captured frame and msg.Encode of the decoded value are
// public, so the codec is measured on exactly the traffic the workload sent.
func probeCodec(frames [][]byte) (codecCost, error) {
	var c codecCost
	if len(frames) < 1000 {
		return c, nil // too few frames for a per-frame mean
	}
	n := float64(len(frames))
	values := make([]any, len(frames))
	var bytes int
	for _, f := range frames {
		bytes += len(f)
	}
	c.bytesMean = float64(bytes) / n
	// Best of three passes: the probe follows a cluster teardown, and the
	// least-disturbed pass is the codec's own cost.
	for pass := 0; pass < 3; pass++ {
		m0, t0 := mallocs(), time.Now()
		for i, f := range frames {
			v, err := msg.Decode(f)
			if err != nil {
				return c, fmt.Errorf("probe: captured frame %d: %w", i, err)
			}
			values[i] = v
		}
		ns := float64(time.Since(t0)) / n
		if pass == 0 || ns < c.decodeNs {
			c.decodeNs, c.decodeAllocs = ns, float64(mallocs()-m0)/n
		}
		m0, t0 = mallocs(), time.Now()
		for _, v := range values {
			if _, err := msg.Encode(v); err != nil {
				return c, err
			}
		}
		ns = float64(time.Since(t0)) / n
		if pass == 0 || ns < c.encodeNs {
			c.encodeNs, c.encodeAllocs = ns, float64(mallocs()-m0)/n
		}
	}
	return c, nil
}

// probes runs every isolated probe and fills its metrics. cpuUsPerOp (the
// undecorated pass's) and the frames per op already counted scale the codec
// cost into a share of the workload's CPU.
func (p *perLayer) probes(cfg runCfg, tr *tracer, cpuUsPerOp float64) error {
	if cfg.noProbes {
		return nil
	}
	var err error
	var v, w float64
	p.set("loadgen.timer_res_us", probeTimerRes())
	if v, err = probeTransport(); err != nil {
		return err
	}
	p.set("transport.rtt_us", v)
	if v, w, err = probeRchannel(); err != nil {
		return err
	}
	p.set("rchannel.rtt_us", v)
	p.set("rchannel.send_allocs", w)
	p.set("eventq.pop_ns_backlog1", probeEventq(1, 200000))
	p.set("eventq.pop_ns_backlog4096", probeEventq(4096, 40))
	if v, w, err = probeConsensus(cfg.seed); err != nil {
		return err
	}
	p.set("consensus.decide_us", v)
	p.set("consensus.msgs_per_decision", w)
	if v, w, err = probeBroadcast(cfg.seed); err != nil {
		return err
	}
	p.set("abcast.deliver_us", v)
	p.set("rbcast.deliver_us", w)
	if v, err = probeRequestDirect(cfg.seed); err != nil {
		return err
	}
	p.set("replication.request_direct_us", v)
	wal, _ := walBase(cfg.out)
	if v, err = probeDiskSync(wal); err != nil {
		return err
	}
	p.set("storage.disk_sync_us", v)

	tr.mu.Lock()
	frames := tr.frames
	tr.mu.Unlock()
	cc, err := probeCodec(frames)
	if err != nil {
		return err
	}
	p.set("msg.decode_ns_per_frame", cc.decodeNs)
	p.set("msg.encode_ns_per_frame", cc.encodeNs)
	p.set("msg.decode_allocs_per_frame", cc.decodeAllocs)
	p.set("msg.encode_allocs_per_frame", cc.encodeAllocs)
	p.set("msg.frame_bytes_mean", cc.bytesMean)
	if cpuUsPerOp > 0 {
		// Every frame is encoded once and decoded once.
		perOpUs := (cc.decodeNs + cc.encodeNs) / 1e3 * p.values["rchannel.frames_per_op"]
		p.set("msg.codec_cpu_frac_est", perOpUs/cpuUsPerOp)
	}
	return nil
}
