package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	gcs "repro"
	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ---- E12: service gateway ------------------------------------------------
//
// Client-observed throughput and latency of the networked service layer as
// the number of concurrent sessions grows. Every session is a closed loop
// (one outstanding write at a time); the primary coalesces all sessions'
// concurrent writes into one g-broadcast per commit window, so throughput
// keeps scaling while the single-session latency stays within the (zero by
// default) max batch delay. Emits one JSON record per row alongside the
// table.

// svcRecord is the JSON shape of one measurement row.
type svcRecord struct {
	Experiment string  `json:"experiment"`
	Sessions   int     `json:"sessions"`
	DurationS  float64 `json:"duration_s"`
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_s"`
	MeanUS     float64 `json:"mean_us"`
	P50US      float64 `json:"p50_us"`
	P99US      float64 `json:"p99_us"`
	Batches    uint64  `json:"batches"`   // broadcasts carrying the ops
	MaxBatch   int     `json:"max_batch"` // largest coalesced batch
	// HistOverflow counts latency samples beyond the histogram's last bucket
	// bound: nonzero means the p99 above is clamped (benchdiff flags it).
	HistOverflow uint64 `json:"hist_overflow,omitempty"`
}

// benchSM is a trivially cheap passive state machine.
type benchSM struct{ applied atomic.Uint64 }

func (b *benchSM) Execute(op []byte) ([]byte, []byte) { return op, op }
func (b *benchSM) ApplyUpdate([]byte)                 { b.applied.Add(1) }
func (b *benchSM) read(op []byte) []byte              { return op }

// snapshot/restore make benchSM snapshot-transferable so E19 followers can
// join via the sync protocol. The atomic store satisfies the Snapshotter
// atomic-swap contract (read never observes a torn counter).
func (b *benchSM) snapshot() []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], b.applied.Load())
	return buf[:]
}

func (b *benchSM) restore(data []byte) {
	if len(data) == 8 {
		b.applied.Store(binary.BigEndian.Uint64(data))
	}
}

func experimentService() error {
	fmt.Println("== E12 — service gateway: client throughput vs concurrent sessions ==")
	fmt.Println("   closed-loop networked clients over memnet streams; writes only")
	fmt.Printf("%-10s %10s %12s %10s %10s %10s\n",
		"sessions", "ops", "ops/s", "mean", "p99", "batches")

	const runFor = time.Second
	for _, sessions := range []int{1, 4, 16, 64} {
		rec, err := runService(sessions, runFor)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %10d %12.0f %10v %10v %10d\n",
			rec.Sessions, rec.Ops, rec.OpsPerSec,
			time.Duration(rec.MeanUS*float64(time.Microsecond)).Round(time.Microsecond),
			time.Duration(rec.P99US*float64(time.Microsecond)).Round(time.Microsecond),
			rec.Batches)
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// svcHarness is one benchmark cluster: 3 nodes, a gateway each. pipelined
// selects the gateways' per-session dispatch (GatewayConfig.Batching). When
// fault is set, every node's transport is wrapped in an (idle) FaultTransport —
// the pass-through-cost configuration E18 measures.
type svcHarness struct {
	network *transport.Network
	nodes   []*core.Node
	reps    []*replication.Passive
	sms     []*benchSM
	gws     []*service.Gateway
	faults  []*transport.FaultTransport

	// E19 read replicas: catch-up followers with a gateway each, addressed
	// f0..fN-1 (addFollowers).
	followers    []*gcs.Follower
	followerSMs  []*benchSM
	followerGWs  []*service.Gateway
	followerAddr []string
}

func buildSvcHarness(seed int64, pipelined, fault bool) (*svcHarness, error) {
	h := &svcHarness{network: newNet(seed)}
	members := ids(3, "s")
	addrs := make(map[proc.ID]string)
	for _, id := range members {
		addrs[id] = string(id)
	}
	for _, id := range members {
		sm := &benchSM{}
		h.sms = append(h.sms, sm)
		rep := replication.NewPassive(sm, members)
		var tr transport.Transport = h.network.Endpoint(id)
		if fault {
			ft := transport.NewFaultTransport(tr, seed+int64(len(h.faults)))
			h.faults = append(h.faults, ft)
			tr = ft
		}
		nd, err := core.NewNode(tr,
			core.Config{Self: id, Universe: members, Relation: replication.PassiveRelation()},
			rep.DeliverFunc())
		if err != nil {
			return nil, err
		}
		rep.Bind(nd)
		// Every member is a sync donor so E19 followers can join; idle for
		// the follower-less experiments.
		rep.SetSnapshotter(replication.Snapshotter{Snapshot: sm.snapshot, Restore: sm.restore})
		replication.ServeSync(nd.Endpoint(), rep, replication.SyncConfig{Join: nd.Join})
		h.nodes = append(h.nodes, nd)
		h.reps = append(h.reps, rep)
	}
	for _, nd := range h.nodes {
		nd.Start()
	}
	for i, id := range members {
		gw := service.NewGateway(service.GatewayConfig{
			Self:     id,
			Replica:  h.reps[i],
			Read:     h.sms[i].read,
			Addrs:    addrs,
			Batching: pipelined,
		})
		l, err := h.network.ListenStream(id)
		if err != nil {
			return nil, err
		}
		gw.Serve(l)
		h.gws = append(h.gws, gw)
	}
	return h, nil
}

// addFollowers attaches n catch-up read replicas ("f0".."fN-1"), each with
// its own gateway, and waits until every one has installed a snapshot and
// caught up to a donor — the point from which it serves reads at backup
// parity. Call after the members are started and warmed.
func (h *svcHarness) addFollowers(n int) error {
	members := ids(3, "s")
	addrs := make(map[proc.ID]string)
	for _, id := range members {
		addrs[id] = string(id)
	}
	for i := 0; i < n; i++ {
		fid := proc.ID(fmt.Sprintf("f%d", i))
		sm := &benchSM{}
		f, err := gcs.NewFollowerNode(h.network.Endpoint(fid), sm, gcs.FollowerConfig{
			Self:     fid,
			Donors:   members,
			Snapshot: sm.snapshot,
			Restore:  sm.restore,
			// A gentler pull cadence than the 5ms default: still far inside
			// the 250ms read bound, and N followers' pull RPCs must not crowd
			// the read path they exist to serve.
			PullInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		h.followers = append(h.followers, f)
		h.followerSMs = append(h.followerSMs, sm)
		faddrs := make(map[proc.ID]string, len(addrs)+1)
		for k, v := range addrs {
			faddrs[k] = v
		}
		faddrs[fid] = string(fid)
		gw := service.NewGateway(service.GatewayConfig{
			Self:    fid,
			Replica: f.Replica,
			Read:    sm.read,
			Addrs:   faddrs,
		})
		l, err := h.network.ListenStream(fid)
		if err != nil {
			return err
		}
		gw.Serve(l)
		h.followerGWs = append(h.followerGWs, gw)
		h.followerAddr = append(h.followerAddr, string(fid))
	}
	for i, f := range h.followers {
		select {
		case <-f.Installed():
		case <-time.After(5 * time.Second):
			return fmt.Errorf("follower f%d never caught up", i)
		}
	}
	return nil
}

func (h *svcHarness) stop() {
	for _, gw := range h.followerGWs {
		gw.Close()
	}
	for _, gw := range h.gws {
		gw.Close()
	}
	for _, f := range h.followers {
		_ = f.Stop()
	}
	for _, rep := range h.reps {
		rep.StopBatching()
	}
	stopAll(h.nodes, h.network)
}

func (h *svcHarness) dialer() func(addr string) (transport.StreamConn, error) {
	return func(addr string) (transport.StreamConn, error) {
		return h.network.DialStream(proc.ID(addr))
	}
}

func runService(sessions int, runFor time.Duration) (svcRecord, error) {
	h, err := buildSvcHarness(int64(500+sessions), true, false)
	if err != nil {
		return svcRecord{}, err
	}
	reps := h.reps
	defer h.stop()
	warm(h.network)

	dial := h.dialer()
	addrList := []string{"s0", "s1", "s2"}

	var (
		wg      sync.WaitGroup
		hist    = telemetry.NewHistogram()
		ops     atomic.Uint64
		stop    = make(chan struct{})
		downErr atomic.Value
	)
	clients := make([]*service.Client, sessions)
	for i := range clients {
		cl, err := service.NewClient(service.ClientConfig{
			Addrs: addrList,
			Dial:  dial,
		})
		if err != nil {
			return svcRecord{}, err
		}
		clients[i] = cl
		defer cl.Close()
	}

	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *service.Client) {
			defer wg.Done()
			op := benchPayload()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if _, err := cl.Call(op); err != nil {
					downErr.Store(err)
					return
				}
				d := time.Since(t0)
				ops.Add(1)
				hist.Observe(d)
			}
		}(cl)
	}
	time.Sleep(runFor)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := downErr.Load().(error); ok && err != nil {
		return svcRecord{}, err
	}
	bst := reps[0].BatchStats()

	return svcRecord{
		Experiment:   "service",
		Sessions:     sessions,
		DurationS:    elapsed.Seconds(),
		Ops:          ops.Load(),
		OpsPerSec:    float64(ops.Load()) / elapsed.Seconds(),
		MeanUS:       float64(hist.Mean()) / float64(time.Microsecond),
		P50US:        float64(hist.Quantile(0.50)) / float64(time.Microsecond),
		P99US:        float64(hist.Quantile(0.99)) / float64(time.Microsecond),
		Batches:      bst.Batches,
		MaxBatch:     bst.MaxBatch,
		HistOverflow: hist.Overflow(),
	}, nil
}

// ---- E13: service read levels --------------------------------------------
//
// Client-observed read throughput of the three read consistency levels as
// the number of concurrent reader sessions grows. A background writer keeps
// the commit index moving so monotonic tokens are live. Local reads never
// leave the contacted gateway; monotonic reads pay a commit-index check (no
// broadcast — near-local once the replica is caught up); linearizable reads
// pay an ordered no-op barrier at the primary, COALESCED across concurrent
// readers — the barriers/max_coalesced columns show a 64-session burst
// costing far fewer than 64 broadcasts.

// svcReadRecord is the JSON shape of one read-sweep row. The E19 fields are
// omitempty so the pre-lease E13 rows marshal byte-identically to their
// committed baselines.
type svcReadRecord struct {
	Experiment   string  `json:"experiment"`
	Level        string  `json:"level"`
	Sessions     int     `json:"sessions"`
	DurationS    float64 `json:"duration_s"`
	Reads        uint64  `json:"reads"`
	ReadsPerSec  float64 `json:"reads_per_s"`
	MeanUS       float64 `json:"mean_us"`
	P99US        float64 `json:"p99_us"`
	Barriers     uint64  `json:"barriers"`      // barrier no-ops broadcast (linearizable only)
	BarrierReads uint64  `json:"barrier_reads"` // reads served through them
	MaxCoalesced int     `json:"max_coalesced"` // largest reader group per barrier

	// E19 (leader lease + bounded staleness) columns.
	Followers      int    `json:"followers,omitempty"`       // read replicas serving bounded reads
	LeaseReads     uint64 `json:"lease_reads,omitempty"`     // linearizable reads served off the lease, no barrier
	LeaseFallbacks uint64 `json:"lease_fallbacks,omitempty"` // lease misses that fell back to a barrier
	TooStale       uint64 `json:"too_stale,omitempty"`       // bounded reads bounced for exceeding max-age
	HistOverflow   uint64 `json:"hist_overflow,omitempty"`   // clamped-tail sentinel (see svcRecord)
}

func experimentServiceReads() error {
	fmt.Println("== E13 — service read levels: reads/s vs concurrent sessions ==")
	fmt.Println("   closed-loop readers + 1 background writer; barrier columns are linearizable-only")
	fmt.Printf("%-14s %-10s %10s %12s %10s %10s %10s %8s\n",
		"level", "sessions", "reads", "reads/s", "mean", "p99", "barriers", "maxcoal")

	const runFor = time.Second
	levels := []struct {
		name  string
		level service.ReadLevel
	}{
		{"local", service.ReadLocal},
		{"monotonic", service.ReadMonotonic},
		{"linearizable", service.ReadLinearizable},
	}
	for _, lv := range levels {
		for _, sessions := range []int{1, 4, 16, 64} {
			rec, err := runReadSweep(svcReadSweepOpts{
				name: lv.name, level: lv.level, sessions: sessions, runFor: runFor,
			})
			if err != nil {
				return err
			}
			if err := printReadRow(rec); err != nil {
				return err
			}
		}
	}

	// ---- E19: retiring the barrier tax ----
	//
	// linearizable-lease: same linearizable clients, but the members hold a
	// replicated leadership lease, so the primary answers locally while it
	// holds — the barrier survives only as the handoff fallback.
	// bounded-staleness: sticky sessions pinned round-robin to follower
	// gateways issue ReadAtMost(250ms); each follower added is read capacity
	// the ordered core never sees, so the offered load scales with the
	// capacity (one session per follower). The lease stays armed here too:
	// its renewals stamp the applied state, so a stalled writer does not
	// strand the bound.
	fmt.Println()
	fmt.Println("== E19 — leader lease + bounded staleness: retiring the barrier tax ==")
	fmt.Println("   linearizable-lease: lease-holding primary, no per-read barrier")
	fmt.Println("   bounded-staleness: one sticky session per follower gateway, ReadAtMost(250ms)")
	for _, sessions := range []int{1, 4, 16, 64} {
		rec, err := runReadSweep(svcReadSweepOpts{
			name: "linearizable-lease", level: service.ReadLinearizable,
			sessions: sessions, runFor: runFor, lease: time.Second,
		})
		if err != nil {
			return err
		}
		if err := printReadRow(rec); err != nil {
			return err
		}
	}
	for _, followers := range []int{1, 2, 4} {
		rec, err := runReadSweep(svcReadSweepOpts{
			// 3× the window of the other rows: one closed-loop session per
			// follower makes these the noisiest rows on a small machine.
			name: "bounded-staleness", sessions: followers, runFor: 3 * runFor,
			lease: 200 * time.Millisecond, writePace: 5 * time.Millisecond,
			followers: followers, maxAge: 250 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		if err := printReadRow(rec); err != nil {
			return err
		}
	}
	return nil
}

// printReadRow prints one sweep row as a table line plus its JSON record.
func printReadRow(rec svcReadRecord) error {
	name := rec.Level
	if rec.Followers > 0 {
		name = fmt.Sprintf("%s/f%d", rec.Level, rec.Followers)
	}
	fmt.Printf("%-14s %-10d %10d %12.0f %10v %10v %10d %8d\n",
		name, rec.Sessions, rec.Reads, rec.ReadsPerSec,
		time.Duration(rec.MeanUS*float64(time.Microsecond)).Round(time.Microsecond),
		time.Duration(rec.P99US*float64(time.Microsecond)).Round(time.Microsecond),
		rec.Barriers, rec.MaxCoalesced)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// svcReadSweepOpts parameterises one read-sweep row (E13 and E19 share the
// runner). followers > 0 switches the readers to Sticky bounded-staleness
// sessions pinned round-robin to follower gateways; lease > 0 arms the
// leadership lease on every member with that TTL.
type svcReadSweepOpts struct {
	name      string
	level     service.ReadLevel
	sessions  int
	runFor    time.Duration
	lease     time.Duration
	followers int
	maxAge    time.Duration
	// writePace throttles the background writer to one write per pace
	// (0 = closed loop). The bounded rows pace it: writes exist only to
	// advance the freshness stamps there, and a closed-loop writer's
	// broadcast work would crowd the follower read path off the machine.
	writePace time.Duration
}

func runReadSweep(o svcReadSweepOpts) (svcReadRecord, error) {
	h, err := buildSvcHarness(int64(900+o.sessions+31*o.followers), false, false)
	if err != nil {
		return svcReadRecord{}, err
	}
	defer h.stop()
	warm(h.network)
	if o.followers > 0 {
		if err := h.addFollowers(o.followers); err != nil {
			return svcReadRecord{}, err
		}
	}
	if o.lease > 0 {
		for _, rep := range h.reps {
			rep.EnableLeaderLease(replication.LeaderLeaseConfig{TTL: o.lease})
			defer rep.DisableLeaderLease()
		}
	}

	dial := h.dialer()
	addrList := []string{"s0", "s1", "s2"}

	var (
		readers   sync.WaitGroup
		writerWG  sync.WaitGroup
		hist      = telemetry.NewHistogram()
		reads     atomic.Uint64
		stop      = make(chan struct{})
		stopWrite = make(chan struct{})
		downErr   atomic.Value
	)

	// Background writer: keeps the ordered path busy and the commit index
	// (and freshness stamps) advancing, as a live service would. It outlives
	// the readers: a bounded reader caught in a TOO_STALE retry when the
	// measurement window closes can only drain against a still-fresh group —
	// an idle group's state age grows without bound.
	writer, err := service.NewClient(service.ClientConfig{Addrs: addrList, Dial: dial})
	if err != nil {
		return svcReadRecord{}, err
	}
	defer writer.Close()
	// One synchronous write before anything reads: stamps the applied state
	// so bounded readers never start against a never-written group.
	if _, err := writer.Call([]byte("background-write")); err != nil {
		return svcReadRecord{}, err
	}
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		op := []byte("background-write")
		for {
			select {
			case <-stopWrite:
				return
			default:
			}
			if _, err := writer.Call(op); err != nil {
				downErr.Store(err)
				return
			}
			if o.writePace > 0 {
				select {
				case <-stopWrite:
					return
				case <-time.After(o.writePace):
				}
			}
		}
	}()

	if o.lease > 0 {
		// Measure the steady state, not the first grant's round trip: wait
		// until the lease has been delivered at the primary.
		deadline := time.Now().Add(2 * time.Second)
		for h.reps[0].LeaderLeaseStats().Grants == 0 {
			if time.Now().After(deadline) {
				return svcReadRecord{}, fmt.Errorf("leader lease never granted")
			}
			time.Sleep(time.Millisecond)
		}
	}

	clients := make([]*service.Client, o.sessions)
	for i := range clients {
		cfg := service.ClientConfig{Addrs: addrList, Dial: dial, ReadLevel: o.level}
		if o.followers > 0 {
			// Bounded readers are sticky follower sessions: each stays on its
			// gateway and retries TOO_STALE in place rather than chasing the
			// primary — the whole point is keeping reads off the core.
			cfg.Addrs = []string{h.followerAddr[i%o.followers]}
			cfg.Sticky = true
			cfg.ReadLevel = 0
		}
		cl, err := service.NewClient(cfg)
		if err != nil {
			return svcReadRecord{}, err
		}
		clients[i] = cl
		defer cl.Close()
	}
	if o.followers == 0 {
		// One write per reader session seeds its monotonic token. (Sticky
		// follower sessions cannot write and bounded reads carry no token.)
		for _, cl := range clients {
			if _, err := cl.Call([]byte("seed")); err != nil {
				return svcReadRecord{}, err
			}
		}
	}

	start := time.Now()
	for _, cl := range clients {
		readers.Add(1)
		go func(cl *service.Client) {
			defer readers.Done()
			op := []byte("read-payload")
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				var err error
				if o.followers > 0 {
					_, err = cl.ReadAtMost(op, o.maxAge)
				} else {
					_, err = cl.Read(op)
				}
				if err != nil {
					downErr.Store(err)
					return
				}
				d := time.Since(t0)
				reads.Add(1)
				hist.Observe(d)
			}
		}(cl)
	}
	time.Sleep(o.runFor)
	close(stop)
	readers.Wait()
	elapsed := time.Since(start)
	close(stopWrite)
	writerWG.Wait()
	if err, ok := downErr.Load().(error); ok && err != nil {
		return svcReadRecord{}, err
	}
	bst := h.reps[0].ReadBarrierStats()
	lst := h.reps[0].LeaderLeaseStats()
	var tooStale uint64
	for _, gw := range h.followerGWs {
		tooStale += gw.Stats().TooStale
	}

	return svcReadRecord{
		Experiment:     "service_reads",
		Level:          o.name,
		Sessions:       o.sessions,
		DurationS:      elapsed.Seconds(),
		Reads:          reads.Load(),
		ReadsPerSec:    float64(reads.Load()) / elapsed.Seconds(),
		MeanUS:         float64(hist.Mean()) / float64(time.Microsecond),
		P99US:          float64(hist.Quantile(0.99)) / float64(time.Microsecond),
		Barriers:       bst.Broadcasts,
		BarrierReads:   bst.Reads,
		MaxCoalesced:   bst.MaxCoalesced,
		Followers:      o.followers,
		LeaseReads:     lst.LeaseReads,
		LeaseFallbacks: lst.BarrierFallbacks,
		TooStale:       tooStale,
		HistOverflow:   hist.Overflow(),
	}, nil
}
