package chaostest

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Storage knobs for durable chaos clusters: segments small enough that load
// forces rotation, compaction threshold small enough that it forces
// background snapshots — the power-loss tests must exercise the whole
// engine, not just a single growing segment.
const (
	chaosSegmentBytes = 32 << 10
	chaosCompactBytes = 128 << 10
)

// coreNode is one full member: S complete protocol stacks multiplexed over
// one memnet endpoint, a passive replica per shard, and a service gateway.
type coreNode struct {
	id    proc.ID
	dead  bool // wiped (rejoined as follower, tracked in cluster.extras)
	fault *transport.FaultTransport
	mux   *transport.GroupMux
	sms   []*chaosSM
	reps  []*replication.Passive
	nds   []*core.Node
	gw    *service.Gateway

	// Durable mode only (cluster.dataDir set): the per-shard file engines,
	// what each shard replayed from its own disk at this life's boot, and
	// the restart-alignment recoveries.
	engs    []*storage.File
	replays []replication.ReplayStats
	recs    []*replication.Recovery
}

// edgeNode is a follower node — the wipe/rejoin target: a follower replica
// per shard, fed by a Syncer over a fresh muxed endpoint, plus a gateway
// fronting the followers. Rebuilt from nothing (higher incarnation) on
// every rejoin. The same shape serves a wiped CORE rejoining under its old
// ID (rejoinCoreAsFollower).
type edgeNode struct {
	id      proc.ID
	inc     uint64
	tr      transport.Transport // the physical endpoint under the mux
	mux     *transport.GroupMux
	sms     []*chaosSM
	reps    []*replication.Passive
	eps     []*rchannel.Endpoint
	syncers []*replication.Syncer
	gw      *service.Gateway

	// Durable mode only: per-shard file engines and boot-time replay stats.
	engs    []*storage.File
	replays []replication.ReplayStats
}

// cluster is the chaos harness's world.
type cluster struct {
	t       *testing.T
	network *transport.Network
	reg     *telemetry.Registry // every replica registers; converge() audits through it
	shards  int
	ids     []proc.ID // core member IDs (the consensus universe)
	edgeID  proc.ID
	addrs   map[proc.ID]string // service addresses (memnet: the ID itself)
	cores   []*coreNode
	edge    *edgeNode
	edgeInc uint64
	extras  []*edgeNode // wiped cores reborn as followers

	// Durable mode: dataDir holds one directory per node ID with one engine
	// directory per shard; coreInc is the cores' reliable-channel
	// incarnation, bumped on every restart-from-disk so the new life
	// supersedes the old one on the wire. drain parks gateway closes whose
	// conn handlers are still timing out inside a dead consensus layer.
	dataDir string
	coreInc uint64
	drain   sync.WaitGroup

	seed int64 // the schedule seed; also derives each core's fault-layer seed
}

// shardDir is where node id keeps shard k's engine.
func (c *cluster) shardDir(id proc.ID, k int) string {
	return filepath.Join(c.dataDir, string(id), fmt.Sprintf("shard%d", k))
}

// scope is the (node, shard) telemetry scope — the same label scheme gcsnode
// uses, so the chaos assertions read the identical series a dashboard would.
// Rebuilt nodes re-register under the same labels and re-bind the series.
func (c *cluster) scope(id proc.ID, k int) *telemetry.Scope {
	return c.reg.Scope(telemetry.L("node", string(id)), telemetry.L("shard", strconv.Itoa(k)))
}

// commitIndexGauge reads one replica's commit-index gauge through the
// registry — the external observer's view of replication progress.
func (c *cluster) commitIndexGauge(id proc.ID, k int) (uint64, bool) {
	v, ok := c.reg.Value("gcs_replication_commit_index",
		telemetry.L("node", string(id)), telemetry.L("shard", strconv.Itoa(k)))
	return uint64(v), ok
}

// registryLag returns max-min over the live cores' commit-index gauges for
// shard k, read purely through the telemetry registry.
func (c *cluster) registryLag(k int) uint64 {
	first := true
	var lo, hi uint64
	for _, n := range c.liveCores() {
		v, ok := c.commitIndexGauge(n.id, k)
		if !ok {
			continue
		}
		if first {
			lo, hi, first = v, v, false
			continue
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return hi - lo
}

// rotated returns ids rotated left by k — shard k's replica list, spreading
// initial primaries across the member set.
func rotated(ids []proc.ID, k int) []proc.ID {
	k = k % len(ids)
	out := make([]proc.ID, 0, len(ids))
	out = append(out, ids[k:]...)
	out = append(out, ids[:k]...)
	return out
}

func buildCluster(t *testing.T, shards int, seed int64) *cluster {
	t.Helper()
	c := newCluster(t, shards, seed)
	for _, id := range c.ids {
		c.cores = append(c.cores, c.buildCore(id))
	}
	c.buildEdge()
	t.Cleanup(c.teardown)
	return c
}

// buildDurableCluster is buildCluster with every node (cores AND edge)
// running the file storage engine under a per-node data directory — the
// power-loss world. The cores are built with the phased restart-from-disk
// path even on first boot (fresh directories just make replay and recovery
// trivial), so there is exactly one boot sequence to trust.
func buildDurableCluster(t *testing.T, shards int, seed int64) *cluster {
	t.Helper()
	c := newCluster(t, shards, seed)
	c.dataDir = t.TempDir()
	c.coreInc = 1
	c.startCoresFromDisk()
	c.buildEdge()
	t.Cleanup(c.teardown)
	return c
}

func newCluster(t *testing.T, shards int, seed int64) *cluster {
	c := &cluster{
		t:       t,
		network: transport.NewNetwork(transport.WithDelay(0, 2*time.Millisecond), transport.WithSeed(seed)),
		reg:     telemetry.NewRegistry(),
		seed:    seed,
		shards:  shards,
		ids:     proc.IDs("r1", "r2", "r3"),
		edgeID:  "e1",
		addrs:   make(map[proc.ID]string),
	}
	for _, id := range append(append([]proc.ID{}, c.ids...), c.edgeID) {
		c.addrs[id] = string(id)
	}
	return c
}

// buildCore assembles one full member and starts it (the in-memory path:
// each core comes up completely before the next is built).
func (c *cluster) buildCore(id proc.ID) *coreNode {
	n := c.assembleCore(id)
	for _, nd := range n.nds {
		nd.Start()
	}
	c.finishCore(n)
	return n
}

// startCoresFromDisk boots every core through the durable four-phase
// sequence: assemble (replay own snapshot + WAL), start the substrates,
// align the replicas on the union of what survived (Recovery), and only
// then elect a primary and open the gateways. The phasing matters: a core
// that started failover before its peers recovered could take traffic at a
// commit index another disk has already passed.
func (c *cluster) startCoresFromDisk() {
	c.t.Helper()
	for _, id := range c.ids {
		c.cores = append(c.cores, c.assembleCore(id))
	}
	for _, n := range c.cores {
		for _, nd := range n.nds {
			nd.Start()
		}
	}
	c.recoverCores(10 * time.Second)
	for _, n := range c.cores {
		c.finishCore(n)
	}
}

// assembleCore builds one full member's stacks without starting them. In
// durable mode each shard opens its file engine and replays it BEFORE the
// substrate exists, registers the restart Recovery (which also serves the
// donor side of sync) in place of plain ServeSync, and the node carries
// the cluster's core incarnation so a life restarted from disk supersedes
// its previous one on the reliable channels.
func (c *cluster) assembleCore(id proc.ID) *coreNode {
	durable := c.dataDir != ""
	// Fault-injection layer between the memnet endpoint and the mux: all of
	// the core's protocol traffic (every shard) crosses it, so partition
	// scenarios steer one knob per node. Idle it is pure pass-through (one
	// atomic load per send), which makes every non-partition chaos suite an
	// implicit overhead proof for the fault layer.
	var idx int64
	for i, cid := range c.ids {
		if cid == id {
			idx = int64(i)
		}
	}
	fault := transport.NewFaultTransport(c.network.Endpoint(id), c.seed*31+idx)
	n := &coreNode{id: id, fault: fault, mux: transport.NewGroupMux(fault, c.shards)}
	for k := 0; k < c.shards; k++ {
		sm := newChaosSM()
		rep := replication.NewPassive(sm, rotated(c.ids, k))
		rep.SetSnapshotter(sm.snapshotter())
		var inc uint64
		if durable {
			eng, err := storage.Open(c.shardDir(id, k), storage.Config{SegmentBytes: chaosSegmentBytes})
			if err != nil {
				c.t.Fatal(err)
			}
			rep.SetStorage(replication.StorageConfig{Engine: eng, CompactBytes: chaosCompactBytes})
			rs, err := rep.ReplayStorage()
			if err != nil {
				c.t.Fatalf("%s shard %d: replay: %v", id, k, err)
			}
			n.engs = append(n.engs, eng)
			n.replays = append(n.replays, rs)
			inc = c.coreInc
		}
		node, err := core.NewNode(n.mux.Group(k), core.Config{
			Self:     id,
			Universe: c.ids,
			Relation: replication.PassiveRelation(),
			// The race detector slows the stacks several-fold; unscaled
			// heartbeat/suspicion timing livelocks consensus on small CI
			// machines with this many stacks (see race_off.go).
			RTO:              20 * raceScale * time.Millisecond,
			HeartbeatEvery:   5 * raceScale * time.Millisecond,
			FDCheckEvery:     2 * raceScale * time.Millisecond,
			SuspicionTimeout: 50 * raceScale * time.Millisecond,
			Incarnation:      inc,
			// The membership join path's state transfer is the replica
			// snapshot, captured by the hook AT the ordered join's delivery
			// point (a delivery boundary identical at every member).
			Snapshot: rep.EncodeSnapshot,
			Restore:  func(b []byte) { _ = rep.InstallSnapshot(b) },
		}, rep.DeliverFunc())
		if err != nil {
			c.t.Fatal(err)
		}
		rep.Bind(node)
		// Donor side of the state-transfer protocol: registered before the
		// stack starts (rchannel handlers are pre-start only).
		if durable {
			n.recs = append(n.recs, replication.NewRecovery(
				node.Endpoint(), rep, c.ids, replication.SyncConfig{Join: node.Join}))
		} else {
			replication.ServeSync(node.Endpoint(), rep, replication.SyncConfig{Join: node.Join})
		}
		scope := c.scope(id, k)
		node.RegisterMetrics(scope)
		rep.RegisterMetrics(scope)
		n.sms = append(n.sms, sm)
		n.reps = append(n.reps, rep)
		n.nds = append(n.nds, node)
	}
	return n
}

// finishCore arms failover and opens the gateway — the moment the member
// becomes eligible for traffic.
func (c *cluster) finishCore(n *coreNode) {
	for _, rep := range n.reps {
		rep.StartFailover(60 * raceScale * time.Millisecond)
		// Quorum-progress watchdog, well above the suspicion timeout so an
		// ordinary election never reads as a stall: a partitioned primary
		// answers fresh writes DEGRADED instead of parking them.
		rep.StartWatchdog(replication.WatchdogConfig{
			StallTimeout: 400 * raceScale * time.Millisecond,
		})
	}
	n.gw = c.newGateway(n.id, n.shardTable())
}

// faultOf returns core id's fault-injection layer.
func (c *cluster) faultOf(id proc.ID) *transport.FaultTransport {
	for _, n := range c.cores {
		if n.id == id {
			return n.fault
		}
	}
	c.t.Fatalf("no core %s", id)
	return nil
}

// recoverCores runs the restart alignment concurrently for every shard of
// every core: each replica pulls the deltas its own disk lost from
// whichever peer's disk kept more, so the group re-converges on the union
// of what survived before any primary is elected.
func (c *cluster) recoverCores(timeout time.Duration) {
	c.t.Helper()
	type res struct {
		id  proc.ID
		k   int
		err error
	}
	ch := make(chan res, len(c.cores)*c.shards)
	for _, n := range c.cores {
		for k, rec := range n.recs {
			go func(id proc.ID, k int, r *replication.Recovery) {
				ch <- res{id, k, r.Run(timeout * raceScale)}
			}(n.id, k, rec)
		}
	}
	for i := 0; i < cap(ch); i++ {
		if r := <-ch; r.err != nil {
			c.t.Fatalf("core %s shard %d recovery: %v", r.id, r.k, r.err)
		}
	}
	// Alignment is the whole point: with every core up, recovery must leave
	// no shard's replicas disagreeing (a skipped-unreachable peer here means
	// an RPC starved, and traffic would bake the divergence in).
	for k := 0; k < c.shards; k++ {
		for _, n := range c.cores[1:] {
			if a, b := c.cores[0].reps[k].CommitIndex(), n.reps[k].CommitIndex(); a != b {
				for _, m := range c.cores {
					c.t.Logf("shard %d: %s at %d after recovery, stats %+v",
						k, m.id, m.reps[k].CommitIndex(), m.recs[k].Stats())
				}
				c.t.Fatalf("shard %d: cores disagree after recovery (%s=%d %s=%d)",
					k, c.cores[0].id, a, n.id, b)
			}
		}
	}
}

func (n *coreNode) shardTable() []service.Shard {
	out := make([]service.Shard, 0, len(n.reps))
	for k := range n.reps {
		out = append(out, service.Shard{Replica: n.reps[k], Read: n.sms[k].read})
	}
	return out
}

// newGateway creates and serves a gateway for id over the given shards.
func (c *cluster) newGateway(id proc.ID, shards []service.Shard) *service.Gateway {
	gw := service.NewGateway(service.GatewayConfig{
		Self:           id,
		Shards:         shards,
		Addrs:          c.addrs,
		RequestTimeout: 3 * raceScale * time.Second,
	})
	l, err := c.network.ListenStream(id)
	if err != nil {
		c.t.Fatal(err)
	}
	gw.Serve(l)
	return gw
}

// buildFollowerNode assembles a follower node from nothing under a fresh
// incarnation: follower replicas fed by syncers, the membership
// state-transfer receiver, and a gateway fronting the followers.
func (c *cluster) buildFollowerNode(id proc.ID, inc uint64, donors []proc.ID) *edgeNode {
	tr := c.network.Endpoint(id)
	e := &edgeNode{id: id, inc: inc, tr: tr, mux: transport.NewGroupMux(tr, c.shards)}
	for k := 0; k < c.shards; k++ {
		sm := newChaosSM()
		f := replication.NewFollower(sm, id)
		f.SetSnapshotter(sm.snapshotter())
		primed := false
		if c.dataDir != "" {
			eng, err := storage.Open(c.shardDir(id, k), storage.Config{SegmentBytes: chaosSegmentBytes})
			if err != nil {
				c.t.Fatal(err)
			}
			f.SetStorage(replication.StorageConfig{Engine: eng, CompactBytes: chaosCompactBytes})
			rs, err := f.ReplayStorage()
			if err != nil {
				c.t.Fatalf("follower %s shard %d: replay: %v", id, k, err)
			}
			e.engs = append(e.engs, eng)
			e.replays = append(e.replays, rs)
			primed = rs.SnapshotIndex > 0 || rs.Records > 0
		}
		ep := rchannel.New(e.mux.Group(k),
			rchannel.WithRTO(10*raceScale*time.Millisecond),
			rchannel.WithIncarnation(inc))
		syncer := replication.NewSyncer(f, ep, replication.SyncerConfig{
			Donors:   donors,
			Interval: 2 * raceScale * time.Millisecond,
			// Generous under race: the detector inflates dispatch latency, and
			// a pull that merely takes long must not be treated as donor loss
			// (rotating donors on queueing delay only adds load).
			Timeout: 150 * raceScale * raceScale * time.Millisecond,
			// A primed follower replayed its own snapshot + WAL: no
			// membership-join announcement and no forced first snapshot —
			// its first pull asks for the delta after the replayed index,
			// which is the delta-only restart the sync counters prove.
			Announce: !primed,
			Primed:   primed,
		})
		// Receiver half of the membership join path: a donor requests the
		// ordered join for us; the membership primary ships the snapshot.
		membership.New(noBroadcast{}, ep, proc.NewView(id), membership.Snapshotter{
			Restore: func(b []byte) { _ = f.InstallSnapshot(b) },
		})
		scope := c.scope(id, k)
		ep.RegisterMetrics(scope)
		f.RegisterMetrics(scope)
		syncer.RegisterMetrics(scope)
		ep.Start()
		syncer.Start()
		e.sms = append(e.sms, sm)
		e.reps = append(e.reps, f)
		e.eps = append(e.eps, ep)
		e.syncers = append(e.syncers, syncer)
	}
	shards := make([]service.Shard, 0, c.shards)
	for k := 0; k < c.shards; k++ {
		shards = append(shards, service.Shard{Replica: e.reps[k], Read: e.sms[k].read})
	}
	e.gw = c.newGateway(id, shards)
	return e
}

// buildEdge (re)creates the dedicated edge follower node.
func (c *cluster) buildEdge() {
	c.edgeInc++
	c.edge = c.buildFollowerNode(c.edgeID, c.edgeInc, c.ids)
}

// stopFollowerNode tears a follower node down completely (graceful: a
// durable follower seals its engines with a final snapshot).
func (c *cluster) stopFollowerNode(e *edgeNode) {
	e.gw.Close()
	for _, s := range e.syncers {
		s.Stop()
	}
	for _, ep := range e.eps {
		ep.Stop()
	}
	if e.engs != nil {
		for _, f := range e.reps {
			if err := f.CloseStorage(); err != nil {
				c.t.Errorf("follower %s: close storage: %v", e.id, err)
			}
		}
	}
	e.mux.Close()
}

// powerLoss cuts power to the WHOLE cluster at once: network first (no
// goodbye packets), then every stack is stopped and its engines are
// killed — closed without flushing, so each node loses exactly its
// unsynced user-space write buffer, independently, as in a real
// correlated power cut. Nodes go down concurrently; each gateway's drain
// (conn handlers still waiting on the dead consensus layer run out their
// request timeout) is parked on c.drain rather than serialising the
// blackout.
func (c *cluster) powerLoss() {
	c.t.Helper()
	if c.dataDir == "" {
		c.t.Fatal("powerLoss needs a durable cluster")
	}
	for _, n := range c.cores {
		c.network.Crash(n.id)
	}
	c.network.Crash(c.edgeID)
	var wg sync.WaitGroup
	for _, n := range c.cores {
		wg.Add(1)
		go func(n *coreNode) {
			defer wg.Done()
			c.drainGateway(n.gw)
			for _, rep := range n.reps {
				rep.StopFailover()
				rep.StopWatchdog()
				rep.StopBatching()
			}
			for _, nd := range n.nds {
				nd.Stop() // deliveries drain here — before the engines die
			}
			for _, eng := range n.engs {
				eng.Kill()
			}
			n.mux.Close()
		}(n)
	}
	e := c.edge
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.drainGateway(e.gw)
		for _, s := range e.syncers {
			s.Stop()
		}
		for _, ep := range e.eps {
			ep.Stop()
		}
		for _, eng := range e.engs {
			eng.Kill()
		}
		e.mux.Close()
	}()
	wg.Wait()
	c.cores, c.edge = nil, nil
	for _, id := range c.ids {
		c.network.Restart(id)
	}
	c.network.Restart(c.edgeID)
}

// drainGateway closes gw in the background: a conn handler already inside
// RequestSession against a dead consensus layer holds the close until the
// request timeout, and a power cut must not wait for that. teardown
// collects the parked closes.
func (c *cluster) drainGateway(gw *service.Gateway) {
	c.drain.Add(1)
	go func() {
		defer c.drain.Done()
		gw.Close()
	}()
}

// restartFromDisk boots the whole cluster back from its data directories
// after powerLoss: cores through the phased replay/recover sequence under
// a bumped incarnation, then the edge follower from its own disk (primed:
// it pulls only the delta). Returns once every edge shard has caught up.
func (c *cluster) restartFromDisk() {
	c.t.Helper()
	c.coreInc++
	c.startCoresFromDisk()
	c.rejoinEdge(20 * time.Second)
}

// powerLossEdge cuts power to the edge node alone; the cores keep running.
func (c *cluster) powerLossEdge() {
	c.t.Helper()
	e := c.edge
	c.network.Crash(e.id)
	c.drainGateway(e.gw)
	for _, s := range e.syncers {
		s.Stop()
	}
	for _, ep := range e.eps {
		ep.Stop()
	}
	for _, eng := range e.engs {
		eng.Kill()
	}
	e.mux.Close()
	c.edge = nil
	c.network.Restart(e.id)
}

// wipeEdge crash-stops the edge node and destroys ALL its state — the
// process is gone; nothing survives but its ID.
func (c *cluster) wipeEdge() {
	c.network.Crash(c.edgeID)
	c.stopFollowerNode(c.edge)
	c.edge = nil
	c.network.Restart(c.edgeID)
}

// wipeCore crash-stops core i and destroys its ENTIRE stack and state —
// unlike killRestartCore, nothing survives but the ID. The member's vote is
// gone for good (f < n/2 now has zero slack), so callers must not crash any
// other core afterwards; the wiped member can come back as a read-serving
// follower via rejoinCoreAsFollower.
func (c *cluster) wipeCore(i int) {
	n := c.cores[i]
	c.network.Crash(n.id)
	n.gw.Close()
	for _, rep := range n.reps {
		rep.StopFailover()
		rep.StopWatchdog()
		rep.StopBatching()
	}
	for _, nd := range n.nds {
		nd.Stop()
	}
	n.mux.Close()
	n.dead = true
	c.network.Restart(n.id)
}

// rejoinCoreAsFollower brings a wiped core back under its OLD ID as a
// follower node — the same-identity crash-recovery: peers still hold
// reliable-channel state about the old incarnation, which the incarnation
// handshake resets on first contact.
func (c *cluster) rejoinCoreAsFollower(i int, inc uint64, timeout time.Duration) *edgeNode {
	c.t.Helper()
	n := c.cores[i]
	donors := make([]proc.ID, 0, len(c.ids)-1)
	for _, id := range c.ids {
		if id != n.id {
			donors = append(donors, id)
		}
	}
	e := c.buildFollowerNode(n.id, inc, donors)
	c.extras = append(c.extras, e)
	deadline := time.After(timeout * raceScale)
	for _, s := range e.syncers {
		select {
		case <-s.Installed():
		case <-deadline:
			c.t.Fatalf("core %s rejoin: follower not installed within %v", n.id, timeout*raceScale)
		}
	}
	return e
}

// rejoinEdge rebuilds the edge from nothing and waits until every shard's
// follower has installed state and caught up to a donor.
func (c *cluster) rejoinEdge(timeout time.Duration) {
	c.buildEdge()
	deadline := time.After(timeout * raceScale)
	for k, s := range c.edge.syncers {
		select {
		case <-s.Installed():
		case <-deadline:
			for _, n := range c.liveCores() {
				c.t.Logf("shard %d: core %s at index %d", k, n.id, n.reps[k].CommitIndex())
			}
			c.t.Logf("shard %d: edge follower at index %d, syncer stats %+v",
				k, c.edge.reps[k].CommitIndex(), c.edge.syncers[k].Stats())
			for _, n := range c.liveCores() {
				c.t.Logf("shard %d: core %s rchannel backlog to edge: %d unacked",
					k, n.id, n.nds[k].Endpoint().PendingTo(c.edgeID))
			}
			c.t.Logf("edge endpoint still registered: %v", c.network.Endpoint(c.edgeID) == c.edge.tr)
			c.t.Logf("edge shard %d channel stats: %+v", k, c.edge.eps[k].Stats())
			for _, n := range c.liveCores() {
				on, un, ie, oob := c.edge.eps[k].PeerState(n.id)
				don, dun, die, doob := n.nds[k].Endpoint().PeerState(c.edgeID)
				c.t.Logf("  edge<->%s: edge[outNext=%d unacked=%d inExpected=%d oob=%d peerInc=%d] donor[outNext=%d unacked=%d inExpected=%d oob=%d peerInc=%d] donorStats=%+v",
					n.id, on, un, ie, oob, c.edge.eps[k].PeerIncarnation(n.id),
					don, dun, die, doob, n.nds[k].Endpoint().PeerIncarnation(c.edgeID), n.nds[k].Endpoint().Stats())
			}
			before := c.network.Stats()
			time.Sleep(1 * time.Second)
			after := c.network.Stats()
			c.t.Logf("network delta over 1s: sent %d delivered %d dropped %d",
				after.Sent-before.Sent, after.Delivered-before.Delivered, after.Dropped-before.Dropped)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			c.t.Fatalf("edge rejoin: shard %d follower not installed within %v (incarnation %d)",
				k, timeout*raceScale, c.edge.inc)
		}
	}
}

// killRestartCore crash-stops core i at the network level for d (state
// preserved — the crash-stop model's short outage, healed by channel
// retransmission when the packets flow again).
func (c *cluster) killRestartCore(i int, d time.Duration) {
	id := c.ids[i]
	c.network.Crash(id)
	time.Sleep(d)
	c.network.Restart(id)
}

// bounceGateway replaces core i's gateway mid-life: attached sessions are
// dropped with their connections and re-attach (same session IDs, same
// replicated dedup state) at the replacement.
func (c *cluster) bounceGateway(i int) {
	n := c.cores[i]
	n.gw.Close()
	n.gw = c.newGateway(n.id, n.shardTable())
}

func (c *cluster) teardown() {
	if c.edge != nil {
		c.stopFollowerNode(c.edge)
	}
	for _, e := range c.extras {
		c.stopFollowerNode(e)
	}
	for _, n := range c.cores {
		if n.dead {
			continue
		}
		n.gw.Close()
		for _, rep := range n.reps {
			rep.StopFailover()
			rep.StopWatchdog()
			rep.StopBatching()
		}
		for _, nd := range n.nds {
			nd.Stop()
		}
		if n.engs != nil {
			for _, rep := range n.reps {
				if err := rep.CloseStorage(); err != nil {
					c.t.Errorf("%s: close storage: %v", n.id, err)
				}
			}
		}
		n.mux.Close()
	}
	c.network.Shutdown()
	c.drain.Wait()
}

// liveCores returns the cores still running their full stacks.
func (c *cluster) liveCores() []*coreNode {
	out := make([]*coreNode, 0, len(c.cores))
	for _, n := range c.cores {
		if !n.dead {
			out = append(out, n)
		}
	}
	return out
}

// followNodes returns every follower node currently alive (edge + reborn
// cores).
func (c *cluster) followNodes() []*edgeNode {
	out := append([]*edgeNode{}, c.extras...)
	if c.edge != nil {
		out = append(out, c.edge)
	}
	return out
}

// addrList returns the gateway addresses clients dial (cores + edge).
func (c *cluster) addrList(includeEdge bool) []string {
	out := make([]string, 0, len(c.ids)+1)
	for _, id := range c.ids {
		out = append(out, c.addrs[id])
	}
	if includeEdge {
		out = append(out, c.addrs[c.edgeID])
	}
	return out
}

func (c *cluster) newShardedClient(addrs []string, opTimeout time.Duration, sticky bool) *service.ShardedClient {
	cl, err := service.NewShardedClient(service.ShardedClientConfig{
		ClientConfig: service.ClientConfig{
			Addrs: addrs,
			Dial: func(addr string) (transport.StreamConn, error) {
				return c.network.DialStream(proc.ID(addr))
			},
			RetryBackoff: 3 * time.Millisecond,
			OpTimeout:    opTimeout,
			Sticky:       sticky,
		},
		Shards: c.shards,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(cl.Close)
	return cl
}

// converge waits until every core replica of every shard sits at the same
// commit index (the maximum over cores) and the edge followers have caught
// up, then returns the per-shard target indexes. Must be called after all
// client traffic has stopped.
//
// Convergence is required through BOTH views: the replicas' own
// CommitIndex() accessors AND the commit-index gauges in the telemetry
// registry. A replica that advanced without pushing its gauge (or pushed a
// stale value) keeps the shard unsettled until the timeout prints both
// views side by side.
func (c *cluster) converge(timeout time.Duration) []uint64 {
	c.t.Helper()
	//gcsvet:ignore wallclock -- watchdog over real goroutines: the chaos schedule is seeded-deterministic, but convergence runs on real concurrency and needs a real deadline
	deadline := time.Now().Add(timeout * raceScale)
	targets := make([]uint64, c.shards)
	for k := 0; k < c.shards; k++ {
		for {
			var target uint64
			for _, n := range c.liveCores() {
				if idx := n.reps[k].CommitIndex(); idx > target {
					target = idx
				}
			}
			settled := true
			for _, n := range c.liveCores() {
				if n.reps[k].CommitIndex() != target {
					settled = false
				}
				if g, ok := c.commitIndexGauge(n.id, k); !ok || g != target {
					settled = false
				}
			}
			for _, e := range c.followNodes() {
				if e.reps[k].CommitIndex() < target {
					settled = false
				}
				if g, ok := c.commitIndexGauge(e.id, k); !ok || g < target {
					settled = false
				}
			}
			if settled {
				if lag := c.registryLag(k); lag != 0 {
					c.t.Fatalf("shard %d: registry lag %d after direct convergence", k, lag)
				}
				targets[k] = target
				break
			}
			//gcsvet:ignore wallclock -- same watchdog deadline; expiry only fails the test louder, never changes the schedule
			if time.Now().After(deadline) {
				for _, n := range c.liveCores() {
					g, ok := c.commitIndexGauge(n.id, k)
					c.t.Logf("shard %d: core %s at index %d (gauge %d, registered %v)",
						k, n.id, n.reps[k].CommitIndex(), g, ok)
				}
				for _, e := range c.followNodes() {
					g, ok := c.commitIndexGauge(e.id, k)
					c.t.Logf("shard %d: follower %s at index %d (gauge %d, registered %v)",
						k, e.id, e.reps[k].CommitIndex(), g, ok)
				}
				c.dumpCoreChannels(k)
				c.t.Fatalf("shard %d never converged on a commit index (target %d)", k, target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return targets
}

// dumpCoreChannels logs shard k's reliable-channel state between every
// ordered pair of live cores, so a stalled run shows whether the stall sits
// in the channel (a receiver whose inExpected is stuck with frames buffered
// out of order, or a sender whose backlog never drains) or above it.
func (c *cluster) dumpCoreChannels(k int) {
	live := c.liveCores()
	for _, a := range live {
		ep := a.nds[k].Endpoint()
		c.t.Logf("shard %d: core %s channel stats %+v", k, a.id, ep.Stats())
		for _, b := range live {
			if a == b {
				continue
			}
			outNext, unacked, inExpected, oob := ep.PeerState(b.id)
			c.t.Logf("  %s->%s: outNext=%d unacked=%d PendingTo=%d inExpected(from %s)=%d oob=%d peerInc=%d",
				a.id, b.id, outNext, unacked, ep.PendingTo(b.id), b.id, inExpected, oob, ep.PeerIncarnation(b.id))
		}
	}
}

// checkGroupCommit asserts that every shard's primary among the live cores
// carried its writes through the group-commit batcher, the replica's only
// write path.
func (c *cluster) checkGroupCommit() {
	c.t.Helper()
	for k := 0; k < c.shards; k++ {
		for _, n := range c.liveCores() {
			if rep := n.reps[k]; rep.Primary() == n.id && rep.BatchStats().Ops == 0 {
				c.t.Errorf("shard %d: primary %s carried no write through group commit", k, n.id)
			}
		}
	}
}

// checkDigests asserts byte-identical replica state per shard across every
// core and the edge follower. Call after converge.
func (c *cluster) checkDigests() {
	c.t.Helper()
	live := c.liveCores()
	for k := 0; k < c.shards; k++ {
		ref := live[0]
		want := ref.reps[k].StateDigest()
		for _, n := range live[1:] {
			if got := n.reps[k].StateDigest(); string(got) != string(want) {
				c.t.Errorf("shard %d: state digest of %s differs from %s (%d vs %d bytes)",
					k, n.id, ref.id, len(got), len(want))
			}
		}
		for _, e := range c.followNodes() {
			if got := e.reps[k].StateDigest(); string(got) != string(want) {
				c.t.Errorf("shard %d: follower %s digest differs from %s (%d vs %d bytes)",
					k, e.id, ref.id, len(got), len(want))
			}
		}
	}
}

// auditExactlyOnce asserts every acked op applied exactly once on its shard
// at every core replica and at the edge follower, and that no replica
// applied ANY op twice.
func (c *cluster) auditExactlyOnce(acked []string) {
	c.t.Helper()
	bad := 0
	for _, op := range acked {
		k := service.ShardOf([]byte(op), c.shards)
		for _, n := range c.liveCores() {
			if got := n.sms[k].count(op); got != 1 {
				c.t.Errorf("acked op %q: applied %d times at %s shard %d", op, got, n.id, k)
				if bad++; bad > 10 {
					c.t.Fatal("too many exactly-once violations")
				}
			}
		}
		for _, e := range c.followNodes() {
			if got := e.sms[k].count(op); got != 1 {
				c.t.Errorf("acked op %q: applied %d times at follower %s shard %d", op, got, e.id, k)
				if bad++; bad > 10 {
					c.t.Fatal("too many exactly-once violations")
				}
			}
		}
	}
	for _, n := range c.liveCores() {
		for k, sm := range n.sms {
			if dups := sm.duplicated(); len(dups) > 0 {
				c.t.Errorf("%s shard %d duplicated applications: %v", n.id, k, dups)
			}
		}
	}
	for _, e := range c.followNodes() {
		for k, sm := range e.sms {
			if dups := sm.duplicated(); len(dups) > 0 {
				c.t.Errorf("follower %s shard %d duplicated applications: %v", e.id, k, dups)
			}
		}
	}
}

// opName builds the unique chaos op for client ci's n-th operation.
func opName(ci, n int) string {
	return fmt.Sprintf("c%d-%06d", ci, n)
}
