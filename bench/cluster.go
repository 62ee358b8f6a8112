package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/gbcast"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Injected costs, stated so every row can be compared: the network delay is
// gcsbench's newNet, the sync delay models a device flush the way the
// network delay models a wire.
const (
	netDelayMin = 50 * time.Microsecond
	netDelayMax = 200 * time.Microsecond
	syncDelay   = 500 * time.Microsecond

	// failoverSuspicion is the primary-monitoring timeout of the failover
	// workload (StartFailover); everything else in core.Config is default.
	failoverSuspicion = 100 * time.Millisecond
	leaseTTL          = time.Second
)

func newNet(seed int64) *transport.Network {
	return transport.NewNetwork(transport.WithDelay(netDelayMin, netDelayMax), transport.WithSeed(seed))
}

func memberIDs(n int) []proc.ID {
	out := make([]proc.ID, n)
	for i := range out {
		out[i] = proc.ID(fmt.Sprintf("s%d", i))
	}
	return out
}

// walBase is where write_durable_rate keeps its WAL: memory-backed /dev/shm
// when that can be written, so that fsync is free and a flush costs the
// stated delay and nothing else, as a network hop costs the stated delay;
// else the output directory, where the disk's own flush time is added. On
// this box's virtio disk that addition made lat_p50_ms 25 % higher and its
// spread over eight seeds 22 % instead of 2 % (README, "Bounds"). The medium
// is stamped on the row.
func walBase(out string) (dir, medium string) {
	if probe, err := os.MkdirTemp("/dev/shm", "gcs-bench-wal-"); err == nil {
		_ = os.Remove(probe)
		return "/dev/shm", "file WAL on tmpfs (/dev/shm): fsync is free, a flush costs the injected delay alone"
	}
	return out, "file WAL on the disk under " + out + ": the disk's own fsync adds to the injected delay"
}

// slowSyncEngine adds the stated device-flush delay to every Sync, as what a
// flush is: a blocking system call (see preciseSleep for why not a timer).
type slowSyncEngine struct {
	storage.Engine
	delay time.Duration
}

func (e *slowSyncEngine) Sync() error {
	preciseSleep(e.delay)
	return e.Engine.Sync()
}

// clusterOpts selects what a service cluster is built with.
type clusterOpts struct {
	seed     int64
	walBase  string // non-empty: file WAL in a fresh directory under this one, with syncDelay
	lease    bool   // leadership lease (linearizable reads served locally)
	failover bool   // monitoring + primary failover
	tr       *tracer
	// dropApply is installed on replica 1's state machine (drift guard).
	dropApply func(opKey) bool
}

// cluster is one in-process 3-node replicated service over seeded memnet:
// the full stack per node, a gateway each, batching on (the one write path
// ROADMAP 3 keeps).
type cluster struct {
	opts    clusterOpts
	walDir  string
	net     *transport.Network
	members []proc.ID
	nodes   []*core.Node
	reps    []*replication.Passive
	sms     []*oracleSM
	reads   []func(op []byte) []byte // the gateways' read functions
	gws     []*service.Gateway
	engines []storage.Engine
	startMs float64 // NewNode+Start of the three stacks (core.start_ms)
}

func buildCluster(o clusterOpts) (*cluster, error) {
	c := &cluster{opts: o, net: newNet(o.seed), members: memberIDs(3)}
	addrs := make(map[proc.ID]string, len(c.members))
	for _, id := range c.members {
		addrs[id] = string(id)
	}
	if o.walBase != "" {
		dir, err := os.MkdirTemp(o.walBase, "gcs-bench-wal-")
		if err != nil {
			return nil, err
		}
		c.walDir = dir
	}
	var coreTime time.Duration
	for i, id := range c.members {
		sm := newOracleSM()
		if i == 1 {
			sm.dropApply = o.dropApply
		}
		var psm replication.PassiveStateMachine = sm
		read := sm.read
		if o.tr != nil {
			tsm := &tracedSM{sm: sm, tr: o.tr, node: i}
			psm, read = tsm, tsm.read
		}
		c.reads = append(c.reads, read)
		rep := replication.NewPassive(psm, c.members)
		if c.walDir != "" {
			file, err := storage.Open(filepath.Join(c.walDir, string(id)), storage.Config{})
			if err != nil {
				c.stop()
				return nil, err
			}
			var eng storage.Engine = &slowSyncEngine{Engine: file, delay: syncDelay}
			if o.tr != nil {
				eng = &tracedEngine{Engine: eng, tr: o.tr, node: i}
			}
			c.engines = append(c.engines, eng)
			// Compaction off: it needs a Snapshotter and would put a second
			// writer on the disk mid-window.
			rep.SetStorage(replication.StorageConfig{Engine: eng, CompactBytes: -1})
		}
		var tr transport.Transport = c.net.Endpoint(id)
		deliver := rep.DeliverFunc()
		if o.tr != nil {
			tr = &tracedTransport{Transport: tr, tr: o.tr}
			deliver = o.tr.deliverFunc(i, deliver)
		}
		t0 := time.Now()
		nd, err := core.NewNode(tr, core.Config{
			Self: id, Universe: c.members,
			Relation:     replication.PassiveRelation(),
			StartMonitor: o.failover,
		}, deliver)
		if err != nil {
			c.stop()
			return nil, err
		}
		coreTime += time.Since(t0)
		rep.Bind(nd)
		rep.EnableBatching(replication.BatchConfig{})
		c.sms = append(c.sms, sm)
		c.reps = append(c.reps, rep)
		c.nodes = append(c.nodes, nd)
	}
	t0 := time.Now()
	for _, nd := range c.nodes {
		nd.Start()
	}
	coreTime += time.Since(t0)
	c.startMs = float64(coreTime) / 1e6
	for i, id := range c.members {
		if o.lease {
			c.reps[i].EnableLeaderLease(replication.LeaderLeaseConfig{TTL: leaseTTL})
		}
		if o.failover {
			c.reps[i].StartFailover(failoverSuspicion)
		}
		var replica service.Replica = c.reps[i]
		if o.tr != nil {
			replica = &tracedReplica{Replica: replica, tr: o.tr, node: i}
		}
		gw := service.NewGateway(service.GatewayConfig{
			Self: id, Replica: replica, Read: c.reads[i], Addrs: addrs, Batching: true,
		})
		l, err := c.net.ListenStream(id)
		if err != nil {
			c.stop()
			return nil, err
		}
		gw.Serve(l)
		c.gws = append(c.gws, gw)
	}
	return c, nil
}

// waitLease blocks until the primary has been granted the leadership lease,
// so the window measures lease reads, not the first grant's round trip.
func (c *cluster) waitLease() error {
	deadline := time.Now().Add(5 * time.Second)
	for c.reps[0].LeaderLeaseStats().Grants == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("leader lease never granted")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (c *cluster) dialer() service.Dialer {
	d := service.Dialer(func(addr string) (transport.StreamConn, error) {
		return c.net.DialStream(proc.ID(addr))
	})
	if c.opts.tr != nil {
		d = c.opts.tr.dialer(d)
	}
	return d
}

func (c *cluster) addrs() []string {
	out := make([]string, len(c.members))
	for i, id := range c.members {
		out[i] = string(id)
	}
	return out
}

// quiesce waits until the live replicas stand at the same commit index and
// have applied at least want writes, so the oracle compares settled state.
// Replicas that agree on an index that has stopped moving are settled too,
// whatever they applied: that is the oracle's business (and what the drift
// guard's dropped apply looks like).
func (c *cluster) quiesce(live []int, want uint64) {
	deadline := time.Now().Add(5 * time.Second)
	var last uint64
	lastMoved := time.Now()
	for time.Now().Before(deadline) {
		idx := c.reps[live[0]].CommitIndex()
		agree, applied := true, true
		for _, i := range live {
			agree = agree && c.reps[i].CommitIndex() == idx
			applied = applied && c.sms[i].state().applied >= want
		}
		if idx != last {
			last, lastMoved = idx, time.Now()
		}
		if agree && (applied || time.Since(lastMoved) > 100*time.Millisecond) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *cluster) stop() {
	// Batchers first: a crashed primary's gateway still holds writes parked in
	// RequestSession, and Gateway.Close waits for them. Stopping the batcher
	// releases them at once instead of after the 5 s request timeout.
	for _, rep := range c.reps {
		rep.DisableLeaderLease()
		rep.StopFailover()
		rep.StopBatching()
	}
	for _, gw := range c.gws {
		gw.Close()
	}
	for _, nd := range c.nodes {
		nd.Stop()
	}
	c.net.Shutdown()
	for _, eng := range c.engines {
		_ = eng.Close() // run over: nothing reads the WAL again
	}
	if c.walDir != "" {
		_ = os.RemoveAll(c.walDir)
	}
}

// gbCluster is a bare 3-node group (no replication, no service): the
// paper's own interface, used by gbcast_mix and the broadcast probes.
type gbCluster struct {
	net     *transport.Network
	members []proc.ID
	nodes   []*core.Node
	startMs float64
}

func buildGbCluster(seed int64, rel *gbcast.Relation, tr *tracer, deliver func(node int, d gbcast.Delivery)) (*gbCluster, error) {
	c := &gbCluster{net: newNet(seed), members: memberIDs(3)}
	t0 := time.Now()
	for i, id := range c.members {
		var ep transport.Transport = c.net.Endpoint(id)
		cb := core.DeliverFunc(func(d gbcast.Delivery) { deliver(i, d) })
		if tr != nil {
			ep = &tracedTransport{Transport: ep, tr: tr}
			cb = tr.deliverFunc(i, cb)
		}
		nd, err := core.NewNode(ep, core.Config{Self: id, Universe: c.members, Relation: rel}, cb)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	c.startMs = float64(time.Since(t0)) / 1e6
	return c, nil
}

func (c *gbCluster) stop() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	c.net.Shutdown()
}
