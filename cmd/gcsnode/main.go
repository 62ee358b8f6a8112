// Command gcsnode runs one member of a group over real TCP — the same
// stack the examples run in-process, deployed as separate OS processes.
//
// Every member is given the full peer map; each process runs the full
// Figure 9 stack. By default it broadcasts a numbered message once per
// second while printing everything it delivers, so total order is visible
// across terminals.
//
// Example (three shells):
//
//	gcsnode -self a -listen 127.0.0.1:7001 -peers a=127.0.0.1:7001,b=127.0.0.1:7002,c=127.0.0.1:7003
//	gcsnode -self b -listen 127.0.0.1:7002 -peers a=127.0.0.1:7001,b=127.0.0.1:7002,c=127.0.0.1:7003
//	gcsnode -self c -listen 127.0.0.1:7003 -peers a=127.0.0.1:7001,b=127.0.0.1:7002,c=127.0.0.1:7003
//
// With -service-listen (and -service-peers naming every member's service
// address), the node instead runs a passively replicated key-value store
// and exposes it to networked clients through the service gateway:
//
//	gcsnode -self a -listen 127.0.0.1:7001 -peers ... \
//	        -service-listen 127.0.0.1:8001 \
//	        -service-peers a=127.0.0.1:8001,b=127.0.0.1:8002,c=127.0.0.1:8003
//
// Clients (see examples/kvstore for the client side) send "put <k> <v>",
// "del <k>" writes and "get <k>" reads.
//
// With -service-shards S (all members passing the same S), the key space is
// hashed across S parallel replicated groups: every node runs S complete
// protocol stacks multiplexed over its single TCP endpoint (group mux), the
// per-shard primaries are spread across the members, and clients route each
// operation to its key's shard (gcs.DialSharded with kvdemo.Key).
//
// With -join, the process attaches to a RUNNING deployment as a catch-up
// follower instead of a full member: it installs a replica snapshot from
// the group (state transfer) and then follows the delivered-command log,
// serving reads at backup parity through its gateway while writes redirect
// to the primaries. A member that crashed and lost its disk rejoins this
// way under its old ID with a higher -incarnation.
//
// With -data-dir, the node is DURABLE: every shard logs its deliveries to
// a segmented WAL under <data-dir>/shard<k> (one fsync per commit window,
// riding the group-commit batcher) and seals with a snapshot on graceful
// shutdown. A restart — even after whole-cluster power loss — replays its
// own disk first, aligns with its peers by pulling only the delta it
// missed, and only then starts serving. Bump -incarnation on every
// restart; SIGINT/SIGTERM shut down gracefully (drain the gateway, final
// WAL sync + snapshot, exit 0).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	gcs "repro"
	"repro/internal/kvdemo"
)

// note is the demo message type.
type note struct {
	From string
	Seq  uint64
	Text string
}

func main() {
	var (
		self         = flag.String("self", "", "this process's ID")
		listen       = flag.String("listen", "", "listen address host:port")
		peersSpec    = flag.String("peers", "", "comma-separated id=host:port for every member (including self)")
		sendEvery    = flag.Duration("send-every", time.Second, "interval between demo broadcasts (0 = silent)")
		useAbcast    = flag.Bool("abcast", true, "broadcast with total order (false = rbcast)")
		svcListen    = flag.String("service-listen", "", "expose the service gateway on this address (enables the replicated KV store)")
		svcPeersSpec = flag.String("service-peers", "", "comma-separated id=host:port of every member's service gateway (for redirect hints)")
		svcBatch     = flag.Bool("service-batch", false, "pipelined gateway dispatch: run a session's queued writes concurrently instead of one at a time in seq order (replicas group-commit either way)")
		svcShards    = flag.Int("service-shards", 1, "shard the key space across this many parallel replicated groups (all members must agree)")
		svcTTL       = flag.Duration("service-session-ttl", time.Hour, "garbage-collect idle disconnected sessions after this lease (0 = never)")
		svcLease     = flag.Duration("service-lease-ttl", 0, "replicated session lease: expire (session, seq) dedup records idle for this long as ordered messages, bounding the replicated table (0 = never)")
		svcWatchdog  = flag.Duration("service-watchdog", 2*time.Second, "quorum-progress watchdog: a primary whose ordered sequence stalls this long with work pending answers new writes DEGRADED (fail fast, retryable) instead of queueing them to their timeouts; keep it above the failover suspicion timeout (0 = disabled)")
		svcLdrLease  = flag.Duration("service-leader-lease", 0, "leadership lease TTL: the primary renews an ordered lease and serves linearizable reads locally while it holds (no per-read barrier); TTL plus a TTL/4 drift margin must fit under the 500ms failover suspicion timeout, so at most 400ms (0 = disabled)")
		join         = flag.Bool("join", false, "join a RUNNING service deployment as a catch-up follower: install a replica snapshot from the group and follow its command log, serving reads at backup parity (requires -service-listen; -peers lists the full members)")
		incarnation  = flag.Uint64("incarnation", 1, "with -join or -data-dir: this process's incarnation; increase it on every restart")
		dataDir      = flag.String("data-dir", "", "durable storage root (requires -service-listen): shard k's WAL segments and snapshots live in <data-dir>/shard<k>; every acknowledged write is fsynced before its ack, and a restart replays local disk, then pulls only the missing delta from the group")
		adminListen  = flag.String("admin-listen", "", "expose the admin/debug HTTP endpoint on this address: /metrics (Prometheus), /healthz, /debug/traces, /debug/pprof")
	)
	flag.Parse()
	if err := run(*self, *listen, *peersSpec, *sendEvery, *useAbcast, *svcListen, *svcPeersSpec, *svcBatch, *svcShards, *svcTTL, *svcLease, *svcWatchdog, *svcLdrLease, *join, *incarnation, *dataDir, *adminListen); err != nil {
		fmt.Fprintln(os.Stderr, "gcsnode:", err)
		os.Exit(1)
	}
}

// admin bundles the optional observability wiring of one gcsnode process:
// nil when -admin-listen is absent, in which case every hookup below is a
// no-op (the instruments stay unregistered and the hot paths pay a single
// nil-check).
type admin struct {
	reg    *gcs.MetricsRegistry
	tracer *gcs.OpTracer
	scope  *gcs.MetricsScope // node=<self>
	health []gcs.AdminHealthCheck
}

// newAdmin builds the registry/tracer pair for one node.
func newAdmin(self string) *admin {
	reg := gcs.NewMetricsRegistry()
	return &admin{
		reg:    reg,
		tracer: gcs.NewOpTracer(gcs.OpTracerConfig{}),
		scope:  reg.Scope(gcs.Label("node", self)),
	}
}

// shardScope returns the node scope narrowed to one shard.
func (a *admin) shardScope(k int) *gcs.MetricsScope {
	if a == nil {
		return nil
	}
	return a.scope.With(gcs.Label("shard", strconv.Itoa(k)))
}

// check appends a /healthz probe.
func (a *admin) check(name string, fn func() (bool, string)) {
	if a != nil {
		a.health = append(a.health, gcs.AdminHealthCheck{Name: name, Check: fn})
	}
}

// freshnessCheck appends a commit-freshness probe for one shard: the
// replicated lease ticks the commit index LeaseTTLTicks times per TTL, so
// an index that has not moved for 2×TTL means the shard's ordered path has
// stalled (no quorum, partitioned primary). Only meaningful with the lease
// enabled — an idle deployment without it legitimately never advances.
func (a *admin) freshnessCheck(k int, lease time.Duration, commitIndex func() uint64) {
	if a == nil || lease <= 0 {
		return
	}
	var mu sync.Mutex
	lastIdx := uint64(0)
	lastMove := time.Now()
	stale := 2 * lease
	a.check(fmt.Sprintf("shard%d_commit_fresh", k), func() (bool, string) {
		idx := commitIndex()
		mu.Lock()
		defer mu.Unlock()
		if idx > lastIdx {
			lastIdx = idx
			lastMove = time.Now()
		}
		age := time.Since(lastMove)
		return age < stale, fmt.Sprintf("commit=%d last_advance=%s ago", idx, age.Round(time.Millisecond))
	})
}

// storageCheck appends the /healthz storage block for one durable shard:
// WAL footprint, snapshot position, fsync count and the restart replay
// counters — always healthy while the engine answers, informational by
// design (a torn tail cut at open is recovery working, not a failure).
func (a *admin) storageCheck(k int, stats func() gcs.StorageStats) {
	if a == nil {
		return
	}
	a.check(fmt.Sprintf("shard%d_storage", k), func() (bool, string) {
		st := stats()
		return true, fmt.Sprintf("wal_bytes=%d segments=%d snapshot@%d fsyncs=%d torn_tails=%d replayed_records=%d replayed_snapshot@%d",
			st.WALBytes, st.Segments, st.SnapshotIndex, st.Syncs, st.TornTails,
			st.Replayed.Records, st.Replayed.SnapshotIndex)
	})
}

// openShardStorage opens (or recovers) shard k's durable engine under
// dataDir, reporting what open-time recovery had to cut.
func openShardStorage(dataDir string, k int) (*gcs.FileStorage, error) {
	eng, err := gcs.OpenFileStorage(filepath.Join(dataDir, fmt.Sprintf("shard%d", k)), gcs.FileStorageConfig{})
	if err != nil {
		return nil, fmt.Errorf("shard %d storage: %w", k, err)
	}
	if st := eng.Stats(); st.TornTails > 0 {
		fmt.Printf("[storage] shard %d: cut %d torn WAL tail(s) at open (power died mid-write)\n", k, st.TornTails)
	}
	return eng, nil
}

// serve binds the admin endpoint and starts serving; the returned closer
// stops it.
func (a *admin) serve(addr string) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen: %w", err)
	}
	srv := &http.Server{Handler: gcs.NewAdminHandler(gcs.AdminConfig{
		Registry: a.reg,
		Tracer:   a.tracer,
		Health:   a.health,
	})}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("admin endpoint on http://%s/ (/metrics /healthz /debug/traces /debug/pprof)\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

func run(self, listen, peersSpec string, sendEvery time.Duration, useAbcast bool, svcListen, svcPeersSpec string, svcBatch bool, svcShards int, svcTTL, svcLease, svcWatchdog, svcLdrLease time.Duration, join bool, incarnation uint64, dataDir, adminListen string) error {
	if self == "" || listen == "" || peersSpec == "" {
		return fmt.Errorf("-self, -listen and -peers are required")
	}
	if dataDir != "" && svcListen == "" {
		return fmt.Errorf("-data-dir requires -service-listen (durability lives under the replicated service)")
	}
	peers, err := parsePeers(peersSpec)
	if err != nil {
		return err
	}
	if _, ok := peers[gcs.ID(self)]; !ok && !join {
		// A joining follower is NOT a member: its -peers lists the running
		// members (the donors) only; they learn its dial-back address from
		// the transport handshake.
		return fmt.Errorf("self %q not in peer map", self)
	}
	universe := make([]gcs.ID, 0, len(peers))
	for id := range peers {
		universe = append(universe, id)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })

	serviceMode := svcListen != ""
	if svcShards < 1 {
		return fmt.Errorf("-service-shards %d < 1", svcShards)
	}
	baseCfg := gcs.Config{
		Self:     gcs.ID(self),
		Universe: universe,
		// TCP between real processes: slightly relaxed timing defaults.
		RTO:              50 * time.Millisecond,
		HeartbeatEvery:   20 * time.Millisecond,
		SuspicionTimeout: 200 * time.Millisecond,
		ExclusionTimeout: 2 * time.Second,
		StartMonitor:     true,
	}

	tr, err := gcs.NewTCPTransport(gcs.ID(self), listen, peers)
	if err != nil {
		return err
	}

	var adm *admin
	if adminListen != "" {
		adm = newAdmin(self)
		gcs.RegisterTransportMetrics(tr, adm.scope)
	}

	if join {
		// Catch-up follower: no vote, no broadcast — install a snapshot
		// from the running group, then follow its command log forever,
		// serving reads at backup parity through the local gateway.
		if !serviceMode {
			return fmt.Errorf("-join requires -service-listen (followers exist to serve the KV service)")
		}
		donors := make([]gcs.ID, 0, len(universe))
		for _, id := range universe {
			if id != gcs.ID(self) {
				donors = append(donors, id)
			}
		}
		if len(donors) == 0 {
			return fmt.Errorf("-join needs at least one donor in -peers")
		}
		mux := gcs.NewGroupMux(tr, svcShards)
		defer mux.Close()
		svcAddrs, err := parseOptionalPeers(svcPeersSpec)
		if err != nil {
			return fmt.Errorf("service peers: %w", err)
		}
		var shards []gcs.ServiceShard
		var followers []*gcs.Follower
		for k := 0; k < svcShards; k++ {
			store := kvdemo.New()
			fcfg := gcs.FollowerConfig{
				Self:         gcs.ID(self),
				Donors:       donors,
				Incarnation:  incarnation,
				Snapshot:     store.Snapshot,
				Restore:      store.Restore,
				RTO:          50 * time.Millisecond,
				PullInterval: 20 * time.Millisecond,
				PullTimeout:  2 * time.Second,
			}
			if dataDir != "" {
				eng, err := openShardStorage(dataDir, k)
				if err != nil {
					return err
				}
				fcfg.Storage = eng
			}
			f, err := gcs.NewFollowerNode(mux.Group(k), store, fcfg)
			if err != nil {
				return fmt.Errorf("shard %d: %w", k, err)
			}
			if rs := f.Replayed; rs.Records > 0 || rs.SnapshotIndex > 0 {
				fmt.Printf("[storage] shard %d: replayed snapshot@%d + %d WAL records from disk; pulling only the delta\n",
					k, rs.SnapshotIndex, rs.Records)
			}
			defer func(k int, f *gcs.Follower) {
				if err := f.Stop(); err != nil {
					fmt.Fprintf(os.Stderr, "shard %d: seal storage: %v\n", k, err)
				} else if dataDir != "" {
					fmt.Printf("[storage] shard %d sealed (WAL synced, snapshot written)\n", k)
				}
			}(k, f)
			followers = append(followers, f)
			shards = append(shards, gcs.ServiceShard{Replica: f.Replica, Read: store.Read})
			if adm != nil {
				f.RegisterMetrics(adm.shardScope(k))
				k, f := k, f
				adm.check(fmt.Sprintf("shard%d_installed", k), func() (bool, string) {
					select {
					case <-f.Installed():
						return true, fmt.Sprintf("commit=%d", f.Replica.CommitIndex())
					default:
						return false, "catching up"
					}
				})
				adm.freshnessCheck(k, svcLease, f.Replica.CommitIndex)
				if dataDir != "" {
					adm.storageCheck(k, f.Replica.StorageStats)
				}
			}
		}
		l, err := gcs.ListenServiceTCP(svcListen)
		if err != nil {
			return err
		}
		gw := gcs.Serve(gcs.ServiceGatewayConfig{
			Self:   gcs.ID(self),
			Shards: shards,
			Addrs:  svcAddrs,
			// Same lease knobs as a member gateway: with LeaseTTL set, the
			// follower's janitor forwards its sessions' renewals to the
			// primary (replication.LeaseRenew), so clients attached HERE
			// keep their replicated dedup records alive.
			SessionTTL: svcTTL,
			LeaseTTL:   svcLease,
		}, l)
		defer gw.Close()
		if adm != nil {
			gw.RegisterMetrics(adm.scope)
			gw.SetTracer(adm.tracer)
			stopAdmin, err := adm.serve(adminListen)
			if err != nil {
				return err
			}
			defer stopAdmin()
		}
		fmt.Printf("gcsnode %s joining as follower (incarnation %d); donors %v; %d shard(s); gateway on %s\n",
			self, incarnation, donors, svcShards, l.Addr())
		go func() {
			for k, f := range followers {
				<-f.Installed()
				fmt.Printf("[join] shard %d installed (commit index %d)\n", k, f.Replica.CommitIndex())
			}
			fmt.Println("[join] caught up on every shard; serving reads at backup parity")
		}()
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
		if dataDir != "" {
			fmt.Println("shutting down: draining gateway sessions, sealing WAL + snapshot")
		} else {
			fmt.Println("shutting down")
		}
		return nil
	}

	var node *gcs.Node // demo-mode broadcaster (nil in service mode)
	if serviceMode {
		// One replicated group per shard, every group's full protocol stack
		// multiplexed over the single TCP endpoint. Shard k's replica list
		// is the universe rotated by k, spreading the per-shard primaries
		// across the node set.
		mux := gcs.NewGroupMux(tr, svcShards)
		defer mux.Close()
		svcAddrs, err := parseOptionalPeers(svcPeersSpec)
		if err != nil {
			return fmt.Errorf("service peers: %w", err)
		}
		var shards []gcs.ServiceShard
		type memberShard struct {
			k       int
			store   *kvdemo.Store
			replica *gcs.PassiveReplica
			rec     *gcs.ReplicaRecovery
		}
		var members []*memberShard
		// Phase 1 — assemble and start every shard's stack. Durable shards
		// replay their own disk BEFORE the stack runs, so every peer answers
		// sync pulls from its replayed height during phase 2.
		for k := 0; k < svcShards; k++ {
			store := kvdemo.New()
			view := append(append([]gcs.ID{}, universe[k%len(universe):]...), universe[:k%len(universe)]...)
			replica := gcs.NewPassiveReplica(store, view)
			replica.SetSnapshotter(gcs.ReplicaSnapshotter{Snapshot: store.Snapshot, Restore: store.Restore})
			cfg := baseCfg
			cfg.Relation = gcs.PassiveRelation()
			// State transfer for mid-life joiners (gcsnode -join): the hook
			// captures the replica snapshot at the ordered join's delivery
			// point.
			cfg.Snapshot = replica.EncodeSnapshot
			cfg.Restore = func(b []byte) { _ = replica.InstallSnapshot(b) }
			if dataDir != "" {
				eng, err := openShardStorage(dataDir, k)
				if err != nil {
					return err
				}
				replica.SetStorage(gcs.ReplicaStorageConfig{Engine: eng})
				rs, err := replica.ReplayStorage()
				if err != nil {
					return fmt.Errorf("shard %d: replay: %w", k, err)
				}
				if rs.SnapshotIndex > 0 || rs.Records > 0 {
					fmt.Printf("[storage] shard %d: replayed snapshot@%d + %d WAL records (%d ops) from disk\n",
						k, rs.SnapshotIndex, rs.Records, rs.Ops)
				}
				// Sealed on the way out, AFTER the stack stops delivering:
				// final WAL sync plus a shutdown snapshot, so the next start
				// replays without needing a donor.
				rep := replica
				defer func(k int) {
					if err := rep.CloseStorage(); err != nil {
						fmt.Fprintf(os.Stderr, "shard %d: seal storage: %v\n", k, err)
					} else {
						fmt.Printf("[storage] shard %d sealed (WAL synced, snapshot written)\n", k)
					}
				}(k)
				// A restarted durable member must not be mistaken for its
				// previous life by peers' reliable channels.
				cfg.Incarnation = incarnation
			}
			shardNode, err := gcs.NewNode(mux.Group(k), cfg, replica.DeliverFunc())
			if err != nil {
				return fmt.Errorf("shard %d: %w", k, err)
			}
			if k == 0 {
				shardNode.OnView(func(v gcs.View) {
					fmt.Printf("[view] %v\n", v)
				})
			}
			var rec *gcs.ReplicaRecovery
			if dataDir != "" {
				// Registers the donor side too — the durable replacement for
				// ServeReplicaSync, plus the restart-alignment runner.
				rec = gcs.NewReplicaRecovery(shardNode, replica, universe)
			} else {
				// Donor side of the follower state-transfer protocol; must be
				// registered before the stack starts.
				gcs.ServeReplicaSync(shardNode, replica)
			}
			// Bind before Start: deliveries may arrive as soon as the stack
			// runs.
			replica.Bind(shardNode)
			shardNode.Start()
			defer shardNode.Stop()
			members = append(members, &memberShard{k: k, store: store, replica: replica, rec: rec})
			if adm != nil {
				scope := adm.shardScope(k)
				shardNode.RegisterMetrics(scope)
				replica.RegisterMetrics(scope)
				replica.SetTracer(adm.tracer)
				k, sn, rep := k, shardNode, replica
				quorum := len(universe)/2 + 1
				adm.check(fmt.Sprintf("shard%d_quorum", k), func() (bool, string) {
					v := sn.View()
					return len(v.Members) >= quorum,
						fmt.Sprintf("view %v (need %d)", v.Members, quorum)
				})
				adm.check(fmt.Sprintf("shard%d_primary", k), func() (bool, string) {
					p := rep.Primary()
					return p != "", fmt.Sprintf("primary=%s commit=%d epoch=%d", p, rep.CommitIndex(), rep.Epoch())
				})
				adm.check(fmt.Sprintf("shard%d_quorum_progress", k), func() (bool, string) {
					if rep.Degraded() {
						return false, fmt.Sprintf("degraded: quorum progress stalled, failing writes fast (trips=%d)", rep.DegradedTrips())
					}
					return true, fmt.Sprintf("ok (trips=%d)", rep.DegradedTrips())
				})
				adm.freshnessCheck(k, svcLease, rep.CommitIndex)
				if dataDir != "" {
					adm.storageCheck(k, rep.StorageStats)
				}
			}
		}

		// Phase 2 — durable restart alignment: each shard pulls only the
		// delta its disk missed from whichever peers answer, before anything
		// serves clients. A fresh deployment (empty dirs, peers still
		// booting) settles immediately. All shards align concurrently.
		if dataDir != "" {
			fmt.Printf("[storage] aligning %d shard(s) with the group before serving\n", svcShards)
			errc := make(chan error, len(members))
			for _, s := range members {
				go func(s *memberShard) {
					if err := s.rec.Run(30 * time.Second); err != nil {
						errc <- fmt.Errorf("shard %d recovery: %w", s.k, err)
						return
					}
					st := s.rec.Stats()
					fmt.Printf("[storage] shard %d aligned at commit index %d (%d entries, %d snapshots pulled over %d rounds)\n",
						s.k, s.replica.CommitIndex(), st.Entries, st.Snapshots, st.Rounds)
					errc <- nil
				}(s)
			}
			for range members {
				if err := <-errc; err != nil {
					return err
				}
			}
		}

		// The lease windows must be disjoint from a successor's first writes:
		// TTL + Margin (TTL/4 default) may not exceed the failover suspicion
		// timeout below, or a deposed primary could still be inside its
		// nominal lease when the group elects around it.
		const suspicion = 500 * time.Millisecond
		if svcLdrLease > 0 && svcLdrLease+svcLdrLease/4 > suspicion {
			return fmt.Errorf("-service-leader-lease %v too long: TTL + TTL/4 margin must fit under the %v failover suspicion timeout (max %v)",
				svcLdrLease, suspicion, suspicion*4/5)
		}

		// Phase 3 — only an aligned replica may campaign, and the gateway,
		// the only source of writes, starts after this loop: no write is
		// admitted before alignment.
		for _, s := range members {
			s.replica.StartFailover(suspicion)
			defer s.replica.StopFailover()
			defer s.replica.StopBatching()
			if svcWatchdog > 0 {
				// Above the failover suspicion timeout, or an ordinary
				// election would look like a stall.
				s.replica.StartWatchdog(gcs.ReplicaWatchdogConfig{StallTimeout: svcWatchdog})
				defer s.replica.StopWatchdog()
			}
			if svcLdrLease > 0 {
				s.replica.EnableLeaderLease(gcs.LeaderLeaseConfig{TTL: svcLdrLease})
				defer s.replica.DisableLeaderLease()
			}
			shards = append(shards, gcs.ServiceShard{Replica: s.replica, Read: s.store.Read})
		}
		l, err := gcs.ListenServiceTCP(svcListen)
		if err != nil {
			return err
		}
		gw := gcs.Serve(gcs.ServiceGatewayConfig{
			Self:       gcs.ID(self),
			Shards:     shards,
			Addrs:      svcAddrs,
			Batching:   svcBatch,
			SessionTTL: svcTTL,
			LeaseTTL:   svcLease,
		}, l)
		defer gw.Close()
		if adm != nil {
			gw.RegisterMetrics(adm.scope)
			gw.SetTracer(adm.tracer)
			stopAdmin, err := adm.serve(adminListen)
			if err != nil {
				return err
			}
			defer stopAdmin()
		}
		fmt.Printf("gcsnode %s up; universe %v; %d shard(s); service gateway on %s\n",
			self, universe, svcShards, l.Addr())
	} else {
		gcs.RegisterType(note{})
		node, err = gcs.NewNode(tr, baseCfg, func(d gcs.Delivery) {
			if n, ok := d.Body.(note); ok {
				fmt.Printf("[deliver %-6s] %s #%d: %s\n", d.Class, n.From, n.Seq, n.Text)
			}
		})
		if err != nil {
			return err
		}
		node.OnView(func(v gcs.View) {
			fmt.Printf("[view] %v\n", v)
		})
		node.Start()
		defer node.Stop()
		if adm != nil {
			node.RegisterMetrics(adm.scope)
			stopAdmin, err := adm.serve(adminListen)
			if err != nil {
				return err
			}
			defer stopAdmin()
		}
		fmt.Printf("gcsnode %s up; universe %v\n", self, universe)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var seq uint64
	var tick <-chan time.Time
	if !serviceMode && sendEvery > 0 {
		ticker := time.NewTicker(sendEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-stop:
			if dataDir != "" {
				fmt.Println("shutting down: draining gateway sessions, sealing WAL + snapshot")
			} else {
				fmt.Println("shutting down")
			}
			return nil
		case <-tick:
			seq++
			n := note{From: self, Seq: seq, Text: fmt.Sprintf("hello from %s", self)}
			var err error
			if useAbcast {
				err = node.Abcast(n)
			} else {
				err = node.Rbcast(n)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "broadcast:", err)
			}
		}
	}
}

// parseOptionalPeers parses an id=addr list, returning an empty map for "".
func parseOptionalPeers(spec string) (map[gcs.ID]string, error) {
	if spec == "" {
		return make(map[gcs.ID]string), nil
	}
	return parsePeers(spec)
}

func parsePeers(spec string) (map[gcs.ID]string, error) {
	peers := make(map[gcs.ID]string)
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		peers[gcs.ID(id)] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("empty peer map")
	}
	return peers, nil
}
