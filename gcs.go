package gcs

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/gbcast"
	"repro/internal/membership"
	"repro/internal/monitoring"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Type aliases re-exporting the stack's vocabulary so that users of the
// library can name every type that appears in its API.
type (
	// ID identifies a process.
	ID = proc.ID
	// View is an ordered member list; the head is the primary.
	View = proc.View
	// Delivery is a message delivered by the stack.
	Delivery = gbcast.Delivery
	// DeliverFunc consumes deliveries.
	DeliverFunc = core.DeliverFunc
	// Relation is a conflict relation over message classes.
	Relation = gbcast.Relation
	// RelationBuilder declares classes and conflicts.
	RelationBuilder = gbcast.RelationBuilder
	// Config parameterises a node.
	Config = core.Config
	// Node is one process's protocol stack.
	Node = core.Node
	// Network is the in-memory simulated network with fault injection.
	Network = transport.Network
	// NetOption configures the simulated network.
	NetOption = transport.NetOption
	// Transport is the unreliable transport abstraction.
	Transport = transport.Transport
	// FaultTransport wraps any Transport with seeded, per-destination
	// directed fault injection — drops, one-way blackholes, delay/jitter,
	// duplication, reordering — plus scripted schedules (RunSchedule) for
	// flapping partitions. Idle (no rules) it passes through at one atomic
	// load per send.
	FaultTransport = transport.FaultTransport
	// FaultRule is one directed link's fault profile.
	FaultRule = transport.FaultRule
	// FaultStats counts a FaultTransport's interventions.
	FaultStats = transport.FaultStats
	// FaultStep is one step of a scripted fault schedule.
	FaultStep = transport.FaultStep
	// MonitoringPolicy configures exclusion decisions.
	MonitoringPolicy = monitoring.Policy
	// BroadcastStats counts fast/ordered deliveries and epoch boundaries.
	BroadcastStats = gbcast.Stats
	// Snapshotter provides state transfer for joiners.
	Snapshotter = membership.Snapshotter

	// PassiveReplica is one replica of a passively replicated service
	// (Section 3.2.3 / Figure 8).
	PassiveReplica = replication.Passive
	// PassiveStateMachine is the application behind passive replication.
	PassiveStateMachine = replication.PassiveStateMachine
	// BatchConfig bounds the primary's group-commit batches
	// (PassiveReplica.EnableBatching). Group commit is the replica's only
	// write path: concurrent writes coalesce into one g-broadcast per
	// commit window, and an isolated write is a batch of one.
	BatchConfig = replication.BatchConfig
	// BatchStats is the batcher's accounting.
	BatchStats = replication.BatchStats
	// BarrierStats is the linearizable read barrier's accounting
	// (PassiveReplica.ReadBarrierStats): broadcasts vs reads shows how many
	// concurrent linearizable reads coalesced into one ordered no-op.
	BarrierStats = replication.BarrierStats
	// LeaseStats is the replicated session lease's accounting
	// (PassiveReplica.LeaseStats).
	LeaseStats = replication.LeaseStats
	// LeaderLeaseConfig tunes the leadership lease
	// (PassiveReplica.EnableLeaderLease): a primary holding a live,
	// ordered-granted lease serves linearizable reads locally with no
	// per-read barrier broadcast. TTL+Margin must stay at or below the
	// failover suspicion timeout.
	LeaderLeaseConfig = replication.LeaderLeaseConfig
	// LeaderLeaseStats is the leadership lease's accounting
	// (PassiveReplica.LeaderLeaseStats): lease-path reads vs barrier
	// fallbacks shows how much of the linearizable read load escaped the
	// ordered path.
	LeaderLeaseStats = replication.LeaderLeaseStats
	// ReplicaWatchdogConfig tunes the quorum-progress watchdog
	// (PassiveReplica.StartWatchdog): a primary whose ordered sequence
	// stalls for StallTimeout with work pending fails new writes fast with
	// ErrReplicaDegraded instead of queueing them until their timeouts, and
	// re-admits automatically on the first post-heal delivery.
	ReplicaWatchdogConfig = replication.WatchdogConfig
	// ReadLevel selects the consistency of ServiceClient reads: ReadLocal,
	// ReadMonotonic (the default), ReadLinearizable or ReadBoundedStaleness.
	ReadLevel = service.ReadLevel
	// ServiceGateway accepts networked client sessions at one node.
	ServiceGateway = service.Gateway
	// ServiceGatewayConfig parameterises a gateway.
	ServiceGatewayConfig = service.GatewayConfig
	// ServiceShard is one replicated group behind a sharded gateway
	// (ServiceGatewayConfig.Shards): the node's replica of that group plus
	// its read function.
	ServiceShard = service.Shard
	// ServiceClient is the networked client of the replicated service.
	ServiceClient = service.Client
	// ServiceClientConfig parameterises a client.
	ServiceClientConfig = service.ClientConfig
	// ServiceClientStats is a client's recovery accounting: dial attempts,
	// handshake failures, primary redirects chased and TIMEOUT/UNAVAILABLE
	// answers retried (ServiceClient.Stats / ShardedServiceClient.Stats).
	ServiceClientStats = service.ClientStats
	// ShardedServiceClient routes every operation to its key's shard —
	// the client of deployments running several replicated groups.
	ShardedServiceClient = service.ShardedClient
	// ShardedServiceClientConfig parameterises a sharded client.
	ShardedServiceClientConfig = service.ShardedClientConfig
	// ServiceDialer opens stream connections to gateway addresses.
	ServiceDialer = service.Dialer
	// GroupMux multiplexes several replicated groups' protocol stacks over
	// one physical transport endpoint (frames tagged with a group ID), so S
	// shards do not cost S×N connections.
	GroupMux = transport.GroupMux
	// StreamListener accepts client sessions (TCP or memnet).
	StreamListener = transport.StreamListener
	// StreamConn is one framed client connection.
	StreamConn = transport.StreamConn

	// ReplicaSnapshotter supplies/restores the application state machine's
	// state for replica snapshots (crash recovery & mid-life join).
	ReplicaSnapshotter = replication.Snapshotter
	// ServiceReplica is the replica handle a gateway drives — satisfied by
	// both full passive replicas and catch-up followers, so a gateway's
	// shard can be re-pointed at a rebuilt replica (ReplaceShard).
	ServiceReplica = service.Replica

	// StorageEngine is the pluggable durability layer under a replica: an
	// ordered WAL plus an atomic snapshot slot, keyed by commit index.
	// Attach one with PassiveReplica.SetStorage (ReplicaStorageConfig) and
	// every counted delivery is logged — and fsynced once per commit window
	// — before its acknowledgement can leave the node.
	StorageEngine = storage.Engine
	// FileStorage is the file-backed engine: segmented CRC-framed WAL with
	// torn-tail recovery, snapshot-to-disk, segment truncation after
	// snapshots. It survives whole-cluster power loss.
	FileStorage = storage.File
	// MemoryStorage is the in-process engine — the zero-durability default
	// semantics, useful for tests of the storage boundary itself.
	MemoryStorage = storage.Memory
	// FileStorageConfig tunes the file engine (segment size, write buffer).
	FileStorageConfig = storage.Config
	// StorageEngineStats is one engine's accounting (WAL bytes, segments,
	// fsyncs, torn tails cut at open).
	StorageEngineStats = storage.Stats
	// ReplicaStorageConfig attaches an engine to a replica
	// (PassiveReplica.SetStorage): the engine plus the WAL growth bound
	// that triggers background snapshot compaction.
	ReplicaStorageConfig = replication.StorageConfig
	// StorageStats is a replica's view of its durable layer: engine
	// accounting plus what the last ReplayStorage rebuilt
	// (PassiveReplica.StorageStats).
	StorageStats = replication.StorageStats
	// StorageReplayStats reports what a restart replayed from local disk
	// (PassiveReplica.ReplayStorage).
	StorageReplayStats = replication.ReplayStats
	// ReplicaRecovery aligns a durable group restarting from disk: each
	// member replays locally, then pulls only the missing delta from the
	// peers before serving (NewReplicaRecovery).
	ReplicaRecovery = replication.Recovery
	// ReplicaRecoveryStats is the recovery phase's accounting.
	ReplicaRecoveryStats = replication.RecoveryStats

	// MetricsRegistry is the node-wide telemetry registry: counters, gauges
	// and latency histograms, exported in Prometheus text format.
	MetricsRegistry = telemetry.Registry
	// MetricsScope is a registry view with bound labels (node=, shard=).
	MetricsScope = telemetry.Scope
	// MetricsLabel is one label dimension of a metric series.
	MetricsLabel = telemetry.Label
	// LatencyHistogram is the fixed-bucket latency histogram (p50/p99/p999
	// without per-sample allocation).
	LatencyHistogram = telemetry.Histogram
	// OpTracer samples per-request traces across the gateway and
	// replication layers and captures slow ops.
	OpTracer = telemetry.Tracer
	// OpTracerConfig parameterises an OpTracer.
	OpTracerConfig = telemetry.TracerConfig
	// AdminConfig parameterises the admin/debug HTTP handler
	// (/metrics, /healthz, /debug/traces, /debug/pprof).
	AdminConfig = telemetry.AdminConfig
	// AdminHealthCheck is one named /healthz probe.
	AdminHealthCheck = telemetry.HealthCheck
)

// NewMetricsRegistry creates a telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// Label constructs a metric label (e.g. Label("shard", "2")).
func Label(key, value string) MetricsLabel { return telemetry.L(key, value) }

// NewOpTracer creates an op tracer.
func NewOpTracer(cfg OpTracerConfig) *OpTracer { return telemetry.NewTracer(cfg) }

// NewAdminHandler builds the admin/debug HTTP handler over a registry,
// tracer and health checks.
func NewAdminHandler(cfg AdminConfig) http.Handler { return telemetry.NewAdminHandler(cfg) }

// RegisterTransportMetrics exports a transport's accounting under scope.
// TCP endpoints and the simulated Network are instrumented (frames/bytes
// in and out, write-queue depth, frame-pool hit rate); other transports
// are a no-op.
func RegisterTransportMetrics(tr Transport, s *MetricsScope) {
	type registrar interface{ RegisterMetrics(*telemetry.Scope) }
	if r, ok := tr.(registrar); ok {
		r.RegisterMetrics(s)
	}
}

// ErrServiceUnavailable is the typed error a service client returns when an
// operation exhausts its OpTimeout without any gateway serving it (e.g. the
// entire primary set briefly unreachable): errors.Is(err,
// ErrServiceUnavailable) distinguishes "retry later" from terminal errors.
var ErrServiceUnavailable = service.ErrUnavailable

// ErrReplicaDegraded is the typed error a quorumless primary answers new
// writes and barriers with while its quorum-progress watchdog has tripped
// (PassiveReplica.StartWatchdog): retryable — try another replica or wait
// for heal; the service layer maps it to a DEGRADED answer.
var ErrReplicaDegraded = replication.ErrDegraded

// NewFaultTransport wraps tr with deterministic (seeded) fault injection;
// see FaultTransport. The wrapper owns tr: Close closes it.
func NewFaultTransport(tr Transport, seed int64) *FaultTransport {
	return transport.NewFaultTransport(tr, seed)
}

// Read consistency levels of the service client (see service.ReadLevel).
const (
	// ReadDefault selects the client's configured default (ReadMonotonic).
	ReadDefault = service.ReadDefault
	// ReadLocal serves from the contacted gateway's local state (may be
	// stale at a lagging or partitioned gateway).
	ReadLocal = service.ReadLocal
	// ReadMonotonic never travels backwards in time for the session: any
	// gateway answers only once its replica has reached the session's
	// last-seen commit index.
	ReadMonotonic = service.ReadMonotonic
	// ReadLinearizable reflects every write acknowledged before the read
	// began, via an ordered no-op barrier at the primary — or, with the
	// leadership lease enabled, from the lease holder's local state with no
	// broadcast at all.
	ReadLinearizable = service.ReadLinearizable
	// ReadBoundedStaleness serves from any replica whose applied state is
	// within the per-call bound of the primary's commit timestamps
	// (ServiceClient.ReadAtMost); outside the bound the read is retried
	// rather than silently served stale.
	ReadBoundedStaleness = service.ReadBoundedStaleness
)

// Default class names of the standard relation (Section 3.3 of the paper).
const (
	// ClassRbcast is the fast class: not ordered against itself.
	ClassRbcast = gbcast.ClassRbcast
	// ClassAbcast is the ordered class: ordered against everything.
	ClassAbcast = gbcast.ClassAbcast
)

// RegisterType registers a concrete message type with the wire codec. Call
// it once per application message type before broadcasting values of that
// type (typically from a package-level registration helper).
func RegisterType(v any) {
	msg.Register(v)
}

// NewRelationBuilder starts the declaration of a custom conflict relation.
func NewRelationBuilder() *RelationBuilder {
	return gbcast.NewRelationBuilder()
}

// DefaultRelation returns the paper's standard relation: fast "rbcast"
// conflicting with ordered "abcast".
func DefaultRelation() *Relation {
	return gbcast.DefaultRelation()
}

// NewNetwork creates an in-memory simulated network.
func NewNetwork(opts ...NetOption) *Network {
	return transport.NewNetwork(opts...)
}

// Simulated network options.
var (
	// WithDelay sets the one-way latency range of the simulated network.
	WithDelay = transport.WithDelay
	// WithLoss sets the packet loss probability.
	WithLoss = transport.WithLoss
	// WithSeed makes loss and jitter reproducible.
	WithSeed = transport.WithSeed
)

// NewNode builds a node of the new-architecture stack over an arbitrary
// transport endpoint.
func NewNode(tr Transport, cfg Config, deliver DeliverFunc) (*Node, error) {
	return core.NewNode(tr, cfg, deliver)
}

// NewTCPTransport creates a TCP transport endpoint for multi-process
// deployments; peers maps every process ID to its listen address.
func NewTCPTransport(self ID, listenAddr string, peers map[ID]string) (Transport, error) {
	return transport.NewTCP(self, listenAddr, peers)
}

// NewPassiveReplica creates a replica of a passively replicated service;
// replicas is the initial replica list (identical everywhere), its head the
// initial primary. Wire the replica's DeliverFunc into NewNode (with the
// PassiveRelation) and Bind it to the started node.
func NewPassiveReplica(sm PassiveStateMachine, replicas []ID) *PassiveReplica {
	return replication.NewPassive(sm, replicas)
}

// PassiveRelation returns the Section 3.2.3 conflict table used by passive
// replication (updates fast, primary changes ordered).
func PassiveRelation() *Relation {
	return replication.PassiveRelation()
}

// ServeReplicaSync registers the donor side of the replica state-transfer
// protocol on a node: followers (NewFollowerNode, gcsnode -join) pull
// snapshots and the delivered-command log from it, and a follower's HELLO
// triggers the ordered membership join (whose state transfer ships the
// replica snapshot captured at the join's position in the total order).
// Call BETWEEN NewNode and Start — like every endpoint handler. Every full
// replica of a deployment should serve sync so followers can fail over
// between donors.
func ServeReplicaSync(node *Node, rep *PassiveReplica) {
	replication.ServeSync(node.Endpoint(), rep, replication.SyncConfig{Join: node.Join})
}

// OpenFileStorage creates or recovers the file-backed storage engine in
// dir (one directory per replica per shard). Open-time recovery drops
// stray temp files, picks the newest intact snapshot and cuts the WAL at
// the first invalid frame — the torn tail of a write that lost power
// mid-flight.
func OpenFileStorage(dir string, cfg FileStorageConfig) (*FileStorage, error) {
	return storage.Open(dir, cfg)
}

// NewMemoryStorage creates an in-process storage engine.
func NewMemoryStorage() *MemoryStorage { return storage.NewMemory() }

// NewReplicaRecovery prepares a durable member's restart-from-disk path
// and registers the donor side of the sync protocol (it REPLACES
// ServeReplicaSync for members with storage attached — donors and
// recoverers share the handler). Call between NewNode and Start, after
// SetStorage + ReplayStorage; then, once the node is started, Run aligns
// this member with its peers — pulling only the delta its disk missed —
// before the deployment starts serving clients.
func NewReplicaRecovery(node *Node, rep *PassiveReplica, peers []ID) *ReplicaRecovery {
	return replication.NewRecovery(node.Endpoint(), rep, peers, replication.SyncConfig{Join: node.Join})
}

// FollowerConfig parameterises NewFollowerNode.
type FollowerConfig struct {
	// Self is the follower's process identity (a spare ID, or a wiped
	// member's old ID).
	Self ID
	// Donors are the full replicas to pull from.
	Donors []ID
	// Incarnation must strictly increase across restarts of the same ID
	// that lost their state (reliable-channel incarnation handshake).
	Incarnation uint64
	// Snapshot/Restore are the application state hooks.
	Snapshot func() []byte
	Restore  func([]byte)
	// RTO is the reliable channel retransmission timeout (default 25ms).
	RTO time.Duration
	// PullInterval is the catch-up cadence — the follower's staleness bound
	// (default 5ms). PullTimeout bounds one pull before rotating donors
	// (default 250ms).
	PullInterval time.Duration
	PullTimeout  time.Duration
	// Storage optionally makes the follower durable: every delivery is
	// logged to the engine, and a restart replays its own disk first, then
	// pulls only the delta it missed from the donors (a primed syncer — no
	// snapshot transfer, no announce). The follower owns the engine; Stop
	// seals it with a final sync + snapshot.
	Storage StorageEngine
	// StorageCompactBytes bounds WAL growth before a background snapshot
	// compacts it (0 = default 8 MiB, negative disables compaction).
	StorageCompactBytes int64
}

// Follower is a running catch-up replica over one transport endpoint: it
// installs a snapshot from the group (via the membership join path or the
// pull protocol), then follows the delivered-command log forever. Its
// Replica serves reads at full backup parity (Monotonic locally,
// Linearizable via a read-index barrier at the primary) and answers writes
// with redirects — hand it to a service gateway as a Shard handle.
type Follower struct {
	// Replica is the follower's replica handle (for gateways and reads).
	Replica *PassiveReplica
	// Replayed reports what the follower rebuilt from local disk at
	// construction (zero value when FollowerConfig.Storage was nil).
	Replayed StorageReplayStats
	ep       *rchannel.Endpoint
	syncer   *replication.Syncer
}

// noGB is the membership broadcaster stub of a follower (receive-only).
type noGB struct{}

func (noGB) Broadcast(string, any) error {
	return fmt.Errorf("gcs: a follower is not a group member")
}

// NewFollowerNode assembles and starts a catch-up replica over tr — the
// recovery/join path of a deployment: a crashed member that lost its state
// (or a brand-new read replica) rejoins the running group without replaying
// history, via snapshot state transfer plus the catch-up cursor. With
// cfg.Storage the follower is durable: it replays its own disk before
// pulling, and a restart costs only the delta it missed. The follower owns
// tr (and the engine); Stop releases both.
func NewFollowerNode(tr Transport, sm PassiveStateMachine, cfg FollowerConfig) (*Follower, error) {
	rep := replication.NewFollower(sm, cfg.Self)
	rep.SetSnapshotter(replication.Snapshotter{Snapshot: cfg.Snapshot, Restore: cfg.Restore})
	var replayed replication.ReplayStats
	primed := false
	if cfg.Storage != nil {
		rep.SetStorage(replication.StorageConfig{Engine: cfg.Storage, CompactBytes: cfg.StorageCompactBytes})
		rs, err := rep.ReplayStorage()
		if err != nil {
			return nil, fmt.Errorf("gcs: follower storage replay: %w", err)
		}
		replayed = rs
		primed = rs.SnapshotIndex > 0 || rs.Records > 0
	}
	var opts []rchannel.Option
	if cfg.RTO > 0 {
		opts = append(opts, rchannel.WithRTO(cfg.RTO))
	}
	if cfg.Incarnation > 0 {
		opts = append(opts, rchannel.WithIncarnation(cfg.Incarnation))
	}
	ep := rchannel.New(tr, opts...)
	syncer := replication.NewSyncer(rep, ep, replication.SyncerConfig{
		Donors:   cfg.Donors,
		Interval: cfg.PullInterval,
		Timeout:  cfg.PullTimeout,
		// A primed follower already stands at a real index: it asks donors
		// for the delta after it instead of announcing for a full snapshot.
		Announce: !primed,
		Primed:   primed,
	})
	// Receiver half of the membership join path: the donor's HELLO handler
	// requests the ordered join, and the membership primary ships the
	// snapshot here.
	membership.New(noGB{}, ep, proc.NewView(cfg.Self), membership.Snapshotter{
		Restore: func(b []byte) { _ = rep.InstallSnapshot(b) },
	})
	ep.Start()
	syncer.Start()
	return &Follower{Replica: rep, Replayed: replayed, ep: ep, syncer: syncer}, nil
}

// Installed is closed once the follower has caught up to a donor for the
// first time — from then on it serves reads at full backup parity.
func (f *Follower) Installed() <-chan struct{} { return f.syncer.Installed() }

// RegisterMetrics exports the follower's accounting under scope: its
// reliable channel, its replica (commit index, snapshot installs) and its
// catch-up syncer (pulls, failures, entries applied).
func (f *Follower) RegisterMetrics(s *MetricsScope) {
	if s == nil {
		return
	}
	f.ep.RegisterMetrics(s)
	f.Replica.RegisterMetrics(s)
	f.syncer.RegisterMetrics(s)
}

// Stop halts the follower, releases its transport and — when durable —
// seals the engine with a final WAL sync and snapshot, so the next start
// replays from disk without needing a donor for the history it already
// executed. The storage error (nil without storage) is returned.
func (f *Follower) Stop() error {
	f.syncer.Stop()
	f.ep.Stop()
	return f.Replica.CloseStorage()
}

// Serve embeds a service gateway in a node: it accepts networked client
// sessions from l (see ListenServiceTCP and Network.ListenStream) and routes
// their writes through cfg.Replica with exactly-once semantics. Close the
// returned gateway to stop serving; it owns l.
func Serve(cfg ServiceGatewayConfig, l StreamListener) *ServiceGateway {
	gw := service.NewGateway(cfg)
	gw.Serve(l)
	return gw
}

// Dial creates a networked client for the service gateways at
// cfg.Addrs. The client discovers the primary, pipelines requests, retries
// across failover, and guarantees acknowledged writes executed exactly once.
func Dial(cfg ServiceClientConfig) (*ServiceClient, error) {
	return service.NewClient(cfg)
}

// DialSharded creates a networked client for gateways serving cfg.Shards
// parallel replicated groups: every operation is routed to its key's shard
// (cfg.ShardKey extracts the key; nil uses the whole op), with per-shard
// exactly-once writes and per-shard read consistency.
func DialSharded(cfg ShardedServiceClientConfig) (*ShardedServiceClient, error) {
	return service.NewShardedClient(cfg)
}

// ShardOf is the deployment-wide shard map: the shard in [0, shards) that
// owns key. Every client and every node compute it identically.
func ShardOf(key []byte, shards int) int {
	return service.ShardOf(key, shards)
}

// NewGroupMux fans one transport endpoint out to n logical group
// transports (group IDs 0..n-1) — one per shard of a sharded deployment.
// The mux owns tr; build one node stack per group over Group(i).
func NewGroupMux(tr Transport, n int) *GroupMux {
	return transport.NewGroupMux(tr, n)
}

// ListenServiceTCP opens a TCP listener for client sessions (":0" picks a
// free port, reported by Addr).
func ListenServiceTCP(addr string) (StreamListener, error) {
	return transport.ListenStreamTCP(addr)
}

// DialServiceTCP is the ServiceDialer for TCP deployments.
func DialServiceTCP(addr string) (StreamConn, error) {
	return transport.DialStreamTCP(addr)
}

// Cluster is an in-process group of nodes over a simulated network — the
// quickest way to use the library and the harness for all experiments.
type Cluster struct {
	Net   *Network
	Nodes []*Node
	ids   []ID
}

// ClusterOption configures NewCluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	netOpts  []NetOption
	deliver  func(self ID, d Delivery)
	tweak    func(*Config)
	relation *Relation
}

// WithNetOptions forwards options to the simulated network.
func WithNetOptions(opts ...NetOption) ClusterOption {
	return func(c *clusterConfig) { c.netOpts = append(c.netOpts, opts...) }
}

// WithDeliver sets the delivery callback invoked at every node.
func WithDeliver(fn func(self ID, d Delivery)) ClusterOption {
	return func(c *clusterConfig) { c.deliver = fn }
}

// WithRelation sets the conflict relation used by every node.
func WithRelation(r *Relation) ClusterOption {
	return func(c *clusterConfig) { c.relation = r }
}

// WithConfig applies an arbitrary tweak to every node's Config.
func WithConfig(fn func(*Config)) ClusterOption {
	return func(c *clusterConfig) { c.tweak = fn }
}

// NewCluster builds and starts n nodes ("p0".."p<n-1>") over a fresh
// simulated network.
func NewCluster(n int, opts ...ClusterOption) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("gcs: cluster size %d < 1", n)
	}
	var cc clusterConfig
	for _, o := range opts {
		o(&cc)
	}
	if len(cc.netOpts) == 0 {
		cc.netOpts = []NetOption{WithDelay(0, 2*time.Millisecond)}
	}
	net := NewNetwork(cc.netOpts...)
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("p%d", i))
	}
	c := &Cluster{Net: net, ids: ids}
	for _, id := range ids {
		cfg := Config{Self: id, Universe: ids}
		if cc.relation != nil {
			cfg.Relation = cc.relation
		}
		if cc.tweak != nil {
			cc.tweak(&cfg)
		}
		var deliver DeliverFunc
		if cc.deliver != nil {
			self := id
			deliver = func(d Delivery) { cc.deliver(self, d) }
		}
		node, err := core.NewNode(net.Endpoint(id), cfg, deliver)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("gcs: build node %s: %w", id, err)
		}
		c.Nodes = append(c.Nodes, node)
	}
	for _, nd := range c.Nodes {
		nd.Start()
	}
	return c, nil
}

// IDs returns the cluster's process IDs in order.
func (c *Cluster) IDs() []ID {
	out := make([]ID, len(c.ids))
	copy(out, c.ids)
	return out
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id ID) *Node {
	for _, nd := range c.Nodes {
		if nd.Self() == id {
			return nd
		}
	}
	return nil
}

// Stop halts every node and the network.
func (c *Cluster) Stop() {
	for _, nd := range c.Nodes {
		nd.Stop()
	}
	if c.Net != nil {
		c.Net.Shutdown()
	}
}
