package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Replica is the slice of the replication layer a gateway drives: writes
// with exactly-once session semantics, the read-consistency machinery
// (commit index, waiters, barriers), primary tracking and lease renewal.
// Both a full passive replica (*replication.Passive bound to a node) and a
// catch-up follower (replication.NewFollower fed by a Syncer) satisfy it,
// so a gateway's replica handle can be replaced mid-life — e.g. after a
// crash-recovery, when a node rejoins as a follower (ReplaceShard).
type Replica interface {
	RequestSession(session string, seq, ack uint64, op []byte, timeout time.Duration) ([]byte, error)
	Primary() proc.ID
	CommitIndex() uint64
	WaitCommit(index uint64, timeout time.Duration, abort <-chan struct{}) (uint64, error)
	ReadBarrier(timeout time.Duration, abort <-chan struct{}) (uint64, error)
	// StateAge reports how far the replica's applied state lags the
	// primary's commit timestamps; ok=false means the age is unknown (no
	// stamped delivery observed yet) and the replica must not serve
	// bounded-staleness reads.
	StateAge() (time.Duration, bool)
	OnPrimaryChange(fn func(primary proc.ID, epoch uint64))
	LeaseTick(sessions []string) error
}

var _ Replica = (*replication.Passive)(nil)

// Shard is one replicated group behind a gateway: the node's replica of
// that group plus the read function over that shard's local state. A
// gateway owns one Shard per replicated group of the deployment; requests
// carry a shard ID and are routed to the matching replica handle.
type Shard struct {
	// Replica is this node's replica handle of the shard; writes go through
	// its RequestSession for exactly-once semantics.
	Replica Replica
	// Read serves read-only operations from the shard's local state (nil
	// rejects reads on this shard).
	Read func(op []byte) []byte
}

// GatewayConfig parameterises a Gateway.
type GatewayConfig struct {
	// Self is the identity of the node this gateway is embedded in.
	Self proc.ID
	// Replica is the node's replica handle; writes go through its
	// RequestSession for exactly-once semantics. Replica and Read are the
	// single-shard configuration — they become shard 0. Multi-shard
	// gateways set Shards instead.
	Replica Replica
	// Read serves read-only operations from local state (nil rejects reads).
	Read func(op []byte) []byte
	// Shards configures a sharded gateway: element k serves the requests
	// tagged with shard k. Exactly one of Shards and Replica(/Read) must be
	// set. Every gateway of the deployment must list the same number of
	// shards in the same order (the shard map ShardOf is shared by all
	// clients and nodes).
	Shards []Shard
	// Addrs maps every replica ID to its gateway's service address, used for
	// NOT_PRIMARY redirect hints. Missing entries yield empty hints. The
	// same map serves every shard: shard k's hint is the address of the node
	// fronting shard k's primary, which diverges across shards after a
	// partial failover.
	Addrs map[proc.ID]string
	// MaxInflight bounds each session's unanswered writes; beyond it the
	// gateway stops reading from the session's connection (default 64).
	MaxInflight int
	// RequestTimeout bounds the wait for one write's replicated delivery
	// before answering TIMEOUT so the client can retry (default 5s).
	RequestTimeout time.Duration
	// Batching selects per-session dispatch only: it runs a session's
	// queued writes concurrently (up to MaxInflight at once) instead of one
	// at a time, so pipelined operations from one session coalesce into the
	// same group-commit batch (replicas batch either way). Only the serial
	// mode (false) submits a session's writes in seq order; responses carry
	// their request Seq, so clients match them regardless of completion
	// order.
	Batching bool
	// SessionTTL is the idle-session lease: a session with no attached
	// connection, no queued or in-flight operations, and no activity for
	// SessionTTL is garbage-collected (its worker stops and its state is
	// dropped; the replicated dedup table is unaffected, so a later
	// reconnect under the same session ID still deduplicates correctly).
	// Zero or negative keeps sessions forever.
	SessionTTL time.Duration
	// LeaseTTL enables the REPLICATED session lease: every gateway
	// periodically broadcasts an ordered lease message renewing its attached
	// sessions, the primary's broadcast ticks the replicated lease clock,
	// and every replica prunes (session, seq) dedup records idle for more
	// than the TTL identically (replication.LeaseTick). This bounds the
	// replicated table for vanished clients; a session attached to NO
	// gateway and writing nothing for more than the TTL loses its dedup
	// state, so pick a TTL comfortably above client reconnect times. Zero or
	// negative disables the replicated lease (the table is pruned by client
	// acks only).
	LeaseTTL time.Duration
}

// GatewayStats is a snapshot of gateway accounting.
type GatewayStats struct {
	Sessions      int    // live sessions
	Writes        uint64 // write operations answered
	Reads         uint64 // read operations answered
	Redirects     uint64 // NOT_PRIMARY answers and demotion pushes
	Expired       uint64 // sessions garbage-collected by the lease timeout
	MaxInflight   int64  // highest per-session in-flight count observed
	ActiveStreams int64  // currently attached connections
	Timeouts      uint64 // operations answered TIMEOUT
	Unavailable   uint64 // operations answered UNAVAILABLE
	Degraded      uint64 // operations answered DEGRADED (quorumless primary failing fast)
	DeadlineDrops uint64 // operations dropped because the client's budget lapsed in queue
	TooStale      uint64 // bounded-staleness reads answered TOO_STALE
}

// Gateway accepts networked client sessions at one node of the group and
// routes their operations into the replicated service — into the matching
// shard's replica when several replicated groups run side by side.
type Gateway struct {
	cfg GatewayConfig
	// shards is the current shard table, swapped atomically so a shard's
	// replica handle can be replaced mid-life (ReplaceShard) without
	// stalling the request paths. The shard COUNT is fixed for the
	// gateway's lifetime — only handles change.
	shards atomic.Pointer[[]Shard]

	mu        sync.Mutex
	sessions  map[string]*gwSession
	conns     map[transport.StreamConn]bool
	listeners []transport.StreamListener
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup

	writes      atomic.Uint64
	reads       atomic.Uint64
	redirects   atomic.Uint64
	expired     atomic.Uint64
	maxInflight atomic.Int64
	active      atomic.Int64
	timeouts    atomic.Uint64
	unavail     atomic.Uint64
	degraded    atomic.Uint64
	ddlDrops    atomic.Uint64
	tooStale    atomic.Uint64

	// Observability hookups, nil until wired (RegisterMetrics/SetTracer).
	metrics atomic.Pointer[gwMetrics]
	tracer  atomic.Pointer[telemetry.Tracer]
}

// gwSession is one client session's server-side state. Unanswered writes
// are bounded at MaxInflight: up to MaxInflight-1 queued plus the ones being
// processed by the worker; beyond that the connection's read loop blocks.
type gwSession struct {
	id        string
	shard     uint32        // the shard named in the session's hello
	queue     chan gwReq    // pending writes; capacity = MaxInflight-1
	stop      chan struct{} // closed when the session's lease expires
	readSlots chan struct{} // waiting-read window; capacity = MaxInflight

	inflight   atomic.Int64 // queued + processing writes
	processing atomic.Int64 // writes currently inside RequestSession

	mu         sync.Mutex
	conn       transport.StreamConn // current attachment (nil between connections)
	lastActive time.Time
	expired    bool
}

// send writes a frame to the session's current connection, if any. Errors
// are ignored: a broken connection is detected by its read loop, and the
// client recovers any lost response by retrying.
func (s *gwSession) send(v any) {
	frame, err := encodeFrame(v)
	if err != nil {
		return
	}
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Send(frame)
	}
}

// attach makes conn the session's current connection, detaching (and
// closing) any previous one: the newest connection wins, as the client only
// dials anew after abandoning the old connection. It fails on a session
// whose lease just expired; the caller must fetch a fresh session.
func (s *gwSession) attach(conn transport.StreamConn) bool {
	s.mu.Lock()
	if s.expired {
		s.mu.Unlock()
		return false
	}
	old := s.conn
	s.conn = conn
	s.lastActive = time.Now()
	s.mu.Unlock()
	if old != nil && old != conn {
		_ = old.Close()
	}
	return true
}

// detach clears the session's connection if it is still conn, starting the
// idle lease clock.
func (s *gwSession) detach(conn transport.StreamConn) {
	s.mu.Lock()
	if s.conn == conn {
		s.conn = nil
		s.lastActive = time.Now()
	}
	s.mu.Unlock()
}

// touch records session activity for the lease clock.
func (s *gwSession) touch() {
	s.mu.Lock()
	s.lastActive = time.Now()
	s.mu.Unlock()
}

// NewGateway creates a gateway over the node's replica. Call Serve to start
// accepting sessions; the gateway also subscribes to primary changes so it
// can push NOT_PRIMARY redirects on demotion.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	// Nonsensical TTLs (negative, or so small the janitor interval would
	// truncate to zero — time.NewTicker panics on non-positive periods) are
	// normalized here so every janitor below can trust its config.
	if cfg.SessionTTL < 0 {
		cfg.SessionTTL = 0
	}
	if cfg.LeaseTTL < 0 {
		cfg.LeaseTTL = 0
	}
	shards := cfg.Shards
	if len(shards) == 0 {
		if cfg.Replica == nil {
			panic("service: gateway needs a Replica or Shards")
		}
		shards = []Shard{{Replica: cfg.Replica, Read: cfg.Read}}
	} else if cfg.Replica != nil || cfg.Read != nil {
		// With Shards, reads come from each Shard's own Read: a leftover
		// top-level Read would be silently ignored, surfacing only as
		// runtime NO_READS on shards missing their own — reject it here.
		panic("service: gateway given both Replica/Read and Shards")
	}
	g := &Gateway{
		cfg:      cfg,
		sessions: make(map[string]*gwSession),
		conns:    make(map[transport.StreamConn]bool),
		done:     make(chan struct{}),
	}
	g.shards.Store(&shards)
	for k := range shards {
		g.wireShard(uint32(k), shards[k].Replica)
	}
	if cfg.SessionTTL > 0 {
		g.wg.Add(1)
		go g.expireLoop()
	}
	if cfg.LeaseTTL > 0 {
		g.wg.Add(1)
		go g.leaseLoop()
	}
	return g
}

// Serve accepts sessions from l until the gateway or listener is closed.
// It starts goroutines and returns immediately. The gateway takes ownership
// of l: Close closes it.
func (g *Gateway) Serve(l transport.StreamListener) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		_ = l.Close()
		return
	}
	g.listeners = append(g.listeners, l)
	g.mu.Unlock()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			g.mu.Lock()
			if g.closed {
				g.mu.Unlock()
				_ = conn.Close()
				return
			}
			g.conns[conn] = true
			g.mu.Unlock()
			g.wg.Add(1)
			go g.handleConn(conn)
		}
	}()
}

// Close stops the gateway: listeners passed to Serve are closed, all
// connections break, session workers halt, and the replica's primary-change
// hook is released (so a closed gateway is no longer reachable from the
// replica; do not share one replica between gateways).
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	for _, sh := range g.shardList() {
		sh.Replica.OnPrimaryChange(nil)
	}
	close(g.done)
	conns := make([]transport.StreamConn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	listeners := g.listeners
	g.mu.Unlock()
	for _, l := range listeners {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	g.wg.Wait()
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() GatewayStats {
	g.mu.Lock()
	sessions := len(g.sessions)
	g.mu.Unlock()
	return GatewayStats{
		Sessions:      sessions,
		Writes:        g.writes.Load(),
		Reads:         g.reads.Load(),
		Redirects:     g.redirects.Load(),
		Expired:       g.expired.Load(),
		MaxInflight:   g.maxInflight.Load(),
		ActiveStreams: g.active.Load(),
		Timeouts:      g.timeouts.Load(),
		Unavailable:   g.unavail.Load(),
		Degraded:      g.degraded.Load(),
		DeadlineDrops: g.ddlDrops.Load(),
		TooStale:      g.tooStale.Load(),
	}
}

// shardList returns the current shard table (atomic snapshot).
func (g *Gateway) shardList() []Shard {
	return *g.shards.Load()
}

// wireShard subscribes the gateway's demotion pushes to one shard's replica
// handle.
func (g *Gateway) wireShard(shard uint32, rep Replica) {
	rep.OnPrimaryChange(func(primary proc.ID, _ uint64) {
		// Delivery goroutine: hand the pushes to a gateway goroutine.
		select {
		case <-g.done:
			return
		default:
		}
		if primary == g.cfg.Self {
			return
		}
		hint := g.cfg.Addrs[primary]
		go g.pushDemotion(shard, hint)
	})
}

// ReplaceShard swaps shard k's handle for a new one — the recovery path: a
// node whose replica stack died (or was wiped and rebuilt as a catch-up
// follower) re-points its gateway at the replacement without dropping the
// attached sessions. Their exactly-once state lives in the REPLICATED
// session table, so in-flight and future writes retried through the new
// handle still deduplicate correctly; the shard's sessions get a refresh
// push so clients re-discover the primary instead of erroring forever.
func (g *Gateway) ReplaceShard(k int, sh Shard) {
	g.mu.Lock()
	cur := *g.shards.Load()
	if k < 0 || k >= len(cur) {
		g.mu.Unlock()
		panic(fmt.Sprintf("service: ReplaceShard(%d) of %d shards", k, len(cur)))
	}
	old := cur[k]
	next := make([]Shard, len(cur))
	copy(next, cur)
	next[k] = sh
	g.shards.Store(&next)
	// (Un)wiring happens under g.mu so ReplaceShard cannot race Close into
	// re-registering a callback on a replica after Close unhooked
	// everything — a closed gateway must stay unreachable from replicas.
	old.Replica.OnPrimaryChange(nil)
	closed := g.closed
	if !closed {
		g.wireShard(uint32(k), sh.Replica)
	}
	g.mu.Unlock()
	if !closed {
		go g.pushDemotion(uint32(k), g.hint(uint32(k)))
	}
}

// hint returns the service address of shard k's current primary, or "".
func (g *Gateway) hint(shard uint32) string {
	return g.cfg.Addrs[g.shardList()[shard].Replica.Primary()]
}

// pushDemotion sends a NOT_PRIMARY push naming the demoted shard to every
// session bound to that shard (per-shard primaries legitimately diverge
// after a partial failover; other shards' sessions are unaffected and are
// not disturbed).
func (g *Gateway) pushDemotion(shard uint32, hint string) {
	g.mu.Lock()
	sessions := make([]*gwSession, 0, len(g.sessions))
	for _, s := range g.sessions {
		if s.shard == shard {
			sessions = append(sessions, s)
		}
	}
	g.mu.Unlock()
	for _, s := range sessions {
		g.redirects.Add(1)
		s.send(pushFrame{Primary: hint, Shard: shard})
	}
}

// session returns (creating if needed) the session with the given ID,
// starting its worker on creation; shard is the hello's shard binding
// (scopes lease renewals and demotion pushes). The map only ever holds live
// sessions: the expiry loop removes a session in the same critical section
// that marks it expired.
func (g *Gateway) session(id string, shard uint32) *gwSession {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.sessions[id]; ok {
		return s
	}
	// Serial dispatch: the queue IS the window, MaxInflight-1 buffered plus
	// one in the worker. Pipelined (Batching), the window is the worker's
	// slot semaphore, so the queue is a pure handoff — a buffered queue on
	// top would double the session's unanswered-write bound.
	depth := g.cfg.MaxInflight - 1
	if g.cfg.Batching {
		depth = 0
	}
	s := &gwSession{
		id:         id,
		shard:      shard,
		queue:      make(chan gwReq, depth),
		stop:       make(chan struct{}),
		readSlots:  make(chan struct{}, g.cfg.MaxInflight),
		lastActive: time.Now(),
	}
	g.sessions[id] = s
	g.wg.Add(1)
	go g.sessionWorker(s)
	return s
}

// janitorInterval derives a ticker period as a quarter of a TTL, floored at
// one millisecond: time.NewTicker panics on a non-positive period, which an
// integer division of a small (but valid) TTL would otherwise produce.
func janitorInterval(ttl time.Duration) time.Duration {
	interval := ttl / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return interval
}

// expireLoop is the local lease janitor: it garbage-collects sessions that
// have had no attached connection, no queued or in-flight writes, and no
// activity for SessionTTL.
func (g *Gateway) expireLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(janitorInterval(g.cfg.SessionTTL))
	defer ticker.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-ticker.C:
			g.expirePass(time.Now())
		}
	}
}

// leaseLoop is the replicated lease janitor: every gateway periodically
// broadcasts an ordered lease message renewing the sessions it holds
// attached — so a session parked at a backup gateway is renewed too — and
// the broadcast of the gateway fronting the primary ticks the replicated
// lease clock, pruning vanished sessions identically at every replica (see
// replication.LeaseTick).
func (g *Gateway) leaseLoop() {
	defer g.wg.Done()
	// The broadcast period and the lease's tick count must agree, or the
	// effective TTL silently drifts from the configured one — derive it
	// from replication's own constant.
	interval := g.cfg.LeaseTTL / replication.LeaseTTLTicks
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.done:
			return
		case <-ticker.C:
			// Each shard's lease clock is independent replicated state, so
			// each shard gets its own ordered lease message, renewing only
			// the sessions bound to it (the hello's shard binding) — a
			// session's dedup records live solely in its own shard's table.
			perShard := g.attachedSessions()
			for k, sh := range g.shardList() {
				rep := sh.Replica
				if len(perShard[k]) == 0 && rep.Primary() != g.cfg.Self {
					continue // nothing to renew and no clock to tick
				}
				_ = rep.LeaseTick(perShard[k])
			}
		}
	}
}

// attachedSessions lists, per shard, the sessions currently holding a
// connection (or with work in flight) at this gateway — the ones whose
// replicated lease this gateway keeps renewing on their shard.
func (g *Gateway) attachedSessions() [][]string {
	out := make([][]string, len(g.shardList()))
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, s := range g.sessions {
		s.mu.Lock()
		live := s.conn != nil
		s.mu.Unlock()
		if live || s.inflight.Load() > 0 {
			out[s.shard] = append(out[s.shard], id)
		}
	}
	return out
}

func (g *Gateway) expirePass(now time.Time) {
	g.mu.Lock()
	for id, s := range g.sessions {
		s.mu.Lock()
		idle := s.conn == nil && now.Sub(s.lastActive) >= g.cfg.SessionTTL
		if idle && s.inflight.Load() == 0 {
			s.expired = true
			close(s.stop)
			delete(g.sessions, id)
			g.expired.Add(1)
		}
		s.mu.Unlock()
	}
	g.mu.Unlock()
}

// handleConn speaks the session protocol on one inbound connection.
func (g *Gateway) handleConn(conn transport.StreamConn) {
	defer g.wg.Done()
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		_ = conn.Close()
	}()
	g.active.Add(1)
	defer g.active.Add(-1)

	// Handshake: the first frame must be a hello naming a served shard.
	data, err := conn.Recv()
	if err != nil {
		return
	}
	v, err := decodeFrame(data)
	transport.PutFrame(data) // decoded: the stream frame is spent
	if err != nil {
		return
	}
	hello, ok := v.(helloFrame)
	if !ok || hello.Session == "" {
		return
	}
	shards := g.shardList()
	if hello.Shard >= uint32(len(shards)) {
		// Shard-count misconfiguration (client's Shards > ours). Answer with
		// a welcome carrying OUR shard count — no primary, no session — so
		// the client can diagnose and fail fast instead of reconnecting
		// forever against silent closes.
		if frame, err := encodeFrame(welcomeFrame{
			Session: hello.Session, Shards: len(shards),
		}); err == nil {
			_ = conn.Send(frame)
		}
		return
	}
	// Retry on attach failure: the lease may expire a session between the
	// map lookup and the attachment; the next lookup creates a fresh one.
	var s *gwSession
	for {
		s = g.session(hello.Session, hello.Shard)
		if s.attach(conn) {
			break
		}
	}
	defer s.detach(conn)

	welcome, err := encodeFrame(welcomeFrame{
		Session:     hello.Session,
		MaxInflight: g.cfg.MaxInflight,
		Primary:     g.hint(hello.Shard),
		IsPrimary:   shards[hello.Shard].Replica.Primary() == g.cfg.Self,
		Shards:      len(shards),
	})
	if err != nil || conn.Send(welcome) != nil {
		return
	}

	for {
		data, err := conn.Recv()
		if err != nil {
			return
		}
		v, err := decodeFrame(data)
		transport.PutFrame(data) // decoded: the stream frame is spent
		if err != nil {
			return
		}
		req, ok := v.(reqFrame)
		if !ok {
			continue
		}
		s.touch()
		if req.Shard >= uint32(len(shards)) {
			s.send(resFrame{Seq: req.Seq, Err: errBadShard})
			continue
		}
		if req.Read {
			g.serveRead(s, req)
			continue
		}
		qr := gwReq{f: req, at: time.Now()}
		if tracer := g.tracer.Load(); tracer.Sampled() {
			// The op key ties the gateway's trace to the replication layer's
			// stage marks (batch_enqueue/batch_flush/delivered); Attach here,
			// before the op can reach the batcher.
			key := telemetry.OpKey(s.id, req.Seq)
			qr.tr = tracer.Start("write", key)
			tracer.Attach(key, qr.tr)
		}
		// Backpressure: when the session's window is full this send blocks,
		// pausing reads from the connection until the worker catches up.
		s.inflight.Add(1)
		select {
		case s.queue <- qr:
		case <-g.done:
			g.dropTrace(s, qr)
			return
		}
	}
}

// serveRead dispatches a read at its requested consistency level against
// its shard. Local reads answer inline on the connection's read loop;
// waiting levels (monotonic, linearizable) run on their own goroutine so a
// lagging replica or an in-flight barrier never stalls the session's
// pipelined writes. An unknown level is rejected with BAD_READ_LEVEL rather
// than silently degraded to a weaker read.
func (g *Gateway) serveRead(s *gwSession, req reqFrame) {
	start := time.Now()
	shard := g.shardList()[req.Shard]
	if shard.Read == nil {
		s.send(resFrame{Seq: req.Seq, Err: errNoReads})
		return
	}
	level := req.Level
	if level == ReadDefault {
		// Pre-level wire clients (Level absent = 0) keep their old behavior.
		level = ReadLocal
	}
	switch level {
	case ReadLocal:
		g.reads.Add(1)
		s.send(resFrame{
			Seq:    req.Seq,
			Result: shard.Read(req.Op),
			Index:  shard.Replica.CommitIndex(),
		})
		g.observeRead(s, level, start)
	case ReadBoundedStaleness:
		// Bounded staleness: serve inline from local state when the shard's
		// applied state is provably within the client's bound; otherwise a
		// retryable TOO_STALE with the primary as the freshness hint. A
		// replica that has never observed a stamped delivery has UNKNOWN age
		// and must refuse too — silently serving it would turn "at most
		// maxAge stale" into "arbitrarily stale".
		if req.MaxAge <= 0 {
			s.send(resFrame{Seq: req.Seq, Err: errBadReadLevel})
			return
		}
		age, known := shard.Replica.StateAge()
		if !known || age > req.MaxAge {
			g.tooStale.Add(1)
			s.send(resFrame{Seq: req.Seq, Err: errTooStale, Redirect: g.hint(req.Shard)})
			return
		}
		g.reads.Add(1)
		s.send(resFrame{
			Seq:    req.Seq,
			Result: shard.Read(req.Op),
			Index:  shard.Replica.CommitIndex(),
		})
		if m := g.metrics.Load(); m != nil {
			m.staleAge.Observe(age)
		}
		g.observeRead(s, level, start)
	case ReadMonotonic, ReadLinearizable:
		// Monotonic fast path: when the shard's replica has already reached
		// the session's token — the steady-state case — the read is
		// answered inline, as cheap as a local one.
		//
		// Ordering audit (do not reorder): the index is CHECKED before the
		// read and FETCHED for the response after it. Both directions are
		// deliberate. Check-before-read is safe against a concurrent
		// snapshot install because installSnapshotLocked restores the
		// application state BEFORE advancing the commit index, and
		// Snapshotter.Restore swaps state atomically — so any index this
		// check observes stands for state already readable through
		// shard.Read; the state can only be NEWER than the check, never
		// older. (ReplaceShard cannot regress it either: `shard` is one
		// consistent handle pair captured in a single atomic load above, so
		// check, read and response all hit the same replica, whose index
		// never moves backward.) Fetch-after-read is the conservative
		// direction for the response token: fetching it before the read
		// could hand the client an index OLDER than the state it was served,
		// and its next monotonic read, gated on that too-small token at a
		// lagging gateway, could then observe time going backward.
		// TestMonotonicFastPathIndexNeverAheadOfState pins all of this.
		if level == ReadMonotonic && shard.Replica.CommitIndex() >= req.MinIndex {
			g.reads.Add(1)
			s.send(resFrame{
				Seq:    req.Seq,
				Result: shard.Read(req.Op),
				Index:  shard.Replica.CommitIndex(),
			})
			g.observeRead(s, level, start)
			return
		}
		timeout, live := g.opTimeout(req.Budget, start)
		if !live {
			// The client's per-op budget already lapsed: it has abandoned (or
			// is abandoning) this read, so don't park a waiter on its behalf.
			g.timeouts.Add(1)
			g.ddlDrops.Add(1)
			s.send(resFrame{Seq: req.Seq, Err: errTimeout})
			return
		}
		// Same backpressure as writes: at most MaxInflight waiting reads per
		// session; beyond that this blocks, pausing the connection's read
		// loop until a slot frees.
		select {
		case s.readSlots <- struct{}{}:
		case <-s.stop:
			return
		case <-g.done:
			return
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			defer func() { <-s.readSlots }()
			s.send(g.processRead(req, level, timeout))
			s.touch()
			g.observeRead(s, level, start)
		}()
	default:
		s.send(resFrame{Seq: req.Seq, Err: errBadReadLevel})
	}
}

// observeRead records a read's latency under its level and captures it as a
// slow op above the tracer's threshold.
func (g *Gateway) observeRead(s *gwSession, level ReadLevel, start time.Time) {
	if m := g.metrics.Load(); m != nil {
		m.readOp(level).ObserveSince(start)
	}
	if tracer := g.tracer.Load(); tracer != nil {
		if d := time.Since(start); d >= tracer.SlowThreshold() {
			tracer.CaptureSlow("read_"+level.String(), s.id, start, d)
		}
	}
}

// opTimeout derives one operation's wait bound: the gateway's RequestTimeout
// capped at the client's remaining per-op budget, measured from the op's
// arrival at this gateway (zero Budget = old clients = no cap). live=false
// means the budget already lapsed — the client has abandoned the op and will
// retry it under the same (session, seq) name, so the gateway should answer
// TIMEOUT immediately instead of burning ordered-path work on it.
func (g *Gateway) opTimeout(budget time.Duration, at time.Time) (timeout time.Duration, live bool) {
	timeout = g.cfg.RequestTimeout
	if budget <= 0 {
		return timeout, true
	}
	rem := budget - time.Since(at)
	if rem <= 0 {
		return 0, false
	}
	if rem < timeout {
		timeout = rem
	}
	return timeout, true
}

// processRead serves a waiting read level against its shard and builds its
// response frame.
func (g *Gateway) processRead(req reqFrame, level ReadLevel, timeout time.Duration) resFrame {
	shard := g.shardList()[req.Shard]
	res := resFrame{Seq: req.Seq}
	var err error
	if level == ReadMonotonic {
		// Any replica may answer once it has caught up to the session's
		// last-seen commit index on this shard.
		_, err = shard.Replica.WaitCommit(req.MinIndex, timeout, g.done)
	} else {
		// Linearizable: only the shard's primary answers, behind an ordered
		// no-op confirmed through the broadcast path (coalesced across
		// readers of the same shard).
		_, err = shard.Replica.ReadBarrier(timeout, g.done)
	}
	switch {
	case err == nil:
		res.Result = shard.Read(req.Op)
		res.Index = shard.Replica.CommitIndex()
		g.reads.Add(1)
	case errors.Is(err, replication.ErrNotPrimary), errors.Is(err, replication.ErrDemoted):
		res.Err = errNotPrimary
		res.Redirect = g.hint(req.Shard)
		g.redirects.Add(1)
	case errors.Is(err, replication.ErrTimeout):
		res.Err = errTimeout
		g.timeouts.Add(1)
	case errors.Is(err, replication.ErrDegraded):
		// The quorum-progress watchdog has the shard's primary failing fast:
		// retryable like UNAVAILABLE, but counted apart — it is the signature
		// of a partition, not a crash.
		res.Err = errDegraded
		g.degraded.Add(1)
	default:
		// Infrastructure failure below the gateway (e.g. a dying replica
		// stack): retryable, not terminal — the client reconnects and
		// retries elsewhere instead of surfacing a fatal server error.
		res.Err = errUnavailable
		g.unavail.Add(1)
	}
	return res
}

// processWrite routes one write into its shard's replicated group and
// builds its response frame. The wait for replicated delivery is bounded by
// RequestTimeout capped at the client's remaining budget; a write whose
// budget lapsed while queued is dropped with TIMEOUT before it reaches the
// ordered path at all.
func (g *Gateway) processWrite(s *gwSession, qr gwReq) resFrame {
	req := qr.f
	shard := g.shardList()[req.Shard]
	res := resFrame{Seq: req.Seq}
	timeout, live := g.opTimeout(req.Budget, qr.at)
	if !live {
		res.Err = errTimeout
		g.timeouts.Add(1)
		g.ddlDrops.Add(1)
		return res
	}
	result, err := shard.Replica.RequestSession(s.id, req.Seq, req.Ack, req.Op, timeout)
	switch {
	case err == nil:
		res.Result = result
		// The local apply precedes RequestSession's return at the primary,
		// so the shard's current commit index covers this write
		// (conservatively: it may also cover later ones, which only
		// strengthens the client's monotonic token).
		res.Index = shard.Replica.CommitIndex()
		g.writes.Add(1)
	case errors.Is(err, replication.ErrNotPrimary), errors.Is(err, replication.ErrDemoted):
		res.Err = errNotPrimary
		res.Redirect = g.hint(req.Shard)
		g.redirects.Add(1)
	case errors.Is(err, replication.ErrTimeout):
		res.Err = errTimeout
		g.timeouts.Add(1)
	case errors.Is(err, replication.ErrPruned):
		res.Err = errPruned
	case errors.Is(err, replication.ErrDegraded):
		// Fail-fast answer from a quorumless primary (see processRead): the
		// client retries elsewhere; exactly-once holds because nothing
		// degraded was admitted, let alone delivered.
		res.Err = errDegraded
		g.degraded.Add(1)
	default:
		// See processRead: infrastructure errors are retryable. The write's
		// (session, seq) name makes the retry exactly-once regardless of
		// whether this attempt executed.
		res.Err = errUnavailable
		g.unavail.Add(1)
	}
	return res
}

// observeInflight folds n into the high-water in-flight stat.
func (g *Gateway) observeInflight(n int64) {
	for {
		max := g.maxInflight.Load()
		if n <= max || g.maxInflight.CompareAndSwap(max, n) {
			return
		}
	}
}

// sessionWorker executes one session's writes, answering on whichever
// connection the session currently has. In serial dispatch, writes run one
// at a time in arrival (= seq) order; pipelined (Batching), up to
// MaxInflight run concurrently so they coalesce into one group-commit batch.
func (g *Gateway) sessionWorker(s *gwSession) {
	defer g.wg.Done()
	if g.cfg.Batching {
		g.batchingWorker(s)
		return
	}
	for {
		var qr gwReq
		select {
		case qr = <-s.queue:
		case <-s.stop:
			return
		case <-g.done:
			return
		}
		// Unanswered writes at this instant: the queued ones plus this one.
		g.observeInflight(int64(len(s.queue)) + 1)
		g.markDispatch(qr)
		res := g.processWrite(s, qr)
		s.send(res)
		s.touch()
		s.inflight.Add(-1)
		g.finishWrite(s, qr)
	}
}

// batchingWorker is sessionWorker's concurrent-dispatch mode: it feeds every
// queued write straight into the replica (whose batcher coalesces them) and
// completes the session's waiters as the batched results come back.
func (g *Gateway) batchingWorker(s *gwSession) {
	slots := make(chan struct{}, g.cfg.MaxInflight)
	for {
		// Reserve the slot BEFORE accepting a request: with the unbuffered
		// queue this makes MaxInflight the exact unanswered-write bound —
		// the connection's read loop blocks until a dispatch slot is free.
		select {
		case slots <- struct{}{}:
		case <-s.stop:
			return
		case <-g.done:
			return
		}
		var qr gwReq
		select {
		case qr = <-s.queue:
		case <-s.stop:
			return
		case <-g.done:
			return
		}
		g.observeInflight(s.processing.Add(1))
		g.wg.Add(1)
		go func(qr gwReq) {
			defer g.wg.Done()
			g.markDispatch(qr)
			res := g.processWrite(s, qr)
			s.send(res)
			s.touch()
			s.processing.Add(-1)
			s.inflight.Add(-1)
			g.finishWrite(s, qr)
			<-slots
		}(qr)
	}
}
