package replication

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/gbcast"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Passive replication with generic broadcast instead of view synchrony —
// the Section 3.2.3 / Figure 8 protocol, verbatim:
//
//   - The client sends its request to the primary only. The primary
//     executes it and g-broadcasts an *update* message (fast class) to the
//     backups.
//   - A backup that suspects the primary g-broadcasts
//     *primary-change(old)* (ordered class). Delivery rotates the replica
//     list — the old primary is NOT excluded; it simply stops being
//     primary.
//   - The conflict relation (the paper's Section 3.2.3 table) guarantees
//     exactly two outcomes for a concurrent update/primary-change pair:
//     either every replica applies the update before the change (case 1),
//     or every replica delivers the change first and then *ignores* the
//     stale update (case 2) — the client times out, learns the new primary
//     and reissues its request.
//
// Epochs make "stale" precise: every delivered primary-change increments
// the epoch; an update tagged with an older epoch is ignored by everyone
// (deliveries are identically ordered, so the ignore decision is identical
// everywhere).

// Class names of the passive replication conflict relation.
const (
	ClassUpdate        = "update"
	ClassPrimaryChange = "primary-change"
	// ClassLease carries replicated session lease messages (lease.go). It
	// conflicts with everything: renewals may originate at ANY replica's
	// gateway, so only total order makes the tick-time expiry decision —
	// which depends on the interleaving of renewals, ticks, record-creating
	// updates and epoch changes — identical everywhere. Lease traffic is a
	// few messages per LeaseTTL, so the ordered slow path costs nothing
	// measurable.
	ClassLease = "lease"
)

// PassiveRelation returns the Section 3.2.3 conflict table, extended with
// the fully ordered lease class.
func PassiveRelation() *gbcast.Relation {
	return gbcast.NewRelationBuilder().
		Conflict(ClassPrimaryChange, ClassPrimaryChange).
		Conflict(ClassUpdate, ClassPrimaryChange).
		Conflict(ClassLease, ClassLease).
		Conflict(ClassLease, ClassUpdate).
		Conflict(ClassLease, ClassPrimaryChange).
		Class(ClassUpdate).
		Build()
}

// PassiveStateMachine is the application of passive replication.
type PassiveStateMachine interface {
	// Execute processes a request WITHOUT mutating authoritative state,
	// returning the client result and the state update to propagate.
	Execute(op []byte) (result []byte, update []byte)
	// ApplyUpdate mutates the state; called at every replica when an update
	// message is delivered (in the same order everywhere, relative to
	// conflicting messages).
	ApplyUpdate(update []byte)
}

// Wire messages. Updates travel as pUpdateBatch (batch.go).
type (
	// pUpdate is the per-operation update of an earlier write path. Nothing
	// sends it any more; it stays registered because WAL and catch-up
	// records written before every write rode group commit still hold it,
	// and it replays as a one-entry batch (asBatch).
	pUpdate struct {
		Epoch   uint64
		Client  proc.ID
		ReqID   uint64
		Update  []byte
		Result  []byte
		Session string
		Seq     uint64
		Ack     uint64
		TS      int64
	}
	pChange struct {
		Old proc.ID
	}
)

func init() {
	msg.Register(pUpdate{})
}

// Errors returned by Request.
var (
	// ErrNotPrimary is returned when a request is submitted at a backup.
	ErrNotPrimary = errors.New("replication: not the primary")
	// ErrDemoted is returned when the primary lost its role while the
	// request was in flight (Figure 8 case 2): the caller must retry at the
	// new primary.
	ErrDemoted = errors.New("replication: demoted before update delivery")
	// ErrTimeout is returned by RequestTimeout when the update was not
	// delivered in time — e.g. the contacted primary is partitioned from
	// the quorum. The paper's client reacts by learning the new primary
	// and reissuing the request (Section 3.2.3).
	ErrTimeout = errors.New("replication: request timed out")
	// ErrPruned is returned by RequestSession for a sequence number the
	// client has already acknowledged: the result was pruned from the
	// session table and the retry indicates a client bug.
	ErrPruned = errors.New("replication: request already acknowledged and pruned")
	// ErrDegraded is returned while the quorum-progress watchdog has this
	// replica failing fast (watchdog.go): it believes it is the primary but
	// ordered progress has stalled past the bound with work pending —
	// typically a partition severed it from its quorum — or the pending
	// queue hit its admission bound. Retryable: the caller should back off
	// and retry, here or elsewhere.
	ErrDegraded = errors.New("replication: degraded: no quorum progress")
)

// Passive is one replica of a passively-replicated service.
type Passive struct {
	sm   PassiveStateMachine
	node *core.Node
	self proc.ID

	// Observability hookups, nil until wired (see metrics.go). Atomic
	// pointers so hot paths read them without taking mu.
	metrics atomic.Pointer[ReplMetrics]
	tracer  atomic.Pointer[telemetry.Tracer]

	mu       sync.Mutex
	replicas proc.View // replica list; head is the primary
	epoch    uint64    // primary-change count
	nextReq  uint64
	applied  uint64
	ignored  uint64
	changes  uint64
	dups     uint64 // session duplicates suppressed at apply time

	// commitIdx counts this replica's position in the totally ordered
	// command sequence: non-stale update entries (dup or not — the dedup
	// decision is itself replicated state), primary changes, read barriers
	// and lease messages. Within an epoch every counted message originates
	// at that epoch's unique primary (FIFO per origin), and primary changes
	// conflict with everything, so the sequence — and hence the index — is
	// identical at every replica. It is the token of the monotonic and
	// linearizable read levels (see read.go).
	commitIdx  uint64
	idxWaiters []*idxWaiter

	// sessions is REPLICATED state: it is mutated only by update delivery,
	// so (up to entries pruned by piggybacked client acks) every replica
	// holds the same table and any new primary can deduplicate retries.
	sessions map[string]*sessionRecord
	// inflight joins concurrent RequestSession calls for the same
	// (session, seq) at this primary so an operation is never broadcast (and
	// hence executed) twice.
	inflight map[sessKey]*sessWaiter

	// batcher is the write path (batch.go); batchWaiters wakes its in-flight
	// flush when the batch is delivered.
	batcher      *batcher
	batchWaiters map[uint64]chan pUpdateBatch

	// Read-barrier coalescing state (read.go): at most one barrier no-op is
	// in flight; readers arriving meanwhile join the next pending group.
	pendingBarrier *barrierGroup
	barrierBusy    bool
	barrierWaiters map[uint64]chan pBarrier
	barrierStats   BarrierStats

	// Replicated session lease state (lease.go): leaseClock advances on
	// delivered lease ticks; session records whose deadline falls behind it
	// are pruned identically at every replica.
	leaseClock   uint64
	leaseExpired uint64

	// Leadership-lease state (leaderlease.go). leaseMu guards only the lease
	// window fields below; it nests INSIDE p.mu (p.mu → leaseMu) and is never
	// held across anything that blocks. llEnabled gates the read fast path
	// with one atomic load; stateStamp is the applied-state commit timestamp
	// (monotone max of delivered TS fields) behind bounded-staleness reads.
	leaseMu    sync.Mutex //gcsvet:lock leaseMu
	llCfg      LeaderLeaseConfig
	llHolder   proc.ID
	llEpoch    uint64
	llExpiry   time.Time // holder-local: own send stamp + TTL
	llGuard    time.Time // local delivery time + TTL + margin
	llHandoff  time.Time // lease reads gated until this after an epoch change
	llStats    LeaderLeaseStats
	llEnabled  atomic.Bool
	llStop     chan struct{}
	llDone     sync.WaitGroup
	stateStamp atomic.Int64

	onPrimaryChange func(primary proc.ID, epoch uint64)

	failover     *fd.Subscription
	stopFailover chan struct{}
	failoverDone sync.WaitGroup

	// Quorum-progress watchdog state (watchdog.go). degraded is the
	// fail-fast gate read on every admission path; maxPending (under p.mu)
	// bounds admitted-but-undelivered work while the watchdog runs.
	degraded      atomic.Bool
	degradedTrips atomic.Uint64
	maxPending    int
	watchdogStop  chan struct{}
	watchdogDone  sync.WaitGroup

	// Snapshot / state-transfer machinery (snapshot.go, sync.go).
	//
	// deliverMu is held for the whole processing of one delivered command
	// (DeliverFunc wraps the handlers) and by snapshot capture/install and
	// log replay: a "delivery boundary" is precisely a point where deliverMu
	// is free. It nests OUTSIDE p.mu and is uncontended on the hot path —
	// deliveries already run on a single goroutine. Blocking while holding
	// it stalls every delivery of the replica (gcsvet lockhold enforces
	// this; the durable-before-ack fsync is the one sanctioned exception).
	deliverMu sync.Mutex  //gcsvet:lock deliverMu
	snap      Snapshotter // application state hooks for snapshots
	follower  bool        // catch-up replica: no node, log-driven deliveries
	logBase   uint64      // commit index preceding the first retained log entry
	log       []LogRec    // delivered commands covering (logBase, commitIdx]
	logCap    int         // retained-operation bound (see DefaultLogCap)

	// Follower proxies, installed by the Syncer: the read-index barrier
	// (linearizable reads at a follower) and lease renewal forwarding.
	barrierProxy func(timeout time.Duration, abort <-chan struct{}) (uint64, error)
	leaseProxy   func(sessions []string) error

	// Durable storage (storage.go). store/storeStaged/storeReplayed are
	// mutated under p.mu (pointer installs additionally under deliverMu);
	// storeDirty/storeBulk/storeReplay are delivery-path state guarded by
	// deliverMu alone — every reader and writer holds it.
	store             storage.Engine
	storeStaged       []LogRec
	storeReplayed     ReplayStats
	storeDirty        bool // appended since the last engine sync
	storeBulk         bool // ApplySyncEntries batch: one sync at the end
	storeReplay       bool // ReplayStorage in progress: no re-staging
	storeCompactBytes int64
	storeCompacting   atomic.Bool
}

// sessionRecord is one client session's slice of the replicated dedup table.
type sessionRecord struct {
	results map[uint64][]byte // seq -> result, for unacknowledged seqs
	pruned  uint64            // seqs <= pruned were acknowledged by the client
	// deadline is the lease clock tick past which the record expires; it is
	// refreshed by every applied write and by delivered lease renewals, so
	// the whole table stays bounded for vanished clients (lease.go).
	deadline uint64
}

// idxWaiter blocks a monotonic read until the commit index reaches index.
type idxWaiter struct {
	index uint64
	ch    chan struct{}
}

type sessKey struct {
	session string
	seq     uint64
}

// sessWaiter lets a retried request join the in-flight original instead of
// re-executing it.
type sessWaiter struct {
	done   chan struct{}
	result []byte
	err    error
}

// NewPassive creates a replica. replicas is the initial replica list (the
// same at every replica); its head is the initial primary.
func NewPassive(sm PassiveStateMachine, replicas []proc.ID) *Passive {
	p := &Passive{
		sm:             sm,
		replicas:       proc.NewView(replicas...),
		sessions:       make(map[string]*sessionRecord),
		inflight:       make(map[sessKey]*sessWaiter),
		batchWaiters:   make(map[uint64]chan pUpdateBatch),
		barrierWaiters: make(map[uint64]chan pBarrier),
		logCap:         DefaultLogCap,
	}
	p.batcher = newBatcher(p)
	return p
}

// DeliverFunc returns the node delivery callback. Each delivered command is
// processed under deliverMu so snapshot capture can interpose only at
// delivery boundaries (snapshot.go).
func (p *Passive) DeliverFunc() core.DeliverFunc {
	return func(d gbcast.Delivery) {
		p.deliverMu.Lock()
		defer p.deliverMu.Unlock()
		p.applyDelivered(d.Body)
	}
}

// applyDelivered routes one delivered command to its handler. It is the
// single entry point for real deliveries (DeliverFunc), log replay at a
// follower (ApplySyncEntries) and disk replay (ReplayStorage); the caller
// holds deliverMu.
func (p *Passive) applyDelivered(body any) {
	switch m := body.(type) {
	case pUpdate:
		p.onUpdateBatch(m.asBatch())
	case pUpdateBatch:
		p.onUpdateBatch(m)
	case pChange:
		p.onChange(m)
	case pBarrier:
		p.onBarrier(m)
	case pLease:
		p.onLease(m)
	case pLeaderLease:
		p.onLeaderLease(m)
	}
	// Ordered-class commands (changes, barriers, leases) append to storage
	// without forcing an fsync — nobody acks a client on them, and the next
	// update's sync covers the suffix. The update paths already persisted
	// (with sync) before waking their ackers; this drain is their no-op.
	p.persistDelivered(false)
}

// Bind attaches the replica to its node and starts its write path, the
// group-commit batcher (batch.go); StopBatching shuts it down.
func (p *Passive) Bind(node *core.Node) {
	p.node = node
	p.self = node.Self()
	p.batcher.start()
}

// StartFailover begins monitoring the primary with the given suspicion
// timeout; a backup that suspects the primary requests a primary change.
// A follower has no failure detector (and no vote): no-op.
func (p *Passive) StartFailover(timeout time.Duration) {
	if p.follower || p.node == nil {
		return
	}
	p.failover = p.node.FailureDetector().Subscribe(timeout)
	p.stopFailover = make(chan struct{})
	p.failoverDone.Add(1)
	go p.failoverLoop()
}

// StopFailover halts primary monitoring.
func (p *Passive) StopFailover() {
	if p.stopFailover == nil {
		return
	}
	select {
	case <-p.stopFailover:
	default:
		close(p.stopFailover)
	}
	p.failoverDone.Wait()
	p.failover.Close()
}

func (p *Passive) failoverLoop() {
	defer p.failoverDone.Done()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopFailover:
			return
		case <-ticker.C:
			prim := p.Primary()
			if prim != p.self && p.failover.Suspected(prim) {
				_ = p.RequestPrimaryChange(prim)
			}
		}
	}
}

// Primary returns the current primary. A follower never reports ITSELF as
// the primary, even while an installed snapshot's view still lists its ID
// at the head (a wiped member rejoining before failover rotated it out):
// gateways build redirect hints and the welcome's IsPrimary from this, and
// a self-hint would bounce clients off a replica that rejects every write.
func (p *Passive) Primary() proc.ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	primary := p.replicas.Primary()
	if p.follower && primary == p.self {
		if len(p.replicas.Members) > 1 {
			return p.replicas.Members[1]
		}
		return ""
	}
	return primary
}

// Epoch returns the number of primary changes delivered.
func (p *Passive) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Replicas returns the current replica list.
func (p *Passive) Replicas() proc.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicas.Clone()
}

// Counters returns (updates applied, stale updates ignored, primary
// changes) — the Figure 8 accounting.
func (p *Passive) Counters() (applied, ignored, changes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applied, p.ignored, p.changes
}

// Duplicates returns the number of session updates suppressed at apply time
// because their (session, seq) had already been applied — the exactly-once
// accounting.
func (p *Passive) Duplicates() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dups
}

// CommitIndex returns this replica's position in the totally ordered command
// sequence. Two replicas at the same commit index hold identical state, so
// the index is a portable staleness token: a session that records the index
// of its last acknowledged operation can demand "at least this" from any
// replica (the Monotonic read level).
func (p *Passive) CommitIndex() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.commitIdx
}

// WaitCommit blocks until this replica's commit index reaches at least
// index, returning the index observed. A lagging replica reaches the target
// as soon as the retransmission machinery delivers the missing messages;
// ErrTimeout is returned if that takes longer than timeout (e.g. the replica
// is partitioned from the quorum) so the caller can retry elsewhere, or as
// soon as abort is closed (nil = never) — the gateway passes its shutdown
// channel so a closing node does not wait out parked reads.
func (p *Passive) WaitCommit(index uint64, timeout time.Duration, abort <-chan struct{}) (uint64, error) {
	p.mu.Lock()
	if p.commitIdx >= index {
		idx := p.commitIdx
		p.mu.Unlock()
		return idx, nil
	}
	w := &idxWaiter{index: index, ch: make(chan struct{})}
	p.idxWaiters = append(p.idxWaiters, w)
	p.mu.Unlock()

	var expire <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case <-w.ch:
		p.mu.Lock()
		idx := p.commitIdx
		p.mu.Unlock()
		return idx, nil
	case <-expire:
	case <-abort:
	}
	p.mu.Lock()
	for i, o := range p.idxWaiters {
		if o == w {
			p.idxWaiters = append(p.idxWaiters[:i], p.idxWaiters[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	return 0, ErrTimeout
}

// advanceCommitLocked moves the commit index forward by n and wakes matured
// index waiters. For deliveries that mutate the state machine it MUST be
// called only after ApplyUpdate has run: a monotonic reader woken at index N
// reads local state without any lock, so the index may never get ahead of
// the applies it stands for. (Deliveries are serialized under deliverMu, so
// deferring the advance past the unlocked apply section cannot reorder it
// against other deliveries.)
func (p *Passive) advanceCommitLocked(n uint64) {
	p.commitIdx += n
	// A delivery is proof of quorum: progress clears the watchdog's
	// fail-fast gate on the spot (heal re-admission, see watchdog.go).
	if p.degraded.Load() {
		p.setDegraded(false)
	}
	if m := p.metrics.Load(); m != nil {
		m.commitIndex.Set(int64(p.commitIdx))
	}
	if len(p.idxWaiters) == 0 {
		return
	}
	kept := p.idxWaiters[:0]
	for _, w := range p.idxWaiters {
		if w.index <= p.commitIdx {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	p.idxWaiters = kept
}

// OnPrimaryChange registers a hook invoked after every delivered primary
// change with the new primary and epoch. It runs on the stack's delivery
// goroutine and must not block; the service gateway uses it to push
// NOT_PRIMARY redirects to connected clients (handing the work to its own
// goroutine).
func (p *Passive) OnPrimaryChange(fn func(primary proc.ID, epoch uint64)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onPrimaryChange = fn
}

// RequestPrimaryChange g-broadcasts primary-change(old) (Figure 8).
func (p *Passive) RequestPrimaryChange(old proc.ID) error {
	if err := p.node.Gbcast(ClassPrimaryChange, pChange{Old: old}); err != nil {
		return fmt.Errorf("replication: primary change: %w", err)
	}
	return nil
}

// Request processes a client request at this replica. It fails with
// ErrNotPrimary at a backup; at the primary the request joins the next
// group-commit batch, which is executed and g-broadcast as one update (fast
// class!), and Request waits for its delivery. If a primary change
// overtakes the update (Figure 8 case 2), it returns ErrDemoted and the
// state is untouched at every replica.
func (p *Passive) Request(op []byte) ([]byte, error) {
	return p.request(op, 0)
}

// RequestTimeout is Request with an upper bound on the wait for the
// update's delivery. It returns ErrTimeout if the bound expires — the
// situation of a primary cut off from the quorum, which the paper's client
// resolves by timing out and reissuing elsewhere.
func (p *Passive) RequestTimeout(op []byte, timeout time.Duration) ([]byte, error) {
	return p.request(op, timeout)
}

// notPrimaryErr builds the ErrNotPrimary redirect for a follower. The
// never-points-to-self fallback lives in Primary() so every consumer
// (redirect hints, gateway welcomes, the syncer's donor choice) shares one
// policy.
func (p *Passive) notPrimaryErr() error {
	return fmt.Errorf("%w (primary is %s)", ErrNotPrimary, p.Primary())
}

func (p *Passive) request(op []byte, timeout time.Duration) ([]byte, error) {
	if p.follower {
		return nil, p.notPrimaryErr()
	}
	p.mu.Lock()
	if p.replicas.Primary() != p.self {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w (primary is %s)", ErrNotPrimary, p.replicas.Primary())
	}
	if err := p.admitLocked(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	p.mu.Unlock()
	bop := &batchOp{op: op, w: &sessWaiter{done: make(chan struct{})}}
	p.batcher.enqueue(bop)
	result, err := bop.w.wait(timeout)
	if errors.Is(err, ErrTimeout) {
		// Nothing can join an unsessioned operation, so once its caller
		// leaves it stops counting as pending work (watchdog.go).
		bop.left.Store(true)
	}
	return result, err
}

// RequestSession is Request with exactly-once semantics across failover.
// The client names its operation with a (session, seq) pair; every replica
// records delivered results in a replicated session table, so a retry of an
// already-executed operation — at this primary or at a new primary after a
// failover — returns the original result instead of executing again.
// ack is the client's highest contiguously acknowledged sequence; it is
// piggybacked on the update so all replicas prune their tables identically.
//
// Concurrent calls for the same (session, seq) join the in-flight original:
// the operation is broadcast (and executed) at most once per epoch, and
// apply-time deduplication suppresses cross-epoch duplicates.
func (p *Passive) RequestSession(session string, seq, ack uint64, op []byte, timeout time.Duration) ([]byte, error) {
	if session == "" {
		return nil, fmt.Errorf("replication: RequestSession with empty session")
	}
	if p.follower {
		return nil, p.notPrimaryErr()
	}
	key := sessKey{session: session, seq: seq}
	p.mu.Lock()
	if p.replicas.Primary() != p.self {
		primary := p.replicas.Primary()
		p.mu.Unlock()
		return nil, fmt.Errorf("%w (primary is %s)", ErrNotPrimary, primary)
	}
	if rec, ok := p.sessions[session]; ok {
		if res, ok := rec.results[seq]; ok {
			// Already executed. If its local apply is still in flight (the
			// result is recorded before ApplyUpdate runs), wait for it so a
			// cached result is never observable before the state change.
			w := p.inflight[key]
			p.mu.Unlock()
			if w != nil {
				return w.wait(timeout)
			}
			return append([]byte(nil), res...), nil
		}
		if seq <= rec.pruned {
			p.mu.Unlock()
			return nil, ErrPruned
		}
	}
	if w, ok := p.inflight[key]; ok {
		p.mu.Unlock()
		return w.wait(timeout)
	}
	// Fresh work only past this point: cached results and in-flight joins
	// above stay servable while degraded (they need no new quorum round).
	if err := p.admitLocked(); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	// The batcher resolves w (and clears the in-flight entry) when the
	// batch is delivered or the primary is demoted, whatever this caller's
	// timeout: until then a retry joins w instead of executing again.
	w := &sessWaiter{done: make(chan struct{})}
	p.inflight[key] = w
	p.mu.Unlock()
	p.batcher.enqueue(&batchOp{key: key, op: op, ack: ack, w: w})
	return w.wait(timeout)
}

func (p *Passive) resolve(key sessKey, w *sessWaiter, result []byte, err error) {
	p.mu.Lock()
	delete(p.inflight, key)
	p.mu.Unlock()
	w.result, w.err = result, err
	close(w.done)
}

func (w *sessWaiter) wait(timeout time.Duration) ([]byte, error) {
	var expire <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case <-w.done:
		if w.err != nil {
			return nil, w.err
		}
		return append([]byte(nil), w.result...), nil
	case <-expire:
		return nil, ErrTimeout
	}
}

func (p *Passive) sessionLocked(session string) *sessionRecord {
	rec, ok := p.sessions[session]
	if !ok {
		rec = &sessionRecord{
			results:  make(map[uint64][]byte),
			deadline: p.leaseClock + leaseTTLTicks,
		}
		p.sessions[session] = rec
	}
	return rec
}

// SessionTableSize returns the replicated dedup table's size: live session
// records and cached (unacknowledged) results across them. With the
// replicated lease running, both stay bounded under session churn; without
// it, a vanished client's last results are cached forever.
func (p *Passive) SessionTableSize() (sessions, results int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rec := range p.sessions {
		results += len(rec.results)
	}
	return len(p.sessions), results
}

// staleEpoch marks an update that was ignored because a primary change was
// delivered first (Figure 8 case 2).
const staleEpoch = ^uint64(0)

// dedupSessionLocked is the apply-time exactly-once bookkeeping for ONE
// sessioned batch entry (onUpdateBatch); p.mu must be held. It returns dup=true
// for an entry whose (session, seq) already applied — replacing *result
// with the cached original so waiters observe the first execution's result
// — and otherwise records the result, prunes acknowledged seqs, and (when
// this replica is not the originator, i.e. no in-flight waiter exists)
// installs and returns a gate that holds retries until the caller has
// applied the entry's state change and resolved it.
func (p *Passive) dedupSessionLocked(session string, seq, ack uint64, result *[]byte) (dup bool, gate *sessWaiter) {
	rec := p.sessionLocked(session)
	switch {
	case seq <= rec.pruned:
		dup = true
	default:
		if cached, ok := rec.results[seq]; ok {
			dup = true
			*result = cached
		}
	}
	if dup {
		p.dups++
		return true, nil
	}
	p.applied++
	rec.results[seq] = *result
	rec.deadline = p.leaseClock + leaseTTLTicks // every applied write renews the lease
	if ack > rec.pruned {
		rec.pruned = ack
		for s := range rec.results {
			if s <= rec.pruned {
				delete(rec.results, s)
			}
		}
	}
	key := sessKey{session: session, seq: seq}
	if _, ok := p.inflight[key]; !ok {
		gate = &sessWaiter{done: make(chan struct{})}
		p.inflight[key] = gate
	}
	return false, gate
}

// asBatch is the one-entry batch a per-operation update record replays as.
// Client and ReqID are dropped: a replayed record has no waiter.
func (u pUpdate) asBatch() pUpdateBatch {
	return pUpdateBatch{Epoch: u.Epoch, TS: u.TS, Entries: []pBatchEntry{{
		Update: u.Update, Result: u.Result,
		Session: u.Session, Seq: u.Seq, Ack: u.Ack,
	}}}
}

func (p *Passive) onChange(c pChange) {
	p.mu.Lock()
	var hook func(primary proc.ID, epoch uint64)
	var primary proc.ID
	var epoch uint64
	// Primary changes conflict with every counted class, so counting each
	// delivery (even a no-op rotation — that decision is replicated state)
	// keeps the commit index identical everywhere.
	p.advanceCommitLocked(1)
	p.logAppendLocked(c)
	next := p.replicas.RotatePast(c.Old)
	changed := next.Seq != p.replicas.Seq
	if changed {
		p.replicas = next
		p.epoch++
		p.changes++
		hook = p.onPrimaryChange
		primary = next.Primary()
		epoch = p.epoch
	}
	p.mu.Unlock()
	if changed {
		// Void any leadership lease the instant the epoch change lands —
		// including at the deposed primary — and raise the handoff gate the
		// new primary must wait out (leaderlease.go). Runs on the delivery
		// goroutine, so it precedes every later delivery of the new epoch.
		p.voidLeaseOnChange()
	}
	if hook != nil {
		hook(primary, epoch)
	}
}
