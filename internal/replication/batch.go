package replication

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proc"
)

// Group commit: the replica's one write path.
//
// The paper's abcast layer already amortises consensus across *batches* of
// messages per instance (Section 3.3); this file extends the same
// amortisation upward. Every Request/RequestTimeout/RequestSession at the
// primary enqueues into the batcher that Bind starts, and a single flush
// loop executes the queued operations and g-broadcasts them as one
// pUpdateBatch (fast class). The batching window is the classic group-commit
// one — while one batch's g-broadcast is in flight, newly arriving
// operations accumulate into the next batch (bounded by count and bytes,
// plus an optional max-delay knob for idle primaries). An isolated write is
// a batch of one: one Execute, one g-broadcast, one apply, exactly what an
// unbatched write path would send.
//
// Correctness (Figure 8, applied batch-wise):
//
//   - A batch carries the epoch captured at flush time; a primary change
//     delivered before the batch makes the WHOLE batch stale, every replica
//     ignores it identically, and every waiter gets ErrDemoted (case 2).
//   - Replicas apply batch entries in order, atomically interleaved with the
//     (session, seq) dedup of the replicated session table, so exactly-once
//     across failover is preserved even when a primary crashes mid-batch: a
//     retried entry that already applied via an earlier batch returns its
//     cached result instead of executing again.

// Wire messages of the batched write path.
type (
	// pBatchEntry is one client operation inside a pUpdateBatch. Session/Seq
	// identify it for exactly-once semantics across failover (empty Session
	// = unsessioned request); Ack piggybacks the client's highest
	// acknowledged sequence so every replica prunes its session table
	// deterministically.
	pBatchEntry struct {
		Update  []byte
		Result  []byte
		Session string // empty = unsessioned request
		Seq     uint64
		Ack     uint64
	}
	// pUpdateBatch is the group-commit update: all entries were executed at
	// the primary under Epoch and must be applied in order by every replica.
	pUpdateBatch struct {
		Epoch   uint64
		Client  proc.ID
		ReqID   uint64 // originator's waiter key (batchWaiters)
		Entries []pBatchEntry
		// TS is the primary's clock at broadcast — one commit timestamp for
		// the whole batch, stamped onto applied state (leaderlease.go).
		TS int64
	}
)

// BatchConfig tunes the primary-side group-commit batcher.
type BatchConfig struct {
	// MaxOps bounds the entries coalesced into one batch (default 128).
	MaxOps int
	// MaxBytes bounds the summed op payload bytes per batch (default 256 KiB).
	// A single oversized operation still ships alone.
	MaxBytes int
	// MaxDelay is how long an idle primary holds the first operation of a
	// batch waiting for companions (default 0: flush immediately; the
	// in-flight broadcast is the natural batching window). Single-operation
	// latency regresses by at most this much.
	MaxDelay time.Duration
}

func (c *BatchConfig) applyDefaults() {
	if c.MaxOps <= 0 {
		c.MaxOps = 128
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 10
	}
}

// BatchStats is the batcher's accounting.
type BatchStats struct {
	Batches  uint64 // batches broadcast
	Ops      uint64 // operations carried in those batches
	MaxBatch int    // largest batch observed
}

// batchOp is one queued operation awaiting a flush.
type batchOp struct {
	key sessKey // key.session may be "" for unsessioned requests
	op  []byte
	ack uint64
	w   *sessWaiter
	enq time.Time // enqueue time; zero when metrics are off
	// left is set when an unsessioned caller stopped waiting (its timeout
	// expired): nothing can join such an operation, so it no longer counts
	// as pending work for the watchdog (pendingLen).
	left atomic.Bool
}

// batcher is the primary-side group-commit pipeline. Operations enqueue
// from any goroutine; a single flush loop drains them into pUpdateBatch
// broadcasts, at most one in flight at a time.
type batcher struct {
	p *Passive

	mu         sync.Mutex
	cfg        BatchConfig
	queue      []*batchOp
	queueBytes int        // summed op bytes in queue
	flying     []*batchOp // the in-flight batch's operations
	stats      BatchStats
	stopped    bool // write path shut down; enqueues resolve immediately

	kick     chan struct{} // buffered(1): queue went non-empty
	full     chan struct{} // buffered(1): queue holds a full batch (wakes waitFill)
	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

func newBatcher(p *Passive) *batcher {
	b := &batcher{
		p:    p,
		kick: make(chan struct{}, 1),
		full: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	b.cfg.applyDefaults()
	return b
}

// start runs the flush loop (Bind).
func (b *batcher) start() {
	b.done.Add(1)
	go b.loop()
}

// EnableBatching sets the group-commit batch bounds; zero fields take their
// defaults. Every bound replica batches from Bind on, so this only tunes the
// window; call it before the first request.
func (p *Passive) EnableBatching(cfg BatchConfig) {
	cfg.applyDefaults()
	b := p.batcher
	b.mu.Lock()
	b.cfg = cfg
	b.mu.Unlock()
}

// StopBatching shuts the write path down: the flush loop halts, and queued,
// in-flight and later writes resolve with the retryable ErrTimeout so callers
// retry elsewhere. Call it when the replica is retired. Idempotent.
func (p *Passive) StopBatching() {
	b := p.batcher
	b.stopOnce.Do(func() { close(b.stop) })
	b.done.Wait()
	b.failAll(ErrTimeout)
}

// BatchStats returns the batcher accounting.
func (p *Passive) BatchStats() BatchStats {
	b := p.batcher
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// enqueue adds one operation to the next batch. The caller has already
// registered w in p.inflight (for sessioned operations) so retries join it.
func (b *batcher) enqueue(op *batchOp) {
	if b.p.metrics.Load() != nil {
		op.enq = time.Now()
	}
	b.p.markOp(op.key, "batch_enqueue")
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.p.resolve(op.key, op.w, nil, ErrTimeout)
		return
	}
	b.queue = append(b.queue, op)
	b.queueBytes += len(op.op)
	reachedFull := len(b.queue) >= b.cfg.MaxOps || b.queueBytes >= b.cfg.MaxBytes
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	if reachedFull {
		select {
		case b.full <- struct{}{}:
		default:
		}
	}
}

// take removes up to MaxOps / MaxBytes worth of queued operations as the
// in-flight batch, re-arming the kick when work remains.
func (b *batcher) take() []*batchOp {
	b.mu.Lock()
	n, bytes := 0, 0
	for n < len(b.queue) && n < b.cfg.MaxOps {
		bytes += len(b.queue[n].op)
		if n > 0 && bytes > b.cfg.MaxBytes {
			break
		}
		n++
	}
	ops := b.queue[:n:n]
	b.queue = b.queue[n:]
	for _, op := range ops {
		b.queueBytes -= len(op.op)
	}
	b.flying = ops
	more := len(b.queue) > 0
	b.mu.Unlock()
	if more {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
	return ops
}

// windowFull reports whether the queue already holds a full batch (by count
// or bytes), so a fill window need not be held open.
func (b *batcher) windowFull() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue) >= b.cfg.MaxOps || b.queueBytes >= b.cfg.MaxBytes
}

func (b *batcher) loop() {
	defer b.done.Done()
	// Under steady load MaxDelay does NOT apply: within MaxDelay of the
	// previous flush, the in-flight broadcast was the batching window, and
	// holding freshly accumulated ops again would only add latency (and for
	// closed-loop clients, collapse throughput to 1/MaxDelay). The delay is
	// paid solely by the first op after an idle period, as documented.
	var lastFlush time.Time
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
		}
		if d := b.maxDelay(); d > 0 && time.Since(lastFlush) >= d && !b.waitFill(d) {
			return
		}
		ops := b.take()
		if len(ops) == 0 {
			continue
		}
		// flush blocks until the batch's delivery (or demotion), which is
		// exactly the group-commit window: everything arriving meanwhile
		// coalesces into the next batch.
		b.flush(ops)
		lastFlush = time.Now()
	}
}

func (b *batcher) maxDelay() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cfg.MaxDelay
}

// waitFill holds the first operation of a batch for up to MaxDelay, waking
// early once a full batch (MaxOps or MaxBytes) is queued — signaled by
// enqueue, no polling. It reports false when the write path was stopped
// meanwhile: the held operations are StopBatching's to release.
func (b *batcher) waitFill(maxDelay time.Duration) bool {
	// Drain any stale fullness signal from a previous window, then
	// re-check: the queue may already be full.
	select {
	case <-b.full:
	default:
	}
	if b.windowFull() {
		return true
	}
	deadline := time.NewTimer(maxDelay)
	defer deadline.Stop()
	select {
	case <-b.stop:
		return false
	case <-deadline.C:
	case <-b.full:
	}
	return true
}

// land clears the in-flight batch once flush has resolved it.
func (b *batcher) land() {
	b.mu.Lock()
	b.flying = nil
	b.mu.Unlock()
}

// failAll resolves every queued operation with err (StopBatching) and
// redirects subsequent enqueues straight to resolution.
func (b *batcher) failAll(err error) {
	b.mu.Lock()
	b.stopped = true
	ops := b.queue
	b.queue = nil
	b.mu.Unlock()
	for _, op := range ops {
		b.p.resolve(op.key, op.w, nil, err)
	}
}

// flush executes one batch at the primary and g-broadcasts it, blocking
// until its delivery resolves every entry's waiter.
func (b *batcher) flush(ops []*batchOp) {
	defer b.land()
	p := b.p
	p.mu.Lock()
	if p.replicas.Primary() != p.self {
		primary := p.replicas.Primary()
		p.mu.Unlock()
		err := fmt.Errorf("%w (primary is %s)", ErrNotPrimary, primary)
		for _, op := range ops {
			p.resolve(op.key, op.w, nil, err)
		}
		return
	}
	epoch := p.epoch
	p.nextReq++
	req := p.nextReq
	ch := make(chan pUpdateBatch, 1)
	p.batchWaiters[req] = ch
	p.mu.Unlock()

	m := p.metrics.Load()
	if m != nil {
		m.observeBatchWait(ops, time.Now())
	}
	p.markOps(ops, "batch_flush")

	// Execute in queue order. Execute must not mutate authoritative state
	// (PassiveStateMachine contract), so ordering here only fixes the order
	// entries are applied in everywhere.
	entries := make([]pBatchEntry, len(ops))
	for i, op := range ops {
		result, update := p.sm.Execute(op.op)
		entries[i] = pBatchEntry{
			Update: update, Result: result,
			Session: op.key.session, Seq: op.key.seq, Ack: op.ack,
		}
	}
	u := pUpdateBatch{Epoch: epoch, Client: p.self, ReqID: req, Entries: entries,
		TS: time.Now().UnixNano()}
	var sent time.Time
	if m != nil {
		sent = time.Now()
	}
	if err := p.node.Gbcast(ClassUpdate, u); err != nil {
		p.mu.Lock()
		delete(p.batchWaiters, req)
		p.mu.Unlock()
		err = fmt.Errorf("replication: update batch: %w", err)
		for _, op := range ops {
			p.resolve(op.key, op.w, nil, err)
		}
		return
	}

	b.mu.Lock()
	b.stats.Batches++
	b.stats.Ops += uint64(len(ops))
	if len(ops) > b.stats.MaxBatch {
		b.stats.MaxBatch = len(ops)
	}
	b.mu.Unlock()

	select {
	case delivered := <-ch:
		if m != nil {
			m.commitLatency.Observe(time.Since(sent))
		}
		if delivered.Epoch == staleEpoch {
			for _, op := range ops {
				p.resolve(op.key, op.w, nil, ErrDemoted)
			}
			return
		}
		// Entry order is preserved through delivery; dup entries carry the
		// cached original result (see onUpdateBatch).
		p.markOps(ops, "delivered")
		for i, op := range ops {
			p.resolve(op.key, op.w, delivered.Entries[i].Result, nil)
		}
	case <-b.stop:
		// Shutdown while in flight: the waiter entry stays registered (the
		// node may still deliver the batch, whose apply path needs no
		// batcher), but callers are released to retry elsewhere.
		for _, op := range ops {
			p.resolve(op.key, op.w, nil, ErrTimeout)
		}
	}
}

// onUpdateBatch is the delivery path of every write: each entry is applied
// in order, atomically with respect to the session-table dedup.
func (p *Passive) onUpdateBatch(u pUpdateBatch) {
	type gate struct {
		key    sessKey
		w      *sessWaiter
		result []byte
	}
	var gates []gate
	apply := make([]bool, len(u.Entries))

	p.mu.Lock()
	stale := u.Epoch != p.epoch
	if stale {
		p.ignored += uint64(len(u.Entries))
	} else {
		for i := range u.Entries {
			e := &u.Entries[i]
			if e.Session == "" {
				p.applied++
				apply[i] = true
				continue
			}
			// Apply-time exactly-once bookkeeping, per entry. The dedup
			// decision and the table record happen atomically with
			// RequestSession's dedup check; the apply itself runs outside
			// the lock (the state machine must never be entered with p.mu
			// held). At the originator the inflight waiter is owned by the
			// batcher's flush, resolved after our wake below, which follows
			// the applies; elsewhere the returned gate holds retries until
			// this entry has been applied, so a cached result is never
			// returned before its state change.
			dup, w := p.dedupSessionLocked(e.Session, e.Seq, e.Ack, &e.Result)
			if dup {
				continue
			}
			apply[i] = true
			if w != nil {
				gates = append(gates, gate{
					key:    sessKey{session: e.Session, seq: e.Seq},
					w:      w,
					result: e.Result,
				})
			}
		}
	}
	var ch chan pUpdateBatch
	if u.Client == p.self {
		ch = p.batchWaiters[u.ReqID]
		delete(p.batchWaiters, u.ReqID)
	}
	p.mu.Unlock()

	if !stale {
		for i := range u.Entries {
			if apply[i] {
				p.sm.ApplyUpdate(u.Entries[i].Update)
			}
		}
		// Only after every entry's apply: a monotonic reader woken at this
		// index reads local state lock-free. One log record covers the whole
		// batch (the index advances by its entry count).
		p.mu.Lock()
		p.advanceCommitLocked(uint64(len(u.Entries)))
		p.logAppendLocked(u)
		p.mu.Unlock()
		p.bumpStamp(u.TS)
		// Durable BEFORE acked, one fsync for the whole batch — the commit
		// window IS the fsync window. Must precede the gate resolutions and
		// the originator's wake below.
		p.persistDelivered(true)
	}
	for _, g := range gates {
		p.resolve(g.key, g.w, g.result, nil)
	}
	if ch != nil {
		if stale {
			u.Epoch = staleEpoch
		}
		ch <- u
	}
}
