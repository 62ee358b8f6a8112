package replication

import (
	"log/slog"
	"time"
)

// Quorum-progress watchdog: graceful degradation at a quorumless primary.
//
// A primary cut off from its quorum cannot deliver anything — g-broadcast
// needs a majority — so every admitted write just parks until the caller's
// timeout. That is safe (nothing quorumless is ever acked) but cruel: each
// client burns its full OpTimeout on an answer the primary already knows it
// cannot give, and the pending queue grows without bound while it does.
//
// The watchdog turns "I can't make progress" into an explicit, observable
// mode. It watches the commit index; when the replica believes it is the
// primary, has work in flight, and the index has not moved for StallTimeout,
// the replica trips DEGRADED:
//
//   - new admissions (Request / RequestSession / ReadBarrier) fail fast with
//     ErrDegraded, a retryable error the service layer maps to a
//     DEGRADED/UNAVAILABLE-class answer — the client goes looking for a
//     healthier replica instead of queueing;
//   - the pending (not yet broadcast) read-barrier group is voided, so
//     parked linearizable readers release immediately;
//   - already-admitted writes are left to their own bounded timeouts — they
//     are in the broadcast layer's hands and will either deliver after heal
//     (the reliable channel retransmits) or go stale at a primary change.
//
// Re-admission is automatic and needs no probe traffic: the stuck in-flight
// broadcasts double as probes. The moment the partition heals, the broadcast
// layer delivers them, the commit index advances, and advanceCommitLocked
// clears the flag on the spot — a delivery IS proof of quorum. A demotion
// clears it the same way (the primary change is itself a delivery).
//
// That leaves one way to wedge: the pending work can evaporate without a
// delivery (an unsessioned write whose caller timed out stops counting; a
// failed broadcast attempt resolves its batch with an error). A degraded primary with nothing in
// flight has no probe — no delivery can ever clear the flag, yet every fresh
// admission bounces, so nothing new can become the probe. The watchdog
// breaks the cycle the way a circuit breaker half-opens: when it observes
// degraded with zero pending work, it clears the flag and restarts the stall
// clock. The next admitted write is the probe; if the stall persists it
// parks and re-trips after another StallTimeout, so a long partition
// degrades into periodic probing rather than either permanent fail-fast or
// permanent parking.
//
// Independent of the trip state, MaxPending bounds how much work a primary
// will queue: past the bound, admissions fail fast with ErrDegraded even
// before the stall timer fires. The bound holds whenever the watchdog is
// running.

// WatchdogConfig tunes the quorum-progress watchdog.
type WatchdogConfig struct {
	// StallTimeout is how long the commit index may sit still with work
	// pending before the replica degrades. Set it above the failover
	// suspicion timeout, or a normal election looks like a stall. Required.
	StallTimeout time.Duration
	// CheckEvery is the poll cadence (default StallTimeout/4). The trip
	// latency bound seen by clients is StallTimeout + CheckEvery.
	CheckEvery time.Duration
	// MaxPending bounds the write operations admitted at the primary and
	// not yet delivered (queued or in the in-flight batch, counted per
	// entry) plus in-flight read barriers (default 4096).
	MaxPending int
}

// DefaultMaxPending is the pending-work admission bound when the watchdog
// runs with MaxPending unset.
const DefaultMaxPending = 4096

// StartWatchdog begins quorum-progress monitoring. No-op at a follower (it
// admits no writes), with a zero StallTimeout, or when already running.
func (p *Passive) StartWatchdog(cfg WatchdogConfig) {
	if p.follower || cfg.StallTimeout <= 0 || p.watchdogStop != nil {
		return
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = cfg.StallTimeout / 4
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	p.mu.Lock()
	p.maxPending = cfg.MaxPending
	p.mu.Unlock()
	p.watchdogStop = make(chan struct{})
	p.watchdogDone.Add(1)
	go p.watchdogLoop(cfg)
}

// StopWatchdog halts monitoring and lifts the degraded gate and pending
// bound. Idempotent.
func (p *Passive) StopWatchdog() {
	if p.watchdogStop == nil {
		return
	}
	select {
	case <-p.watchdogStop:
	default:
		close(p.watchdogStop)
	}
	p.watchdogDone.Wait()
	p.mu.Lock()
	p.maxPending = 0
	p.mu.Unlock()
	p.setDegraded(false)
}

// Degraded reports whether the watchdog currently has the replica failing
// fast. Surfaced in /healthz and as the gcs_replication_degraded gauge.
func (p *Passive) Degraded() bool { return p.degraded.Load() }

// DegradedTrips returns how many times the watchdog tripped.
func (p *Passive) DegradedTrips() uint64 { return p.degradedTrips.Load() }

func (p *Passive) watchdogLoop(cfg WatchdogConfig) {
	defer p.watchdogDone.Done()
	ticker := time.NewTicker(cfg.CheckEvery)
	defer ticker.Stop()
	var (
		lastIdx      uint64
		lastMove     = time.Now()
		wasDegraded  bool
		everObserved bool
	)
	for {
		select {
		case <-p.watchdogStop:
			return
		case <-ticker.C:
		}
		p.mu.Lock()
		idx := p.commitIdx
		isPrimary := p.replicas.Primary() == p.self
		pending := p.pendingLocked()
		p.mu.Unlock()
		now := time.Now()
		if !everObserved || idx != lastIdx {
			lastIdx, lastMove, everObserved = idx, now, true
		}
		// Progress (or demotion's delivery) already cleared the flag inside
		// advanceCommitLocked; the loop only narrates the transition.
		degraded := p.degraded.Load()
		if wasDegraded && !degraded {
			slog.Info("replication: quorum progress resumed; re-admitting writes",
				"self", p.self, "commit_index", idx)
		}
		wasDegraded = degraded
		if degraded {
			if pending == 0 {
				// Half-open: the stuck work that proved the stall has
				// evaporated (timed out, resolved with an error), so no
				// delivery can ever clear the flag — but nothing is parked
				// either. Re-admit; the next write is the probe, and a
				// persisting stall re-trips after a fresh StallTimeout.
				p.setDegraded(false)
				lastMove = now
				wasDegraded = false
				slog.Info("replication: degraded with nothing in flight; re-admitting to probe",
					"self", p.self, "commit_index", idx)
			}
			continue
		}
		if !isPrimary {
			continue
		}
		if pending == 0 {
			// The stall clock runs only while work is pending: an idle
			// primary is not stalled, however long its index sits still.
			lastMove = now
			continue
		}
		if now.Sub(lastMove) >= cfg.StallTimeout {
			p.tripDegraded(pending, now.Sub(lastMove))
			wasDegraded = true
		}
	}
}

// pendingLocked counts admitted work awaiting ordered progress: queued and
// in-flight write operations plus in-flight read barriers. p.mu must be
// held.
func (p *Passive) pendingLocked() int {
	return len(p.barrierWaiters) + p.batcher.pendingLen()
}

// pendingLen counts the queued operations plus every entry of the in-flight
// batch that a caller still waits on. A sessioned entry always counts (a
// retry may join it until delivery); an unsessioned one stops counting once
// its caller's timeout expired.
func (b *batcher) pendingLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.queue)
	for _, op := range b.flying {
		if !op.left.Load() {
			n++
		}
	}
	return n
}

// admitLocked is the watchdog's admission gate, called on every write/barrier
// admission path with p.mu held. It fails fast while degraded, and bounds
// the pending queue while the watchdog runs.
func (p *Passive) admitLocked() error {
	if p.degraded.Load() {
		return ErrDegraded
	}
	if p.maxPending > 0 && p.pendingLocked() >= p.maxPending {
		return ErrDegraded
	}
	return nil
}

// tripDegraded flips the replica into fail-fast mode and voids the pending
// read-barrier group.
func (p *Passive) tripDegraded(pending int, stalled time.Duration) {
	p.mu.Lock()
	if p.degraded.Load() {
		p.mu.Unlock()
		return
	}
	p.degraded.Store(true)
	p.degradedTrips.Add(1)
	if m := p.metrics.Load(); m != nil {
		m.degraded.Set(1)
	}
	// Void the pending (never broadcast) barrier group: its readers are
	// parked on a broadcast that will now never be attempted. The in-flight
	// one, if any, resolves through delivery or staleness like any other
	// admitted work.
	g := p.pendingBarrier
	p.pendingBarrier = nil
	epoch := p.epoch
	p.mu.Unlock()
	if g != nil {
		g.err = ErrDegraded
		close(g.done)
	}
	slog.Warn("replication: quorum progress stalled; degraded, failing new writes fast",
		"self", p.self, "epoch", epoch, "pending", pending, "stalled", stalled)
}

// setDegraded force-sets the flag (StopWatchdog's cleanup).
func (p *Passive) setDegraded(v bool) {
	p.degraded.Store(v)
	if m := p.metrics.Load(); m != nil {
		if v {
			m.degraded.Set(1)
		} else {
			m.degraded.Set(0)
		}
	}
}
