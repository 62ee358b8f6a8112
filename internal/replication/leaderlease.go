package replication

import (
	"time"

	"repro/internal/proc"
)

// Leader lease: linearizable reads at the primary without the per-read
// ordered barrier.
//
// The read barrier (read.go) buys linearizability by pushing a no-op through
// the ordered path for every read burst — ~2 broadcasts per coalescing
// window, which caps linearizable read throughput near the ordered path's
// ceiling while local reads run 3× faster (E13). The lease moves the ordered
// work off the read path: the primary periodically g-broadcasts a
// pLeaderLease renewal in ClassLease (totally ordered, like the session
// lease), and while its lease window holds it answers linearizable reads
// from local state with NO broadcast at all.
//
// Why that is safe, piece by piece:
//
//   - The grant is ordered. A renewal travels in ClassLease, which conflicts
//     with updates, primary changes and itself, so every replica sees the
//     same interleaving of renewals and epoch changes and agrees on who held
//     the lease at every point of the command sequence.
//   - Expiry is anchored at SEND time, extended only by COMMITTED renewals.
//     The holder stamps each renewal with its own clock at broadcast and
//     extends its window to that stamp + TTL only when the renewal comes
//     BACK — i.e. was ordered by a quorum and delivered locally. Broadcasting
//     precedes every replica's delivery, so the holder's window always
//     expires no later than any window another replica could infer from the
//     same renewal; and a primary cut off from its quorum commits nothing,
//     so its lease lapses at most TTL after the cut.
//   - A new primary waits out the old lease. Every replica records a guard =
//     local delivery time + TTL + margin for each delivered renewal; when an
//     epoch change is delivered, the guard becomes the handoff gate: until it
//     passes, the new primary serves linearizable reads through the ordered
//     ReadBarrier exactly as before. Delivery at a backup happens AFTER the
//     holder's send, so guard ≥ holder's expiry + margin — the windows
//     cannot overlap, regardless of who has the faster clock, as long as
//     clock RATES agree within the margin (no absolute clock sync needed).
//   - Delivery of the epoch change voids the old lease instantly at whoever
//     delivers it — including the deposed primary, the moment it learns.
//   - The watchdog's degraded gate is defense in depth: a primary that knows
//     ordered progress has stalled stops serving lease reads even inside its
//     nominal window.
//
// The deployment constraint that makes the windows disjoint in real time is
// TTL + margin ≤ the failover suspicion timeout: a backup only requests a
// primary change after the suspicion timeout passes with no sign of the
// primary, by which point a lease whose renewals stopped committing at the
// same cut has already lapsed. DESIGN.md's "Documented simplifications"
// carries the residual assumption (spurious suspicions of a live but laggy
// primary are not covered by a recency check at the consensus acceptors).
//
// Renewals double as freshness heartbeats: each carries the holder's commit
// timestamp, so an idle system's followers still observe a fresh stateStamp
// and can answer bounded-staleness reads (see StateAge).

// pLeaderLease is one ordered leadership-lease renewal. TTLns rides in the
// message so every replica computes the same guard window even if locally
// configured differently; TS is the holder's clock at broadcast — the
// holder's expiry anchor and the bounded-staleness freshness stamp.
type pLeaderLease struct {
	Epoch  uint64
	Holder proc.ID
	TTLns  int64
	TS     int64 // unix nanos at the holder when the renewal was broadcast
}

// LeaderLeaseConfig tunes the leadership lease.
type LeaderLeaseConfig struct {
	// TTL is the lease length from a renewal's broadcast. Together with
	// Margin it must stay at or below the failover suspicion timeout, or a
	// deposed primary's window could overlap the new primary's first writes.
	// Required.
	TTL time.Duration
	// Margin is the clock-drift allowance added to the guard a replica
	// records at delivery (default TTL/4). It also pads the handoff gate a
	// new primary waits out.
	Margin time.Duration
	// Renew is the renewal broadcast period (default TTL/4): small enough
	// that one lost renewal does not lapse the lease.
	Renew time.Duration
}

func (c *LeaderLeaseConfig) applyDefaults() {
	if c.Margin <= 0 {
		c.Margin = c.TTL / 4
	}
	if c.Renew <= 0 {
		c.Renew = c.TTL / 4
	}
	if c.Renew <= 0 {
		c.Renew = time.Millisecond
	}
}

// LeaderLeaseStats is the leadership-lease accounting at this replica.
type LeaderLeaseStats struct {
	Grants           uint64 // non-stale renewals delivered
	Voided           uint64 // leases voided by a delivered epoch change
	LeaseReads       uint64 // linearizable reads served on the lease fast path
	BarrierFallbacks uint64 // lease-enabled reads that fell back to the barrier
}

// LeaderLeaseStats returns the lease accounting.
func (p *Passive) LeaderLeaseStats() LeaderLeaseStats {
	p.leaseMu.Lock()
	defer p.leaseMu.Unlock()
	return p.llStats
}

// leaseHeld reports whether this replica currently holds a live lease for
// its current epoch, past the handoff gate (the lease-read condition minus
// the degraded gate) — the gcs_replication_lease_held gauge.
func (p *Passive) leaseHeld() bool {
	p.mu.Lock()
	isPrimary := p.replicas.Primary() == p.self
	epoch := p.epoch
	p.mu.Unlock()
	if !isPrimary {
		return false
	}
	now := time.Now()
	p.leaseMu.Lock()
	defer p.leaseMu.Unlock()
	return p.llHolder == p.self && p.llEpoch == epoch &&
		now.Before(p.llExpiry) && !now.Before(p.llHandoff)
}

// EnableLeaderLease starts the renewal loop and arms the linearizable-read
// fast path at this replica. Call it on every core replica of a group with
// the same config (any of them may become primary); a follower has no
// broadcast path and ignores the call. TTL+Margin must not exceed the
// failover suspicion timeout passed to StartFailover.
func (p *Passive) EnableLeaderLease(cfg LeaderLeaseConfig) {
	if p.follower || cfg.TTL <= 0 || p.llStop != nil {
		return
	}
	cfg.applyDefaults()
	p.leaseMu.Lock()
	p.llCfg = cfg
	p.leaseMu.Unlock()
	p.llEnabled.Store(true)
	p.llStop = make(chan struct{})
	p.llDone.Add(1)
	go p.leaderLeaseLoop(cfg)
}

// DisableLeaderLease stops the renewal loop and disarms the fast path.
// Idempotent.
func (p *Passive) DisableLeaderLease() {
	if p.llStop == nil {
		return
	}
	p.llEnabled.Store(false)
	select {
	case <-p.llStop:
	default:
		close(p.llStop)
	}
	p.llDone.Wait()
}

func (p *Passive) leaderLeaseLoop(cfg LeaderLeaseConfig) {
	defer p.llDone.Done()
	ticker := time.NewTicker(cfg.Renew)
	defer ticker.Stop()
	for {
		select {
		case <-p.llStop:
			return
		case <-ticker.C:
		}
		if p.degraded.Load() {
			// A renewal could not commit anyway (no quorum progress); let the
			// lease lapse rather than queue broadcasts behind the stall.
			continue
		}
		p.mu.Lock()
		isPrimary := p.replicas.Primary() == p.self
		epoch := p.epoch
		p.mu.Unlock()
		if !isPrimary {
			continue
		}
		l := pLeaderLease{
			Epoch:  epoch,
			Holder: p.self,
			TTLns:  int64(cfg.TTL),
			TS:     time.Now().UnixNano(),
		}
		// A failed send never extends the lease (only delivery does); the
		// next tick retries.
		_ = p.node.Gbcast(ClassLease, l)
	}
}

// leaseRead is the linearizable-read fast path: with a live lease at the
// current epoch, past the handoff gate and not degraded, the primary's local
// state already reflects every write it acknowledged, so the current commit
// index serves as a confirmed barrier with no broadcast. ok=false sends the
// caller down the ordered ReadBarrier path.
func (p *Passive) leaseRead() (uint64, bool) {
	if !p.llEnabled.Load() || p.degraded.Load() {
		return 0, false
	}
	p.mu.Lock()
	isPrimary := p.replicas.Primary() == p.self
	epoch := p.epoch
	idx := p.commitIdx
	p.mu.Unlock()
	if !isPrimary {
		return 0, false
	}
	now := time.Now()
	p.leaseMu.Lock()
	defer p.leaseMu.Unlock()
	if p.llHolder == p.self && p.llEpoch == epoch &&
		now.Before(p.llExpiry) && !now.Before(p.llHandoff) {
		p.llStats.LeaseReads++
		return idx, true
	}
	p.llStats.BarrierFallbacks++
	return 0, false
}

// onLeaderLease is the delivery handler of pLeaderLease. Like every
// ClassLease delivery it is counted into the commit index regardless of
// staleness (all replicas deliver it, so all must count it identically);
// only a non-stale renewal installs lease state.
func (p *Passive) onLeaderLease(l pLeaderLease) {
	p.mu.Lock()
	stale := l.Epoch != p.epoch
	if stale {
		p.ignored++
	}
	p.advanceCommitLocked(1)
	p.logAppendLocked(l)
	p.mu.Unlock()

	if !stale {
		now := time.Now()
		ttl := time.Duration(l.TTLns)
		p.leaseMu.Lock()
		p.llStats.Grants++
		p.llHolder = l.Holder
		p.llEpoch = l.Epoch
		// Guard = local delivery time + TTL + margin. Delivery follows the
		// holder's send, so the guard covers the holder's whole window plus
		// drift; it becomes the handoff gate at the next epoch change.
		p.llGuard = now.Add(ttl + p.llCfg.Margin)
		if l.Holder == p.self {
			// Expiry anchored at OUR OWN send stamp (same clock that wrote
			// it), extended only because the renewal came back committed.
			p.llExpiry = time.Unix(0, l.TS).Add(ttl)
		}
		p.leaseMu.Unlock()
	}
	// Renewals are freshness heartbeats: an idle system's followers keep a
	// current stateStamp off them. A stale renewal stamps nothing (its TS is
	// a deposed primary's clock).
	if !stale {
		p.bumpStamp(l.TS)
	}
}

// voidLeaseOnChange voids any held/observed lease at an epoch-change
// delivery and raises the handoff gate: whoever becomes primary serves
// linearizable reads through the ordered barrier until the old lease's
// guard window has fully passed. Runs on the delivery goroutine (after
// onChange drops p.mu).
func (p *Passive) voidLeaseOnChange() {
	p.leaseMu.Lock()
	if p.llHolder != "" {
		p.llStats.Voided++
	}
	p.llHolder = ""
	p.llExpiry = time.Time{}
	if p.llGuard.After(p.llHandoff) {
		p.llHandoff = p.llGuard
	}
	p.leaseMu.Unlock()
}

// clearLeaseOnInstall conservatively resets lease state when a snapshot
// replaces the replica's world: the snapshot carries no lease window, so the
// replica forgets any holder and keeps only its guard as the handoff gate.
func (p *Passive) clearLeaseOnInstall() {
	p.leaseMu.Lock()
	p.llHolder = ""
	p.llExpiry = time.Time{}
	if p.llGuard.After(p.llHandoff) {
		p.llHandoff = p.llGuard
	}
	p.leaseMu.Unlock()
}

// bumpStamp advances the applied-state commit timestamp (monotone max).
func (p *Passive) bumpStamp(ts int64) {
	if ts == 0 {
		return
	}
	for {
		cur := p.stateStamp.Load()
		if ts <= cur {
			return
		}
		if p.stateStamp.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// StateAge returns how far this replica's applied state lags the primary's
// commit timestamps: now minus the newest TS delivered here. ok=false means
// no stamped delivery has been observed yet (a fresh replica before its
// first update or renewal) — the caller must treat the age as unknown, not
// zero. The age is measured across two clocks (the primary stamped, this
// replica subtracts), so it is meaningful to ordinary NTP sync, not to
// adversarial clock skew; the bounded-staleness contract in DESIGN.md says
// exactly what that buys.
func (p *Passive) StateAge() (time.Duration, bool) {
	ts := p.stateStamp.Load()
	if ts == 0 {
		return 0, false
	}
	age := time.Since(time.Unix(0, ts))
	if age < 0 {
		age = 0
	}
	return age, true
}
