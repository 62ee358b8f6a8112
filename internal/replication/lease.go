package replication

import "fmt"

// Replicated session lease: expiry of the (session, seq) dedup table as
// ordered messages, so every replica prunes identically.
//
// Client acks prune a session's *acknowledged* results, but a client that
// vanishes without acknowledging its last writes used to leave those results
// cached forever at every replica. The lease bounds that: every gateway
// periodically broadcasts a pLease renewing the sessions it holds attached,
// and the message from the gateway fronting the primary additionally ticks a
// replicated lease clock; a session record whose deadline (refreshed by
// every applied write, by delivery-time record creation, and by renewals)
// has fallen behind the clock is deleted at tick delivery. Lease messages
// travel in ClassLease, which conflicts with updates, primary changes and
// itself — total order, because renewals originate at ANY replica and the
// expire decision depends on their interleaving with ticks, record-creating
// updates and epoch changes. Hence the decision lands at the same point of
// the command sequence everywhere and the table shrinks identically at every
// replica. Ticks are epoch-tagged so a deposed primary's ticks are void and
// the clock cannot double-advance across a failover.
//
// The trade-off is the usual lease contract: a session with no attached
// connection anywhere and no writes for longer than the TTL loses its
// replicated dedup state, so a client resuming such a session must treat
// unacknowledged operations as lost (re-executing them is no longer
// deduplicated). A session attached to ANY gateway — primary or backup — is
// renewed by that gateway and loses nothing; reads never create replicated
// state, so read-only sessions have nothing to lose either way.

// LeaseTTLTicks is a session lease's length in delivered ticks. The gateway
// derives its broadcast period as LeaseTTL/LeaseTTLTicks from this same
// constant, so a record expires after between LeaseTTL and
// (1+1/LeaseTTLTicks)×LeaseTTL without renewal.
const LeaseTTLTicks = 4

// leaseTTLTicks is the internal alias used by the apply paths.
const leaseTTLTicks = LeaseTTLTicks

// pLease is one ordered lease message: renewals for the sessions the
// sending gateway currently holds attached, plus a clock tick when the
// sender fronts the primary.
type pLease struct {
	Epoch    uint64
	Tick     bool // advances the lease clock; set by the primary's gateway
	Sessions []string
}

// LeaseStats is the replicated lease accounting at this replica.
type LeaseStats struct {
	Clock   uint64 // delivered lease ticks
	Expired uint64 // session records pruned by the lease
}

// LeaseStats returns the lease clock and expiry count.
func (p *Passive) LeaseStats() LeaseStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return LeaseStats{Clock: p.leaseClock, Expired: p.leaseExpired}
}

// LeaseTick broadcasts one ordered lease message renewing the given
// sessions. Any replica's gateway may call it — renewals from backups keep
// their attached sessions alive — but only the message of the current
// primary ticks the clock (the epoch tag voids ticks from deposed
// primaries). The service gateway embeds the call in its lease janitor.
func (p *Passive) LeaseTick(sessions []string) error {
	p.mu.Lock()
	tick := p.replicas.Primary() == p.self && !p.follower
	epoch := p.epoch
	proxy := p.leaseProxy
	p.mu.Unlock()
	if p.follower {
		// A follower cannot broadcast; its gateway's renewals are forwarded
		// to the primary as renewal-only messages (never ticking the clock —
		// only the primary's own gateway does, so forwarding gateways cannot
		// make the replicated clock run fast).
		if proxy == nil {
			return fmt.Errorf("replication: follower lease tick without a syncer")
		}
		return proxy(sessions)
	}
	if err := p.node.Gbcast(ClassLease, pLease{Epoch: epoch, Tick: tick, Sessions: sessions}); err != nil {
		return fmt.Errorf("replication: lease tick: %w", err)
	}
	return nil
}

// LeaseRenew broadcasts a renewal-only lease message (no clock tick) for
// sessions attached elsewhere — the donor half of a follower gateway's
// forwarded renewals.
func (p *Passive) LeaseRenew(sessions []string) error {
	if len(sessions) == 0 {
		return nil
	}
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	if err := p.node.Gbcast(ClassLease, pLease{Epoch: epoch, Sessions: sessions}); err != nil {
		return fmt.Errorf("replication: lease renew: %w", err)
	}
	return nil
}

// SetLeaseProxy installs the follower's lease forwarding hook (called by
// the Syncer).
func (p *Passive) SetLeaseProxy(fn func(sessions []string) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leaseProxy = fn
}

func (p *Passive) onLease(l pLease) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Renewals always apply (idempotent, totally ordered): a session named
	// by a lease message survives the tick it travels with by definition.
	for _, s := range l.Sessions {
		if rec, ok := p.sessions[s]; ok {
			rec.deadline = p.leaseClock + leaseTTLTicks
		}
	}
	if l.Tick && l.Epoch == p.epoch {
		p.leaseClock++
		for id, rec := range p.sessions {
			if rec.deadline < p.leaseClock {
				delete(p.sessions, id)
				p.leaseExpired++
			}
		}
	} else if l.Tick {
		p.ignored++ // deposed primary's tick: void everywhere
	}
	// No state-machine apply is involved, so advancing under the lock is
	// safe (see advanceCommitLocked).
	p.advanceCommitLocked(1)
	p.logAppendLocked(l)
}
