package replication

import (
	"fmt"

	"time"

	"repro/internal/proc"
)

// Read barrier: the linearizable read level of the service layer.
//
// A read served from a replica's local state is linearizable iff the state
// reflects every write acknowledged before the read began. The barrier makes
// that precise with the ordered path itself: the primary broadcasts a no-op
// in the update class and waits for its own delivery. Per-origin FIFO puts
// the no-op after every update the primary broadcast before it (i.e. after
// everything it could have acknowledged before the read arrived), and the
// epoch tag extends the Figure 8 case analysis to barriers — a barrier
// overtaken by a primary change is stale everywhere and the reader retries
// at the new primary, so a deposed primary (e.g. one serving a partitioned
// minority) can never confirm a barrier and thus never serves a stale
// "linearizable" read.
//
// Coalescing mirrors the group-commit batcher (batch.go): at most one
// barrier broadcast is in flight, and readers arriving while it flies join
// ONE pending group resolved by the next broadcast — a burst of concurrent
// linearizable reads costs two broadcasts, not one each. A reader must never
// join an already-broadcast barrier: the broadcast would predate the read's
// start and could miss a write acknowledged in between.

// pBarrier is the ordered no-op confirming that the sender was still the
// primary at its delivery point.
type pBarrier struct {
	Epoch  uint64
	Client proc.ID
	ReqID  uint64
	// TS is the primary's clock at broadcast: barriers stamp applied state
	// for bounded-staleness freshness just like updates (leaderlease.go).
	TS int64

	// idx is delivery-local (never encoded): the commit index at this
	// replica when the barrier was counted.
	idx uint64
}

// BarrierStats is the read-barrier accounting.
type BarrierStats struct {
	Broadcasts   uint64 // barrier no-ops broadcast
	Reads        uint64 // linearizable reads served through them
	MaxCoalesced int    // largest reader group sharing one barrier
}

// barrierGroup is one pending barrier accumulating concurrent readers.
type barrierGroup struct {
	readers int
	done    chan struct{}
	index   uint64
	err     error
}

// ReadBarrier confirms through the ordered path that this replica is still
// the primary and that its local state reflects every write acknowledged
// before the call, returning the commit index at the barrier's delivery.
// Serving a local read after a successful ReadBarrier is linearizable.
// Concurrent callers coalesce into one broadcast; ErrNotPrimary/ErrDemoted
// send the caller to the new primary, ErrTimeout (e.g. partitioned from the
// quorum, or abort closed — nil = never) lets it retry elsewhere.
func (p *Passive) ReadBarrier(timeout time.Duration, abort <-chan struct{}) (uint64, error) {
	if p.follower {
		return p.followerBarrier(timeout, abort)
	}
	// Leader-lease fast path (leaderlease.go): with a live, current-epoch
	// lease past the handoff gate, the primary's local state is already
	// confirmed linearizable — no broadcast. Any doubt falls through to the
	// ordered barrier below, so correctness never depends on the lease.
	if idx, ok := p.leaseRead(); ok {
		return idx, nil
	}
	p.mu.Lock()
	if p.replicas.Primary() != p.self {
		primary := p.replicas.Primary()
		p.mu.Unlock()
		return 0, fmt.Errorf("%w (primary is %s)", ErrNotPrimary, primary)
	}
	if err := p.admitLocked(); err != nil {
		// Degraded: a barrier could never confirm anyway (confirmation IS
		// quorum progress), so fail the reader fast instead of parking it.
		p.mu.Unlock()
		return 0, err
	}
	g := p.pendingBarrier
	if g == nil {
		g = &barrierGroup{done: make(chan struct{})}
		p.pendingBarrier = g
	}
	g.readers++
	p.barrierStats.Reads++
	if !p.barrierBusy {
		p.barrierBusy = true
		go p.driveBarriers()
	}
	p.mu.Unlock()

	var expire <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case <-g.done:
		return g.index, g.err
	case <-expire:
		return 0, ErrTimeout
	case <-abort:
		return 0, ErrTimeout
	}
}

// ReadBarrierStats returns the barrier accounting.
func (p *Passive) ReadBarrierStats() BarrierStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.barrierStats
}

// driveBarriers flushes pending barrier groups one broadcast at a time; the
// in-flight wait is the coalescing window, exactly as in the batcher.
func (p *Passive) driveBarriers() {
	for {
		p.mu.Lock()
		g := p.pendingBarrier
		p.pendingBarrier = nil
		if g == nil {
			p.barrierBusy = false
			p.mu.Unlock()
			return
		}
		if p.replicas.Primary() != p.self {
			primary := p.replicas.Primary()
			p.mu.Unlock()
			g.err = fmt.Errorf("%w (primary is %s)", ErrNotPrimary, primary)
			close(g.done)
			continue
		}
		epoch := p.epoch
		p.nextReq++
		req := p.nextReq
		ch := make(chan pBarrier, 1)
		p.barrierWaiters[req] = ch
		p.barrierStats.Broadcasts++
		if g.readers > p.barrierStats.MaxCoalesced {
			p.barrierStats.MaxCoalesced = g.readers
		}
		p.mu.Unlock()

		if err := p.node.Gbcast(ClassUpdate, pBarrier{Epoch: epoch, Client: p.self, ReqID: req, TS: time.Now().UnixNano()}); err != nil {
			p.mu.Lock()
			delete(p.barrierWaiters, req)
			p.mu.Unlock()
			g.err = fmt.Errorf("replication: read barrier: %w", err)
			close(g.done)
			continue
		}
		// Like the batcher's flush, this waits for the broadcast's own
		// delivery, which the stack guarantees while the node runs; only a node
		// stopped mid-flight strands the wait (readers still return via
		// their individual timeouts — the replica is dead to them anyway).
		delivered := <-ch
		if delivered.Epoch == staleEpoch {
			g.err = ErrDemoted
		} else {
			g.index = delivered.idx
		}
		close(g.done)
	}
}

// followerBarrier is the follower's linearizable read point: the read-index
// protocol. The Syncer's proxy asks the current primary to run a real
// ReadBarrier (an ordered no-op confirming it is still the primary) and
// returns the primary's post-barrier commit index; waiting until the local
// log catches up to that index makes a local read reflect every write
// acknowledged before the barrier began — linearizable, without the
// follower ever broadcasting.
func (p *Passive) followerBarrier(timeout time.Duration, abort <-chan struct{}) (uint64, error) {
	p.mu.Lock()
	proxy := p.barrierProxy
	p.mu.Unlock()
	if proxy == nil {
		return 0, p.notPrimaryErr()
	}
	start := time.Now()
	idx, err := proxy(timeout, abort)
	if err != nil {
		return 0, err
	}
	// The caller's timeout bounds the WHOLE barrier: the local catch-up
	// wait gets only what the proxy RPC left over.
	if timeout > 0 {
		if timeout -= time.Since(start); timeout <= 0 {
			return 0, ErrTimeout
		}
	}
	return p.WaitCommit(idx, timeout, abort)
}

// SetBarrierProxy installs the follower's read-index RPC (called by the
// Syncer). fn must return the primary's commit index after a confirmed
// barrier, or a typed replication error.
func (p *Passive) SetBarrierProxy(fn func(timeout time.Duration, abort <-chan struct{}) (uint64, error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.barrierProxy = fn
}

func (p *Passive) onBarrier(b pBarrier) {
	p.mu.Lock()
	stale := b.Epoch != p.epoch
	if stale {
		p.ignored++
	} else {
		p.advanceCommitLocked(1)
		p.logAppendLocked(b)
	}
	b.idx = p.commitIdx
	var ch chan pBarrier
	if b.Client == p.self {
		ch = p.barrierWaiters[b.ReqID]
		delete(p.barrierWaiters, b.ReqID)
	}
	p.mu.Unlock()
	if !stale {
		p.bumpStamp(b.TS)
	}
	if ch != nil {
		if stale {
			b.Epoch = staleEpoch
		}
		ch <- b
	}
}
