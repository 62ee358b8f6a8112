// Package core assembles the full new-architecture stack of Figure 9:
//
//	Application
//	   │ join/remove · gbcast/abcast/rbcast · new_view
//	Group Membership        ─ on top of broadcast (Section 3.1.1)
//	Generic Broadcast       ─ replaces view synchrony (Section 3.2)
//	Atomic Broadcast        ─ consensus sequence, no membership below it
//	Consensus               ─ Chandra–Toueg <>S
//	Monitoring              ─ owns exclusion policy (Section 3.3.2)
//	Failure Detection       ─ per-subscriber timeouts
//	Reliable Channel        ─ retransmission + output-triggered suspicion
//	Unreliable Transport
//
// The assembly is pure wiring: every component keeps its own state and
// goroutines, and the dependencies between packages mirror the arrows of
// the figure (verified mechanically by the repository's architecture test).
package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/abcast"
	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/gbcast"
	"repro/internal/membership"
	"repro/internal/monitoring"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/transport"
)

// Config parameterises a node of the stack.
type Config struct {
	// Self is this process's identity; it must appear in Universe.
	Self proc.ID
	// Universe is the fixed set of processes running the consensus
	// substrate. Group views are dynamic lists over this universe: the
	// ordering layer tolerates f < n/2 crashes without reconfiguration, so
	// exclusions and joins touch only the view (see DESIGN.md for this
	// documented simplification of [32]).
	Universe []proc.ID
	// InitialView is the first installed view; defaults to Universe order.
	InitialView []proc.ID
	// Relation is the application's conflict relation; defaults to the
	// paper's Section 3.3 table (fast "rbcast" vs ordered "abcast"). The
	// membership view-change class is spliced in automatically.
	Relation *gbcast.Relation

	// Snapshot/Restore implement state transfer to joining processes.
	Snapshot func() []byte
	Restore  func([]byte)

	// Incarnation is this process's reliable-channel incarnation number. A
	// node restarted WITHOUT its previous state (crash recovery) must use a
	// strictly higher incarnation than its previous life so peers reset
	// their per-peer channel state instead of discarding its fresh sequence
	// numbers as duplicates (rchannel.WithIncarnation). Zero for processes
	// that never lose state.
	Incarnation uint64

	// Timing. Zero values select defaults suited to the in-memory network.
	RTO              time.Duration // reliable channel retransmission (20ms)
	HeartbeatEvery   time.Duration // failure detector emission (5ms)
	FDCheckEvery     time.Duration // failure detector evaluation (2ms)
	SuspicionTimeout time.Duration // SHORT timeout: consensus subscription (50ms)
	ExclusionTimeout time.Duration // LONG timeout: monitoring subscription (500ms)
	StuckAfter       time.Duration // output-triggered suspicion threshold (0=off)

	// Monitoring is the exclusion policy; Threshold 0 selects the default.
	Monitoring monitoring.Policy
	// StartMonitor starts the monitoring component with the node.
	StartMonitor bool

	// FlushLimit bounds the generic broadcast unswept set (0 = default).
	FlushLimit int
}

func (c *Config) applyDefaults() {
	if c.RTO == 0 {
		c.RTO = 20 * time.Millisecond
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 5 * time.Millisecond
	}
	if c.FDCheckEvery == 0 {
		c.FDCheckEvery = 2 * time.Millisecond
	}
	if c.SuspicionTimeout == 0 {
		c.SuspicionTimeout = 50 * time.Millisecond
	}
	if c.ExclusionTimeout == 0 {
		c.ExclusionTimeout = 500 * time.Millisecond
	}
	if len(c.InitialView) == 0 {
		c.InitialView = slices.Clone(c.Universe)
	}
	if c.Relation == nil {
		c.Relation = gbcast.DefaultRelation()
	}
	if c.Monitoring.Threshold == 0 {
		c.Monitoring = monitoring.DefaultPolicy()
	}
}

// DeliverFunc receives application deliveries (any class except the
// internal membership class). It runs on the stack's delivery goroutine.
type DeliverFunc func(gbcast.Delivery)

// Node is one process's instance of the full stack.
type Node struct {
	cfg  Config
	self proc.ID

	ep   *rchannel.Endpoint
	det  *fd.Detector
	cs   *consensus.Service
	ab   *abcast.Broadcaster
	gb   *gbcast.Broadcaster
	memb *membership.Service
	mon  *monitoring.Monitor

	subShort *fd.Subscription
	subLong  *fd.Subscription

	deliver DeliverFunc
	started bool
}

// NewNode wires a node over the given transport endpoint.
func NewNode(tr transport.Transport, cfg Config, deliver DeliverFunc) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Self == "" {
		cfg.Self = tr.Self()
	}
	if cfg.Self != tr.Self() {
		return nil, fmt.Errorf("core: config self %q does not match transport %q", cfg.Self, tr.Self())
	}
	if !slices.Contains(cfg.Universe, cfg.Self) {
		return nil, fmt.Errorf("core: self %q not in universe %v", cfg.Self, cfg.Universe)
	}
	if len(cfg.Universe) > gbcast.MaxMembers {
		return nil, fmt.Errorf("core: universe of %d processes, generic broadcast supports at most %d",
			len(cfg.Universe), gbcast.MaxMembers)
	}
	for _, m := range cfg.InitialView {
		if !slices.Contains(cfg.Universe, m) {
			return nil, fmt.Errorf("core: initial view member %q not in universe", m)
		}
	}

	n := &Node{cfg: cfg, self: cfg.Self, deliver: deliver}

	var epOpts []rchannel.Option
	epOpts = append(epOpts, rchannel.WithRTO(cfg.RTO))
	if cfg.StuckAfter > 0 {
		epOpts = append(epOpts, rchannel.WithStuckAfter(cfg.StuckAfter))
	}
	if cfg.Incarnation > 0 {
		epOpts = append(epOpts, rchannel.WithIncarnation(cfg.Incarnation))
	}
	n.ep = rchannel.New(tr, epOpts...)

	n.det = fd.New(n.ep, cfg.Universe,
		fd.WithInterval(cfg.HeartbeatEvery),
		fd.WithCheckEvery(cfg.FDCheckEvery))
	n.subShort = n.det.Subscribe(cfg.SuspicionTimeout)
	n.subLong = n.det.Subscribe(cfg.ExclusionTimeout)

	rel := cfg.Relation.ExtendWithOrderedClass(membership.Class)
	var gbOpts []gbcast.Option
	if cfg.FlushLimit > 0 {
		gbOpts = append(gbOpts, gbcast.WithFlushLimit(cfg.FlushLimit))
	}
	n.gb = gbcast.New(n.ep, "gcs", cfg.Universe, rel, n.onDeliver, gbOpts...)
	n.ab = abcast.New(n.ep, "gcs.ab", cfg.Universe, n.gb.Adeliver)
	n.cs = consensus.New(n.ep, cfg.Universe, n.subShort, n.ab.Decide)
	n.ab.AttachConsensus(n.cs)
	n.gb.AttachAbcast(n.ab)

	n.memb = membership.New(n.gb, n.ep, proc.NewView(cfg.InitialView...), membership.Snapshotter{
		Snapshot: cfg.Snapshot,
		Restore:  cfg.Restore,
	})
	n.mon = monitoring.New(n.ep, n.subLong, n.memb, cfg.Monitoring)
	return n, nil
}

// onDeliver routes gbcast deliveries: membership operations to the
// membership service, everything else to the application.
func (n *Node) onDeliver(d gbcast.Delivery) {
	if d.Class == membership.Class {
		if op, ok := d.Body.(membership.Op); ok {
			n.memb.Apply(op)
		}
		return
	}
	if n.deliver != nil {
		n.deliver(d)
	}
}

// Start launches the stack bottom-up.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.ep.Start()
	n.det.Start()
	n.cs.Start()
	n.ab.Start()
	n.gb.Start()
	if n.cfg.StartMonitor {
		n.mon.Start()
	}
}

// Stop halts the stack top-down.
func (n *Node) Stop() {
	if !n.started {
		return
	}
	n.started = false
	n.mon.Stop()
	n.gb.Stop()
	n.ab.Stop()
	n.cs.Stop()
	n.det.Stop()
	n.ep.Stop()
}

// Self returns the node's process ID.
func (n *Node) Self() proc.ID { return n.self }

// Gbcast broadcasts body under an application class of the conflict
// relation.
func (n *Node) Gbcast(class string, body any) error {
	return n.gb.Broadcast(class, body)
}

// Abcast broadcasts body under the default ordered class (total order with
// respect to everything) — the abcast operation of Figure 9.
func (n *Node) Abcast(body any) error {
	return n.gb.Broadcast(gbcast.ClassAbcast, body)
}

// Rbcast broadcasts body under the default fast class (ordered only against
// abcast traffic) — the rbcast operation of Figure 9.
func (n *Node) Rbcast(body any) error {
	return n.gb.Broadcast(gbcast.ClassRbcast, body)
}

// Join, Remove and RotatePrimary are the membership operations of Figure 9.
func (n *Node) Join(p proc.ID) error          { return n.memb.Join(p) }
func (n *Node) Remove(p proc.ID) error        { return n.memb.Remove(p) }
func (n *Node) RotatePrimary(p proc.ID) error { return n.memb.RotatePrimary(p) }

// View returns the current group view.
func (n *Node) View() proc.View { return n.memb.View() }

// OnView registers a new_view observer.
func (n *Node) OnView(fn membership.ViewFunc) { n.memb.OnView(fn) }

// Membership exposes the membership component.
func (n *Node) Membership() *membership.Service { return n.memb }

// Monitor exposes the monitoring component (start_monitor/stop_monitor).
func (n *Node) Monitor() *monitoring.Monitor { return n.mon }

// Endpoint exposes the reliable channel multiplexer (for applications that
// need point-to-point messaging, e.g. client request routing).
func (n *Node) Endpoint() *rchannel.Endpoint { return n.ep }

// FailureDetector exposes the failure detection component for additional
// subscriptions.
func (n *Node) FailureDetector() *fd.Detector { return n.det }

// BroadcastStats returns the generic broadcast counters (thriftiness
// accounting for the experiments).
func (n *Node) BroadcastStats() gbcast.Stats { return n.gb.Stats() }
