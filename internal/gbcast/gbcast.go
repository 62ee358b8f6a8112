// Package gbcast implements thrifty generic broadcast — the component that
// replaces view synchrony in the new architecture (Sections 3.2.1 and 4.4).
//
// Generic broadcast [29, 30] orders only messages that *conflict* according
// to an application-supplied relation; a thrifty implementation [1] invokes
// atomic broadcast only in runs where conflicting messages actually meet.
// This implementation realises those properties with a stage ("epoch")
// protocol chosen for a short correctness argument:
//
// Fast path (classes that do not conflict with themselves):
//
//	g-broadcast(m): reliable-broadcast DATA(m).
//	on r-deliver DATA(m) while the epoch is open: send ACK(m, epoch) to all.
//	g-deliver m once a majority acked (m, e) where e is the local current
//	epoch (and all earlier fast messages from m's origin are delivered —
//	FIFO, footnote 9 of the paper).
//
// Ordered path (self-conflicting classes) — through atomic broadcast:
//
//	on a-deliver of an ordered message o while open: enter "closing" state;
//	a-broadcast CLOSE(e, unswept) where unswept is the set of fast message
//	ids this process has acked and that no previous boundary has swept.
//	Collect the first ⌈(n+1)/2⌉ CLOSE(e, ·) messages *in a-delivery order*
//	(identical at every process); U := union of their unswept sets. Deliver
//	U \ delivered in deterministic (origin, seq) order, then the queued
//	ordered messages in a-delivery order, then enter epoch e+1 and re-ack
//	all pending fast messages.
//
// Why conflicting pairs are totally ordered:
//
//   - ordered vs ordered: both in the atomic broadcast stream.
//   - fast m vs ordered o (boundary e): if some process g-delivered m in an
//     epoch e' <= e, a majority acked (m, e'); acks are only sent while the
//     epoch is open, i.e. before that acker emitted CLOSE(e'), so m is in
//     the acker's unswept set at CLOSE time. The first-majority CLOSE
//     senders intersect every ack majority (both are majorities of the same
//     universe, f < n/2), hence m ∈ U(e') and *every* process delivers m at
//     or before boundary e' <= e, i.e. before o. Conversely if m ∉ U(e..)
//     then no process fast-delivered m before boundary e, and every process
//     delivers m after o. Either way the relative order is identical
//     everywhere.
//   - fast vs fast: distinct fast classes never conflict (relation
//     invariant) and fast classes do not conflict with themselves, so no
//     ordering is required.
//
// Thriftiness: in runs without ordered messages the protocol costs one
// reliable broadcast plus one ack round per message — atomic broadcast (and
// therefore consensus) is never invoked, matching [1]. If every class is
// ordered the protocol *is* atomic broadcast (no boundaries are needed, so
// none are run).
//
// Liveness of a boundary: completing it may require DATA bodies for ids in
// U that have not arrived yet; reliable broadcast guarantees they do. Epoch
// membership depends on the a-delivery sequence alone: while a boundary
// that already holds its CLOSE majority waits for a body, every further
// a-delivery (ordered or CLOSE) is stashed and replayed in stream order
// once the boundary completes, so a late body can neither move an ordered
// message into the wrong epoch nor make a process drop a CLOSE it needs.
// A majority of correct processes always emits CLOSE, so the first-majority
// prefix of the stream exists. Fast messages cannot starve under an endless
// stream of boundaries either: every correct process eventually acks m, so
// m eventually appears in every CLOSE and is swept by the next boundary.
package gbcast

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/abcast"
	"repro/internal/eventq"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rbcast"
	"repro/internal/rchannel"
	"repro/internal/seqset"
)

// flushClass is the internal ordered class used to force a boundary when
// the unswept set grows large (pure garbage collection; never delivered to
// the application).
const flushClass = "_gb.flush"

// gid identifies a fast message: origin plus the origin's dense rbcast
// sequence number.
type gid struct {
	Origin proc.ID
	Seq    uint64
}

// Wire types.
type (
	// gFast is the body of a fast-path DATA message (id comes from rbcast).
	gFast struct {
		Class string
		Body  any
	}
	// gAck acknowledges a fast message within an epoch.
	gAck struct {
		ID    gid
		Epoch uint64
	}
	// gOrd is an ordered message travelling through atomic broadcast.
	gOrd struct {
		Class string
		Body  any
	}
	// gClose closes an epoch (see package comment).
	gClose struct {
		Epoch   uint64
		Unswept []gid
	}
)

// Tags of the wire types in the binary codec.
const (
	tagFast = 0x40 + iota
	tagAck
	tagOrd
	tagClose
)

func init() {
	msg.Bind(tagFast, func(w *msg.Writer, f gFast) {
		w.Str(f.Class)
		w.Any(f.Body)
	}, func(r *msg.Reader) gFast {
		return gFast{Class: r.Str(), Body: r.Any()}
	})
	msg.Bind(tagAck, func(w *msg.Writer, a gAck) {
		encodeGid(w, a.ID)
		w.Uint(a.Epoch)
	}, func(r *msg.Reader) gAck {
		return gAck{ID: decodeGid(r), Epoch: r.Uint()}
	})
	msg.Bind(tagOrd, func(w *msg.Writer, o gOrd) {
		w.Str(o.Class)
		w.Any(o.Body)
	}, func(r *msg.Reader) gOrd {
		return gOrd{Class: r.Str(), Body: r.Any()}
	})
	msg.Bind(tagClose, func(w *msg.Writer, c gClose) {
		w.Uint(c.Epoch)
		w.Len(len(c.Unswept))
		for _, id := range c.Unswept {
			encodeGid(w, id)
		}
	}, func(r *msg.Reader) gClose {
		c := gClose{Epoch: r.Uint()}
		if n := r.Len(); n > 0 {
			c.Unswept = make([]gid, n)
			for i := range c.Unswept {
				c.Unswept[i] = decodeGid(r)
			}
		}
		return c
	})
}

func encodeGid(w *msg.Writer, id gid) {
	w.Str(string(id.Origin))
	w.Uint(id.Seq)
}

func decodeGid(r *msg.Reader) gid { return gid{Origin: proc.ID(r.Str()), Seq: r.Uint()} }

// Delivery is a g-delivered message.
type Delivery struct {
	Origin proc.ID
	Class  string
	Body   any
}

// DeliverFunc consumes deliveries on the broadcaster's event loop; it must
// not block.
type DeliverFunc func(Delivery)

// Option configures the Broadcaster.
type Option func(*Broadcaster)

// WithFlushLimit sets the unswept-set size that triggers an internal
// garbage-collection boundary. Zero disables auto-flush.
func WithFlushLimit(n int) Option {
	return func(g *Broadcaster) { g.flushLimit = n }
}

// Broadcaster provides generic broadcast over a fixed member universe.
type Broadcaster struct {
	ep         *rchannel.Endpoint
	self       proc.ID
	others     []proc.ID
	quorum     int
	rel        *Relation
	deliver    DeliverFunc
	proto      string
	flushLimit int

	rb *rbcast.Broadcaster
	ab abroadcaster

	// memberBit is each member's bit in an ackMask.
	memberBit map[proc.ID]ackMask

	events *eventq.Queue[event]

	// Event-loop-owned state.
	epoch         uint64
	closing       bool
	pending       map[gid]gFast
	deliveredFast map[proc.ID]*seqset.Set
	fifoNext      map[proc.ID]uint64
	unswept       map[gid]struct{}
	acks          map[gid]ackRec
	acksLater     map[gid]map[uint64]ackMask // see ackRec
	closeSenders  map[proc.ID]struct{}
	closeUnion    map[gid]struct{}
	queuedOrdered []Delivery
	stashed       []abcast.Delivery // a-deliveries past a stalled CLOSE majority
	deferredAcks  []gid
	flushInFlight bool

	// Stats (event-loop owned, snapshotted via query events).
	statFast     uint64
	statOrdered  uint64
	statBoundary uint64

	startOnce sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

// abroadcaster is the ordered path's use of atomic broadcast: the seam the
// single-threaded boundary tests replace.
type abroadcaster interface {
	Broadcast(body any) error
}

// event is one input of the event loop, carried by value: which of its
// fields is set depends on kind.
type event struct {
	kind    eventKind
	fast    rbcast.Delivery // evFast
	ackFrom proc.ID         // evAck
	ack     gAck            // evAck
	adlv    abcast.Delivery // evAdeliver
	reply   chan Stats      // evQuery
}

type eventKind uint8

const (
	evFast eventKind = iota + 1
	evAck
	evAdeliver
	evQuery
)

// MaxMembers bounds the member universe: a message's acknowledgers are a
// bitmask of member indexes.
const MaxMembers = 64

// ackMask is a set of members, one bit each (memberBit).
type ackMask uint64

// ackRec holds a message's acks for one epoch, that of the first ack
// recorded for it, so the steady state costs one map entry per message.
// Acks for any other epoch that can still count (a peer already past a
// boundary this process has not completed) go to the acksLater side map.
// An epoch below the current one can never count again (checkFast only
// counts the current epoch, which only grows), so such acks are dropped
// and a record of such an epoch is reused.
type ackRec struct {
	epoch uint64
	mask  ackMask
}

// Stats exposes the broadcaster's delivery counters (for the thriftiness
// experiment E9: how often was atomic broadcast actually invoked).
type Stats struct {
	FastDelivered    uint64
	OrderedDelivered uint64
	Boundaries       uint64
}

// New creates a generic broadcaster. It owns a dedicated reliable broadcast
// group (proto+".data") and an ack protocol (proto+".ack"); the atomic
// broadcaster must be attached with AttachAbcast before Start, with this
// broadcaster's Adeliver as its delivery callback.
//
// It panics if members holds more than MaxMembers processes.
func New(ep *rchannel.Endpoint, proto string, members []proc.ID, rel *Relation, deliver DeliverFunc, opts ...Option) *Broadcaster {
	if len(members) > MaxMembers {
		panic(fmt.Sprintf("gbcast: %d members, at most %d", len(members), MaxMembers))
	}
	g := &Broadcaster{
		ep:            ep,
		self:          ep.Self(),
		quorum:        proc.Majority(len(members)),
		rel:           rel,
		deliver:       deliver,
		proto:         proto,
		flushLimit:    1 << 14,
		events:        eventq.New[event](),
		epoch:         1,
		pending:       make(map[gid]gFast),
		deliveredFast: make(map[proc.ID]*seqset.Set),
		fifoNext:      make(map[proc.ID]uint64),
		unswept:       make(map[gid]struct{}),
		memberBit:     make(map[proc.ID]ackMask, len(members)),
		acks:          make(map[gid]ackRec),
		acksLater:     make(map[gid]map[uint64]ackMask),
		closeSenders:  make(map[proc.ID]struct{}),
		closeUnion:    make(map[gid]struct{}),
		stop:          make(chan struct{}),
	}
	for i, m := range members {
		g.memberBit[m] = 1 << i
		if m != g.self {
			g.others = append(g.others, m)
		}
	}
	for _, o := range opts {
		o(g)
	}
	g.rb = rbcast.New(ep, proto+".data", members, func(d rbcast.Delivery) {
		g.events.Push(event{kind: evFast, fast: d})
	})
	ep.Handle(proto+".ack", func(from proc.ID, body any) {
		a, ok := body.(gAck)
		if !ok {
			return
		}
		g.events.Push(event{kind: evAck, ackFrom: from, ack: a})
	})
	return g
}

// AttachAbcast wires the atomic broadcaster used for the ordered path. Its
// delivery callback must be this broadcaster's Adeliver method.
func (g *Broadcaster) AttachAbcast(ab *abcast.Broadcaster) {
	g.ab = ab
}

// Adeliver is the abcast delivery callback (total-order input stream).
func (g *Broadcaster) Adeliver(d abcast.Delivery) {
	g.events.Push(event{kind: evAdeliver, adlv: d})
}

// Start launches the event loop. AttachAbcast must have been called.
func (g *Broadcaster) Start() {
	g.startOnce.Do(func() {
		if g.ab == nil {
			panic("gbcast: Start without AttachAbcast")
		}
		g.rb.Start()
		g.done.Add(1)
		go g.loop()
	})
}

// Stop terminates the event loop (the attached abcast is stopped by its
// owner).
func (g *Broadcaster) Stop() {
	select {
	case <-g.stop:
		return
	default:
		close(g.stop)
	}
	g.done.Wait()
	g.rb.Stop()
	g.events.Close()
}

// Broadcast g-broadcasts body under the given class.
func (g *Broadcaster) Broadcast(class string, body any) error {
	if err := g.rel.Validate(class); err != nil {
		return err
	}
	if g.rel.Ordered(class) {
		if err := g.ab.Broadcast(gOrd{Class: class, Body: body}); err != nil {
			return fmt.Errorf("gbcast ordered: %w", err)
		}
		return nil
	}
	if err := g.rb.Broadcast(gFast{Class: class, Body: body}); err != nil {
		return fmt.Errorf("gbcast fast: %w", err)
	}
	return nil
}

// Stats returns delivery counters.
func (g *Broadcaster) Stats() Stats {
	reply := make(chan Stats, 1)
	g.events.Push(event{kind: evQuery, reply: reply})
	select {
	case s := <-reply:
		return s
	case <-g.stop:
		return Stats{}
	}
}

func (g *Broadcaster) loop() {
	defer g.done.Done()
	for {
		ev, ok := g.events.TryPop()
		if !ok {
			select {
			case <-g.stop:
				return
			case <-g.events.Wait():
				continue
			}
		}
		switch ev.kind {
		case evFast:
			g.onFast(ev.fast)
		case evAck:
			g.onAck(ev.ackFrom, ev.ack)
		case evAdeliver:
			g.onAdeliver(ev.adlv)
		case evQuery:
			ev.reply <- Stats{
				FastDelivered:    g.statFast,
				OrderedDelivered: g.statOrdered,
				Boundaries:       g.statBoundary,
			}
		}
	}
}

func (g *Broadcaster) onFast(d rbcast.Delivery) {
	f, ok := d.Body.(gFast)
	if !ok {
		return
	}
	id := gid{Origin: d.Origin, Seq: d.Seq}
	if g.deliveredSet(id.Origin).Contains(id.Seq) {
		return
	}
	if _, dup := g.pending[id]; dup {
		return
	}
	g.pending[id] = f
	if g.closing {
		g.deferredAcks = append(g.deferredAcks, id)
		// A body we were waiting for may have arrived.
		g.tryCompleteBoundary()
		return
	}
	g.sendAck(id)
	g.checkFast(id)
	g.maybeAutoFlush()
}

// sendAck acknowledges id in the current epoch: record it locally (self-ack
// plus unswept) and notify the other members.
func (g *Broadcaster) sendAck(id gid) {
	g.unswept[id] = struct{}{}
	g.addAck(id, g.epoch, g.self)
	_ = g.ep.SendAll(g.others, g.proto+".ack", gAck{ID: id, Epoch: g.epoch})
}

func (g *Broadcaster) onAck(from proc.ID, a gAck) {
	if g.deliveredSet(a.ID.Origin).Contains(a.ID.Seq) {
		return
	}
	g.addAck(a.ID, a.Epoch, from)
	if !g.closing && a.Epoch == g.epoch {
		g.checkFast(a.ID)
	}
}

// checkFast g-delivers id if it is pending, next in its origin's FIFO
// order, and acknowledged by a majority in the current epoch.
func (g *Broadcaster) checkFast(id gid) {
	if g.closing {
		return
	}
	if _, ok := g.pending[id]; !ok {
		return
	}
	if next := g.fifoNextFor(id.Origin); id.Seq != next {
		return
	}
	if g.ackCount(id, g.epoch) < g.quorum {
		return
	}
	g.deliverFast(id)
	// Delivering id may unblock its FIFO successor.
	g.checkFast(gid{Origin: id.Origin, Seq: id.Seq + 1})
}

func (g *Broadcaster) deliverFast(id gid) {
	f := g.pending[id]
	delete(g.pending, id)
	g.deliveredSet(id.Origin).Add(id.Seq)
	g.fifoNext[id.Origin] = id.Seq + 1
	delete(g.acks, id)
	if len(g.acksLater) > 0 {
		delete(g.acksLater, id)
	}
	g.statFast++
	if g.deliver != nil && f.Class != flushClass {
		g.deliver(Delivery{Origin: id.Origin, Class: f.Class, Body: f.Body})
	}
}

func (g *Broadcaster) onAdeliver(d abcast.Delivery) {
	if g.closing && len(g.closeSenders) >= g.quorum {
		// Epoch membership is a function of the a-delivery sequence alone.
		// Boundary e already holds its CLOSE majority and waits only for a
		// swept body, so everything after it in the stream belongs to epoch
		// e+1 or later: hold it until the boundary completes.
		g.stashed = append(g.stashed, d)
		return
	}
	switch body := d.Body.(type) {
	case gOrd:
		g.onOrdered(d.Origin, body)
	case gClose:
		g.onClose(d.Origin, body)
	}
}

func (g *Broadcaster) onOrdered(origin proc.ID, o gOrd) {
	dlv := Delivery{Origin: origin, Class: o.Class, Body: o.Body}
	if !g.rel.HasFastClasses() {
		// Degenerate case "everything conflicts": no fast messages can
		// exist, so no boundary is needed; the abcast order is the g-order.
		g.emitOrdered(dlv)
		return
	}
	if g.closing {
		g.queuedOrdered = append(g.queuedOrdered, dlv)
		return
	}
	g.closing = true
	g.queuedOrdered = append(g.queuedOrdered[:0], dlv)
	g.closeSenders = make(map[proc.ID]struct{})
	g.closeUnion = make(map[gid]struct{})
	unswept := make([]gid, 0, len(g.unswept))
	for id := range g.unswept {
		unswept = append(unswept, id)
	}
	sortGids(unswept)
	if err := g.ab.Broadcast(gClose{Epoch: g.epoch, Unswept: unswept}); err != nil {
		// The abcast layer only fails on encoding bugs; surface loudly.
		panic(fmt.Sprintf("gbcast: broadcast CLOSE: %v", err))
	}
}

func (g *Broadcaster) onClose(origin proc.ID, c gClose) {
	if !g.closing || c.Epoch != g.epoch {
		return // stale CLOSE beyond the first majority, ignored everywhere
	}
	if _, dup := g.closeSenders[origin]; dup {
		return
	}
	if len(g.closeSenders) >= g.quorum {
		return
	}
	g.closeSenders[origin] = struct{}{}
	for _, id := range c.Unswept {
		g.closeUnion[id] = struct{}{}
	}
	g.tryCompleteBoundary()
}

// tryCompleteBoundary finishes the epoch once a majority of CLOSE messages
// arrived in the stream and every body in U is locally available.
func (g *Broadcaster) tryCompleteBoundary() {
	if !g.closing || len(g.closeSenders) < g.quorum {
		return
	}
	sweep := make([]gid, 0, len(g.closeUnion))
	for id := range g.closeUnion {
		if g.deliveredSet(id.Origin).Contains(id.Seq) {
			continue
		}
		if _, ok := g.pending[id]; !ok {
			// Body not yet received; reliable broadcast guarantees arrival.
			return
		}
		sweep = append(sweep, id)
	}
	sortGids(sweep)

	// Deliver the swept fast messages, then the ordered batch — the same
	// deterministic order at every process.
	for _, id := range sweep {
		g.deliverFast(id)
	}
	for _, dlv := range g.queuedOrdered {
		g.emitOrdered(dlv)
	}
	g.queuedOrdered = nil
	for id := range g.closeUnion {
		delete(g.unswept, id)
	}
	g.closeSenders = make(map[proc.ID]struct{})
	g.closeUnion = make(map[gid]struct{})
	g.statBoundary++
	g.epoch++
	g.closing = false
	g.flushInFlight = false

	// Re-acknowledge everything still pending in the new epoch, in FIFO
	// order for determinism of ack traffic.
	g.deferredAcks = g.deferredAcks[:0]
	ids := make([]gid, 0, len(g.pending))
	for id := range g.pending {
		ids = append(ids, id)
	}
	sortGids(ids)
	for _, id := range ids {
		g.sendAck(id)
	}
	for _, id := range ids {
		g.checkFast(id)
	}
	g.maybeAutoFlush()

	// Replay, in stream order, what arrived while this boundary waited for a
	// body. A replayed message may open a boundary that stalls in turn;
	// onAdeliver then stashes the rest again.
	stashed := g.stashed
	g.stashed = nil
	for _, d := range stashed {
		g.onAdeliver(d)
	}
}

func (g *Broadcaster) emitOrdered(d Delivery) {
	g.statOrdered++
	if g.deliver != nil && d.Class != flushClass {
		g.deliver(d)
	}
}

// maybeAutoFlush bounds the unswept set by forcing a garbage-collection
// boundary when it grows past the limit.
func (g *Broadcaster) maybeAutoFlush() {
	if g.flushLimit <= 0 || g.flushInFlight || g.closing {
		return
	}
	if len(g.unswept) < g.flushLimit {
		return
	}
	g.flushInFlight = true
	_ = g.ab.Broadcast(gOrd{Class: flushClass})
}

func (g *Broadcaster) deliveredSet(origin proc.ID) *seqset.Set {
	set, ok := g.deliveredFast[origin]
	if !ok {
		set = seqset.New()
		g.deliveredFast[origin] = set
	}
	return set
}

func (g *Broadcaster) fifoNextFor(origin proc.ID) uint64 {
	next, ok := g.fifoNext[origin]
	if !ok {
		next = 1
		g.fifoNext[origin] = 1
	}
	return next
}

// addAck records from's ack of id in epoch (see ackRec).
func (g *Broadcaster) addAck(id gid, epoch uint64, from proc.ID) {
	bit, member := g.memberBit[from]
	if !member || epoch < g.epoch {
		return
	}
	r, ok := g.acks[id]
	switch {
	case !ok || r.epoch < g.epoch:
		r = ackRec{epoch: epoch, mask: bit | g.takeLater(id, epoch)}
	case r.epoch == epoch:
		r.mask |= bit
	default:
		later := g.acksLater[id]
		if later == nil {
			later = make(map[uint64]ackMask)
			g.acksLater[id] = later
		}
		later[epoch] |= bit
		return
	}
	g.acks[id] = r
}

// takeLater removes and returns id's side-map acks for epoch, dropping
// those of epochs that can no longer count.
func (g *Broadcaster) takeLater(id gid, epoch uint64) ackMask {
	later, ok := g.acksLater[id]
	if !ok {
		return 0
	}
	m := later[epoch]
	for e := range later {
		if e == epoch || e < g.epoch {
			delete(later, e)
		}
	}
	if len(later) == 0 {
		delete(g.acksLater, id)
	}
	return m
}

// ackCount is how many members acked id in epoch.
func (g *Broadcaster) ackCount(id gid, epoch uint64) int {
	if r, ok := g.acks[id]; ok && r.epoch == epoch {
		return bits.OnesCount64(uint64(r.mask))
	}
	return bits.OnesCount64(uint64(g.acksLater[id][epoch]))
}

func sortGids(ids []gid) {
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Origin != ids[j].Origin {
			return ids[i].Origin < ids[j].Origin
		}
		return ids[i].Seq < ids[j].Seq
	})
}
