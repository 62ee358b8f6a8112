// Package rchannel implements the reliable channel component of the
// architecture (Figure 9, Section 3.3.1).
//
// Property: if a correct process p sends message m to a correct process q,
// then q eventually receives m. On top of that the implementation provides
// per-peer FIFO delivery and duplicate suppression, which the layers above
// (reliable broadcast, consensus, generic broadcast) rely on. The paper
// implements this abstraction on top of TCP [15]; here it is built from
// sequence numbers, cumulative acknowledgements and retransmission over the
// unreliable transport, so that it works identically on the simulated
// network and on TCP.
//
// Acknowledgements are cumulative and ride on data: every data frame
// carries the sender's in-order point for the receiver, so a peer that
// answers (consensus replies, gbcast acks, relays) acknowledges for free.
// The receiver sends a bare ack at once only for a duplicate, which is the
// sender's retransmission asking for one; any other ack it owes is sent by
// the retransmit tick, at most one bare ack per peer per tick (every
// RTO/2), and only when its in-order point has passed what any frame has
// already carried to that peer. A lost ack, piggybacked or bare, costs one
// retransmission, whose duplicate is acknowledged at once.
//
// The component also produces "output-triggered suspicions" [12]
// (Section 3.3.2): when a message stays unacknowledged longer than a
// threshold, the registered OnStuck callback fires so that the monitoring
// component can decide to exclude the silent peer and let the sender discard
// its buffer.
package rchannel

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/transport"
)

const (
	kindData uint8 = iota + 1
	kindAck
	kindDgram
)

// wire is the single frame type exchanged over the transport.
type wire struct {
	Kind  uint8
	Seq   uint64 // data sequence number (kindData)
	Ack   uint64 // cumulative acknowledgement
	Proto string // demultiplexing key for the layer above
	Body  any

	// Incarnation handshake (crash recovery): Inc is the sender's
	// incarnation, PInc the sender's view of the receiver's. A process that
	// restarts with fresh channel state announces a higher incarnation; on
	// first contact each side drops all per-peer state about the other's
	// previous life (sequence numbers AND the unacknowledged backlog), and
	// frames addressed to a stale incarnation are discarded instead of
	// corrupting the fresh sequence space. The reliable-delivery obligation
	// is therefore per ESTABLISHED incarnation pair: frames a side sends
	// before it has observed the peer's current incarnation may be lost in
	// the transition window (its callers retry, exactly as for a message
	// sent to a process that has not come up yet). Zero values reproduce
	// the pre-incarnation wire format, so never-restarting processes are
	// unaffected.
	Inc  uint64
	PInc uint64
}

// tagWire is the frame's tag in the binary codec.
const tagWire = 0x10

// wireCodec encodes and decodes frames without boxing them: every packet
// the endpoint sends or receives goes through it.
var wireCodec = msg.Bind(tagWire, func(w *msg.Writer, f wire) {
	w.Byte(f.Kind)
	w.Uint(f.Seq)
	w.Uint(f.Ack)
	w.Str(f.Proto)
	w.Any(f.Body)
	w.Uint(f.Inc)
	w.Uint(f.PInc)
}, func(r *msg.Reader) wire {
	return wire{Kind: r.Byte(), Seq: r.Uint(), Ack: r.Uint(), Proto: r.Str(), Body: r.Any(), Inc: r.Uint(), PInc: r.Uint()}
})

// Handler consumes a message delivered to a protocol. Handlers run on the
// endpoint's dispatch goroutine: they must not block for long and must not
// call back into the Endpoint synchronously in a way that can deadlock
// (Send is safe; Stop is not).
type Handler func(from proc.ID, body any)

// StuckFunc is notified when the oldest unacknowledged message for a peer
// exceeds the stuck threshold (output-triggered suspicion).
type StuckFunc func(peer proc.ID, age time.Duration)

// Option configures an Endpoint.
type Option func(*Endpoint)

// WithRTO sets the retransmission timeout.
func WithRTO(d time.Duration) Option {
	return func(e *Endpoint) { e.rto = d }
}

// WithStuckAfter sets the output-triggered suspicion threshold. Zero
// disables stuck detection.
func WithStuckAfter(d time.Duration) Option {
	return func(e *Endpoint) { e.stuckAfter = d }
}

// WithIncarnation sets this endpoint's incarnation number. A process that
// restarts WITHOUT its channel state (sequence numbers, buffers) must come
// back with a strictly higher incarnation than any previous life under the
// same ID; peers then reset their per-peer channel state for it instead of
// discarding its fresh sequence numbers as duplicates, and drop the
// undeliverable backlog addressed to the dead incarnation. The default 0
// is what every never-restarting process runs with.
func WithIncarnation(inc uint64) Option {
	return func(e *Endpoint) { e.inc = inc }
}

// WithLogger sets a logger for diagnostics; by default logs are discarded.
func WithLogger(l *slog.Logger) Option {
	return func(e *Endpoint) { e.log = l }
}

// Endpoint is a process's reliable channel multiplexer. A single Endpoint
// carries every protocol of the stack, demultiplexed by protocol name.
type Endpoint struct {
	tr         transport.Transport
	self       proc.ID
	rto        time.Duration
	stuckAfter time.Duration
	inc        uint64 // this endpoint's incarnation (WithIncarnation)
	log        *slog.Logger

	mu       sync.Mutex
	handlers map[string]Handler
	onStuck  StuckFunc
	out      map[proc.ID]*outState
	in       map[proc.ID]*inState
	peerInc  map[proc.ID]uint64 // highest incarnation seen per peer
	started  bool

	// Incarnation-handshake accounting (ChannelStats).
	statAdmitted uint64
	statGhost    uint64 // frames from a dead incarnation of the peer
	statStale    uint64 // frames addressed to a previous life of this endpoint
	statResets   uint64 // per-peer channel resets (peer restarted fresh)
	statBad      uint64 // undecodable / unexpected frames

	// Retransmission accounting (ChannelStats).
	statRetrans       uint64 // frames re-sent by the retransmit loop
	statBackoffResets uint64 // frames acked after at least one retransmission

	loopback chan wire // local deliveries, so handlers always run on dispatch

	// batch is the in-order run handleData delivers, reused from frame to
	// frame; only the dispatch goroutine touches it.
	batch []delivery

	stop chan struct{}
	done sync.WaitGroup
}

// outState is the sending side toward one peer. q[head:] is the
// unacknowledged backlog in seq order, one frame per seq with no gaps: an
// ack drops a prefix by advancing head, and push reuses the dead front
// before growing the array.
type outState struct {
	nextSeq uint64
	q       []pending
	head    int
}

type pending struct {
	seq       uint64
	frame     []byte
	firstSent time.Time
	lastSent  time.Time
	attempts  int // retransmissions so far (drives exponential backoff)
	notified  bool
}

// unacked is the backlog, oldest first.
func (o *outState) unacked() []pending { return o.q[o.head:] }

// push appends a frame to the backlog. A full array whose dead front is at
// least half of it is compacted instead of grown, so a steady backlog costs
// no allocation and each frame is copied at most once per compaction.
func (o *outState) push(p pending) {
	if len(o.q) == cap(o.q) && 2*o.head >= len(o.q) {
		n := copy(o.q, o.q[o.head:])
		clear(o.q[n:])
		o.q, o.head = o.q[:n], 0
	}
	o.q = append(o.q, p)
}

// ack drops every frame with seq <= ack and reports how many of them had
// been retransmitted.
func (o *outState) ack(ack uint64) (retried uint64) {
	for o.head < len(o.q) && o.q[o.head].seq <= ack {
		if o.q[o.head].attempts > 0 {
			retried++
		}
		o.q[o.head] = pending{} // release the frame
		o.head++
	}
	if o.head == len(o.q) {
		o.q, o.head = o.q[:0], 0
	}
	return retried
}

type inState struct {
	expected uint64 // next in-order sequence to deliver
	acked    uint64 // highest cumulative ack any frame has carried to the peer
	oob      map[uint64]wire
}

// New creates an endpoint over the given transport.
func New(tr transport.Transport, opts ...Option) *Endpoint {
	e := &Endpoint{
		tr:       tr,
		self:     tr.Self(),
		rto:      25 * time.Millisecond,
		log:      slog.New(slog.DiscardHandler),
		handlers: make(map[string]Handler),
		out:      make(map[proc.ID]*outState),
		in:       make(map[proc.ID]*inState),
		peerInc:  make(map[proc.ID]uint64),
		loopback: make(chan wire, defaultLoopback),
		stop:     make(chan struct{}),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

const defaultLoopback = 1024

// Self returns the local process ID.
func (e *Endpoint) Self() proc.ID { return e.self }

// Handle registers the handler for a protocol. It must be called before
// Start; registering twice for the same protocol panics (a wiring bug).
func (e *Endpoint) Handle(proto string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		panic("rchannel: Handle after Start")
	}
	if _, dup := e.handlers[proto]; dup {
		panic(fmt.Sprintf("rchannel: duplicate handler for %q", proto))
	}
	e.handlers[proto] = h
}

// OnStuck registers the output-triggered suspicion callback.
func (e *Endpoint) OnStuck(fn StuckFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onStuck = fn
}

// Start launches the dispatch and retransmission goroutines.
func (e *Endpoint) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()

	e.done.Add(2)
	go e.dispatchLoop()
	go e.retransmitLoop()
}

// Stop terminates the endpoint's goroutines and closes the transport.
func (e *Endpoint) Stop() {
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return
	}
	select {
	case <-e.stop:
		e.mu.Unlock()
		e.done.Wait()
		return
	default:
	}
	close(e.stop)
	e.mu.Unlock()
	e.tr.Close()
	e.done.Wait()
}

// Send transmits body to the destination with reliable FIFO semantics.
func (e *Endpoint) Send(to proc.ID, proto string, body any) error {
	if to == e.self {
		return e.sendLocal(wire{Kind: kindData, Proto: proto, Body: body})
	}
	e.mu.Lock()
	out, in := e.outLocked(to), e.inLocked(to)
	out.nextSeq++
	w := wire{Kind: kindData, Seq: out.nextSeq, Ack: in.expected - 1, Proto: proto, Body: body,
		Inc: e.inc, PInc: e.peerInc[to]}
	frame, err := wireCodec.Encode(w)
	if err != nil {
		out.nextSeq--
		e.mu.Unlock()
		return fmt.Errorf("rchannel send to %s: %w", to, err)
	}
	in.acked = w.Ack
	now := time.Now()
	out.push(pending{seq: w.Seq, frame: frame, firstSent: now, lastSent: now})
	e.mu.Unlock()
	e.tr.Send(to, frame)
	return nil
}

// SendDatagram transmits body unreliably (no sequencing, no retransmission).
// The failure detector uses this path for heartbeats so that heartbeats are
// never artificially "repaired" by retransmission.
func (e *Endpoint) SendDatagram(to proc.ID, proto string, body any) error {
	if to == e.self {
		return e.sendLocal(wire{Kind: kindDgram, Proto: proto, Body: body})
	}
	e.mu.Lock()
	w := wire{Kind: kindDgram, Proto: proto, Body: body, Inc: e.inc, PInc: e.peerInc[to]}
	e.mu.Unlock()
	// Datagrams are never retransmitted, so the frame can live in a pooled
	// buffer: the transport copies on Send and the buffer is reused.
	frame, release, err := wireCodec.EncodeTransient(w)
	if err != nil {
		return fmt.Errorf("rchannel datagram to %s: %w", to, err)
	}
	e.tr.Send(to, frame)
	release()
	return nil
}

// SendAll sends reliably to every destination in dests (including self if
// listed). It returns the first encoding error encountered, if any.
func (e *Endpoint) SendAll(dests []proc.ID, proto string, body any) error {
	var firstErr error
	for _, d := range dests {
		if err := e.Send(d, proto, body); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *Endpoint) sendLocal(w wire) error {
	// Round-trip through the codec so local and remote deliveries share
	// aliasing semantics. The encoded frame exists only for the duration of
	// the decode, so it stays in a pooled buffer.
	frame, release, err := wireCodec.EncodeTransient(w)
	if err != nil {
		return fmt.Errorf("rchannel loopback: %w", err)
	}
	dw, err := wireCodec.Decode(frame)
	release()
	if err != nil {
		return fmt.Errorf("rchannel loopback decode: %w", err)
	}
	select {
	case e.loopback <- dw:
		return nil
	case <-e.stop:
		return nil
	}
}

func (e *Endpoint) outLocked(to proc.ID) *outState {
	out, ok := e.out[to]
	if !ok {
		out = &outState{}
		e.out[to] = out
	}
	return out
}

func (e *Endpoint) inLocked(from proc.ID) *inState {
	in, ok := e.in[from]
	if !ok {
		in = &inState{expected: 1, oob: make(map[uint64]wire)}
		e.in[from] = in
	}
	return in
}

func (e *Endpoint) dispatchLoop() {
	defer e.done.Done()
	rx := e.tr.Receive()
	for {
		select {
		case <-e.stop:
			return
		case w := <-e.loopback:
			e.dispatch(e.self, w.Proto, w.Body)
		case pkt, ok := <-rx:
			if !ok {
				return
			}
			e.handlePacket(pkt)
		}
	}
}

func (e *Endpoint) handlePacket(pkt transport.Packet) {
	// A frame of any other type, gob included, fails to decode as a wire.
	w, err := wireCodec.Decode(pkt.Data)
	// The endpoint is the frame's final consumer: Decode copies every field
	// out of the buffer, so it can go back to the transport pool here
	// regardless of what happens to the decoded value.
	transport.PutFrame(pkt.Data)
	if err != nil {
		e.mu.Lock()
		e.statBad++
		e.mu.Unlock()
		e.log.Warn("rchannel: bad frame", "from", pkt.From, "err", err)
		return
	}
	if !e.admit(pkt.From, w) {
		return
	}
	switch w.Kind {
	case kindDgram:
		e.dispatch(pkt.From, w.Proto, w.Body)
	case kindAck:
		e.applyAck(pkt.From, w.Ack)
	case kindData:
		e.applyAck(pkt.From, w.Ack)
		e.handleData(pkt.From, w)
	default:
		e.log.Warn("rchannel: unknown frame kind", "kind", w.Kind)
	}
}

// admit runs the incarnation handshake on one inbound frame: it learns the
// peer's incarnation (resetting both directions of the channel when the
// peer has restarted fresh), drops ghosts of the peer's previous lives, and
// drops frames addressed to a previous life of THIS endpoint — answering
// those with a bare identifying ack so the sender learns the current
// incarnation and its retransmissions resume correctly addressed.
func (e *Endpoint) admit(from proc.ID, w wire) bool {
	e.mu.Lock()
	cur := e.peerInc[from] // an unheard-from peer is incarnation 0
	if w.Inc < cur {
		e.statGhost++
		e.mu.Unlock()
		return false // ghost of a dead incarnation
	}
	if w.Inc > cur {
		// The peer restarted without its channel state: its old sequence
		// space is void, and so is our unacknowledged backlog toward it —
		// those frames (including any sent before first hearing from the
		// peer, stamped with its old incarnation) are DROPPED, not
		// re-stamped; reliability is per established incarnation pair and
		// single-shot senders must tolerate the transition window.
		delete(e.out, from)
		delete(e.in, from)
		e.statResets++
	}
	e.peerInc[from] = w.Inc
	stale := w.PInc != e.inc
	if stale {
		e.statStale++
	} else {
		e.statAdmitted++
	}
	e.mu.Unlock()
	if stale {
		if w.Kind == kindData {
			e.sendAck(from, 0, w.Inc)
		}
		return false
	}
	return true
}

// ChannelStats is the incarnation handshake's and retransmit loop's
// accounting.
type ChannelStats struct {
	Admitted uint64 // frames accepted
	Ghost    uint64 // dropped: sent by a dead incarnation of the peer
	Stale    uint64 // dropped: addressed to a previous life of this endpoint
	Resets   uint64 // per-peer channel resets (peer restarted fresh)
	Bad      uint64 // dropped: undecodable or unexpected frames
	// Retransmits counts frames re-sent by the retransmit loop;
	// BackoffResets counts frames eventually acknowledged after at least
	// one retransmission — the backoff paid off rather than the channel
	// being reset out from under the frame.
	Retransmits   uint64
	BackoffResets uint64
}

// Stats returns the endpoint's channel accounting.
func (e *Endpoint) Stats() ChannelStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ChannelStats{Admitted: e.statAdmitted, Ghost: e.statGhost, Stale: e.statStale,
		Resets: e.statResets, Bad: e.statBad,
		Retransmits: e.statRetrans, BackoffResets: e.statBackoffResets}
}

// PeerIncarnation returns the highest incarnation this endpoint has
// observed for peer (0 if never heard from).
func (e *Endpoint) PeerIncarnation(peer proc.ID) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peerInc[peer]
}

func (e *Endpoint) applyAck(from proc.ID, ack uint64) {
	if ack == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if out, ok := e.out[from]; ok {
		e.statBackoffResets += out.ack(ack)
	}
}

// delivery is one in-order message handleData hands to its handler.
type delivery struct {
	proto string
	body  any
}

func (e *Endpoint) handleData(from proc.ID, w wire) {
	deliveries := e.batch[:0]
	e.mu.Lock()
	in := e.inLocked(from)
	dup := w.Seq < in.expected
	switch {
	case dup:
		// The sender retransmitted because no ack reached it: answer now.
		in.acked = in.expected - 1
	case w.Seq == in.expected:
		deliveries = append(deliveries, delivery{w.Proto, w.Body})
		in.expected++
		for {
			next, ok := in.oob[in.expected]
			if !ok {
				break
			}
			delete(in.oob, in.expected)
			deliveries = append(deliveries, delivery{next.Proto, next.Body})
			in.expected++
		}
	default:
		if _, dup := in.oob[w.Seq]; !dup {
			in.oob[w.Seq] = w
		}
	}
	ack := in.expected - 1
	pinc := e.peerInc[from]
	e.mu.Unlock()

	if dup {
		e.sendAck(from, ack, pinc)
	}
	for _, d := range deliveries {
		e.dispatch(from, d.proto, d.body)
	}
	clear(deliveries) // pin no body until the next frame
	e.batch = deliveries
}

// sendAck emits a bare cumulative ack. pinc is the peer's incarnation,
// captured by the caller inside the critical section that chose the ack.
func (e *Endpoint) sendAck(to proc.ID, ack, pinc uint64) {
	w := wire{Kind: kindAck, Ack: ack, Inc: e.inc, PInc: pinc}
	// Never retained, so acks use the pooled transient encode path.
	frame, release, err := wireCodec.EncodeTransient(w)
	if err != nil {
		e.log.Warn("rchannel: encode ack", "err", err)
		return
	}
	e.tr.Send(to, frame)
	release()
}

func (e *Endpoint) dispatch(from proc.ID, proto string, body any) {
	e.mu.Lock()
	h := e.handlers[proto]
	e.mu.Unlock()
	if h == nil {
		e.log.Debug("rchannel: no handler", "proto", proto)
		return
	}
	h(from, body)
}

func (e *Endpoint) retransmitLoop() {
	defer e.done.Done()
	interval := e.rto / 2
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.retransmitPass()
		}
	}
}

// retransmitPass is one tick: it sends the bare acks owed to each peer,
// re-sends the frames whose backoff has run out and raises stuck
// notifications.
func (e *Endpoint) retransmitPass() {
	now := time.Now()
	type resend struct {
		to    proc.ID
		frame []byte
	}
	type bareAck struct {
		to        proc.ID
		ack, pinc uint64
	}
	var (
		resends []resend
		acks    []bareAck
		stuck   []proc.ID
		ages    []time.Duration
		onStuck StuckFunc
	)
	e.mu.Lock()
	onStuck = e.onStuck
	for from, in := range e.in {
		// Acks no data frame has carried since the last tick.
		if ack := in.expected - 1; ack > in.acked {
			in.acked = ack
			acks = append(acks, bareAck{to: from, ack: ack, pinc: e.peerInc[from]})
		}
	}
	for to, out := range e.out {
		u := out.unacked()
		for i := range u {
			p := &u[i]
			// Exponential backoff per frame (capped at 32×RTO): a fixed
			// retransmission interval MULTIPLIES offered load exactly when
			// the network is congested or the peer is slow/dead, which can
			// lock the system into a retransmission storm. Backing off
			// preserves eventual delivery while letting congestion drain.
			interval := e.rto << min(p.attempts, 5)
			if now.Sub(p.lastSent) >= interval {
				p.lastSent = now
				p.attempts++
				e.statRetrans++
				resends = append(resends, resend{to: to, frame: p.frame})
			}
		}
		// The backlog is in seq order, so its head is the oldest frame.
		if len(u) > 0 && e.stuckAfter > 0 && !u[0].notified &&
			now.Sub(u[0].firstSent) >= e.stuckAfter {
			u[0].notified = true
			stuck = append(stuck, to)
			ages = append(ages, now.Sub(u[0].firstSent))
		}
	}
	e.mu.Unlock()

	for _, a := range acks {
		e.sendAck(a.to, a.ack, a.pinc)
	}
	for _, r := range resends {
		e.tr.Send(r.to, r.frame)
	}
	if onStuck != nil {
		for i, peer := range stuck {
			onStuck(peer, ages[i])
		}
	}
}

// PeerState reports the channel's sequence state toward/from one peer —
// diagnostic surface for recovery debugging: the next outbound sequence,
// the unacknowledged count, the next inbound sequence expected, and how
// many frames sit buffered out of order.
func (e *Endpoint) PeerState(peer proc.ID) (outNext uint64, unacked int, inExpected uint64, oob int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if o, ok := e.out[peer]; ok {
		outNext, unacked = o.nextSeq, len(o.unacked())
	}
	if i, ok := e.in[peer]; ok {
		inExpected, oob = i.expected, len(i.oob)
	}
	return
}

// PendingTo reports how many messages to peer are still unacknowledged,
// exposed for tests and for the monitoring component's buffer policy.
func (e *Endpoint) PendingTo(peer proc.ID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out, ok := e.out[peer]
	if !ok {
		return 0
	}
	return len(out.unacked())
}

// DiscardPeer drops all buffered state for peer. The monitoring component
// calls this after peer has been excluded from the membership: once q is no
// longer a member there is no obligation to deliver to it, so its buffered
// messages can be discarded (Section 3.3.2).
func (e *Endpoint) DiscardPeer(peer proc.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.out, peer)
}
