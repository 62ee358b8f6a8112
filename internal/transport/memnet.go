package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/proc"
	"repro/internal/telemetry"
)

const defaultQueue = 4096

// Network is an in-memory simulated network. Endpoints attached to the same
// Network can exchange packets subject to the configured latency, jitter and
// loss, and to runtime fault injection (crashes, link cuts, partitions).
//
// The zero latency configuration still delivers asynchronously (packets
// cross a goroutine boundary), so no layer can accidentally rely on
// synchronous delivery.
type Network struct {
	mu         sync.Mutex
	rng        *rand.Rand
	delayMin   time.Duration
	delayMax   time.Duration
	loss       float64
	endpoints  map[proc.ID]*memEndpoint
	crashed    map[proc.ID]bool
	cutLinks   map[link]bool
	cutOneWay  map[dlink]bool            // directed cuts: from→to dropped, reverse unaffected
	linkDelay  map[link][2]time.Duration // per-link latency override
	partition  map[proc.ID]int           // partition group per process; empty = connected
	partOneWay map[dlink]bool            // directed partition edges (PartitionOneWay)
	partActive bool
	closed     bool
	listeners  map[proc.ID]*memStreamListener // service stream listeners
	pipes      []*memPipe                     // open service streams

	// Delayed-delivery scheduler: ONE goroutine owns a timer heap of
	// in-flight packets instead of one time.AfterFunc goroutine per packet.
	// Under load (retransmission storms, many stacks on few cores) the
	// per-packet-goroutine design convoyed tens of thousands of timer
	// callbacks on n.mu and delivery latency exploded; a single scheduler
	// keeps exactly one waiter on the lock and bounded goroutine count.
	schedMu   sync.Mutex
	schedHeap delayHeap
	schedWait *schedWaiter
	schedStop chan struct{}
	schedOnce sync.Once
	schedDone sync.WaitGroup

	stats Stats
}

// delayedPkt is one in-flight packet awaiting its delivery time.
type delayedPkt struct {
	at  time.Time
	dst *memEndpoint
	pkt Packet
}

// delayHeap is a min-heap of delayedPkt by delivery time. It is typed
// rather than driven through container/heap, whose Push and Pop box every
// packet into an interface value: two allocations per delayed packet.
type delayHeap []delayedPkt

func (h delayHeap) less(i, j int) bool { return h[i].at.Before(h[j].at) }

// push adds d.
func (h *delayHeap) push(d delayedPkt) {
	*h = append(*h, d)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest packet; the heap must not be empty.
// The vacated slot is zeroed so the array does not pin the frame.
func (h *delayHeap) pop() delayedPkt {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = delayedPkt{}
	s = s[:last]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < len(s) && s.less(l, least) {
			least = l
		}
		if r := l + 1; r < len(s) && s.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

type link struct{ a, b proc.ID }

func normLink(a, b proc.ID) link {
	if a > b {
		a, b = b, a
	}
	return link{a: a, b: b}
}

// dlink is a directed link: traffic flowing from → to. One-way faults (ack
// starvation, asymmetric partitions) are sets of dlinks.
type dlink struct{ from, to proc.ID }

// NetOption configures a Network.
type NetOption func(*Network)

// WithDelay sets the per-packet one-way latency range [min, max].
func WithDelay(min, max time.Duration) NetOption {
	return func(n *Network) {
		n.delayMin, n.delayMax = min, max
	}
}

// WithLoss sets the independent per-packet loss probability in [0, 1].
func WithLoss(p float64) NetOption {
	return func(n *Network) { n.loss = p }
}

// WithSeed seeds the network's random source, making loss and jitter
// sequences reproducible.
func WithSeed(seed int64) NetOption {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewNetwork creates a simulated network.
func NewNetwork(opts ...NetOption) *Network {
	n := &Network{
		rng:        rand.New(rand.NewSource(1)),
		endpoints:  make(map[proc.ID]*memEndpoint),
		crashed:    make(map[proc.ID]bool),
		cutLinks:   make(map[link]bool),
		cutOneWay:  make(map[dlink]bool),
		linkDelay:  make(map[link][2]time.Duration),
		partition:  make(map[proc.ID]int),
		partOneWay: make(map[dlink]bool),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint returns (creating if needed) the transport endpoint for id. A
// closed endpoint is replaced by a fresh one, so a process that stopped its
// stack can restart on the same network under the same ID (crash-recovery
// experiments); packets in flight toward the dead endpoint are dropped, not
// delivered to its successor.
func (n *Network) Endpoint(id proc.ID) Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok && !ep.isClosed() {
		return ep
	}
	ep := &memEndpoint{
		net:   n,
		self:  id,
		inbox: make(chan Packet, defaultQueue),
	}
	n.endpoints[id] = ep
	return ep
}

// Crash drops all traffic from and to id until Restart. It models a process
// crash at the network level; the process's goroutines are unaffected (a
// crashed process in the crash-stop model simply stops being heard). Every
// service stream attached to id breaks, like TCP connections to a dead host.
func (n *Network) Crash(id proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
	n.breakStreamsLocked(id, false)
}

// Restart re-enables traffic from and to a previously crashed process.
// Used to model recovery/rejoin experiments.
func (n *Network) Restart(id proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// CutLink symmetrically drops all traffic between a and b.
func (n *Network) CutLink(a, b proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cutLinks[normLink(a, b)] = true
}

// HealLink restores the a-b link.
func (n *Network) HealLink(a, b proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cutLinks, normLink(a, b))
}

// CutLinkOneWay drops traffic flowing from → to only; the reverse direction
// keeps working. This is the ack-starvation fault: to still hears from, but
// from never hears back.
func (n *Network) CutLinkOneWay(from, to proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cutOneWay[dlink{from: from, to: to}] = true
}

// HealLinkOneWay restores the directed from → to link.
func (n *Network) HealLinkOneWay(from, to proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cutOneWay, dlink{from: from, to: to})
}

// Partition splits the network into the given groups; traffic crosses group
// boundaries only by being dropped. Processes not listed in any group form
// an implicit extra group.
func (n *Network) Partition(groups ...[]proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[proc.ID]int)
	for gi, g := range groups {
		for _, id := range g {
			n.partition[id] = gi + 1
		}
	}
	n.partActive = true
}

// PartitionOneWay blocks traffic from every process in src toward every
// process in dst; the dst → src direction is unaffected. Asymmetric splits
// compose: multiple calls accumulate directed edges, alongside (not
// replacing) any symmetric Partition. Heal removes them all.
func (n *Network) PartitionOneWay(src, dst []proc.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range src {
		for _, d := range dst {
			if s == d {
				continue
			}
			n.partOneWay[dlink{from: s, to: d}] = true
		}
	}
}

// Heal removes any partition, symmetric or one-way.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[proc.ID]int)
	n.partOneWay = make(map[dlink]bool)
	n.partActive = false
}

// SetLinkDelay overrides the latency of the symmetric a-b link, e.g. to
// model one slow member. Zero durations restore the network default.
func (n *Network) SetLinkDelay(a, b proc.ID, min, max time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if min == 0 && max == 0 {
		delete(n.linkDelay, normLink(a, b))
		return
	}
	n.linkDelay[normLink(a, b)] = [2]time.Duration{min, max}
}

// SetLoss changes the loss probability at runtime.
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loss = p
}

// SetDelay changes the latency range at runtime.
func (n *Network) SetDelay(min, max time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delayMin, n.delayMax = min, max
}

// Stats returns the traffic counters.
func (n *Network) Stats() StatsSnapshot {
	return n.stats.Snapshot()
}

// RegisterMetrics exports the network's traffic counters under scope.
func (n *Network) RegisterMetrics(s *telemetry.Scope) {
	RegisterStats(s, &n.stats)
}

// ResetStats zeroes the traffic counters (between experiment phases).
func (n *Network) ResetStats() {
	n.stats = Stats{}
}

// Shutdown closes every endpoint.
func (n *Network) Shutdown() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*memEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.breakStreamsLocked("", true)
	listeners := make([]*memStreamListener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	// Stop the delayed-delivery scheduler, if it ever started.
	n.schedOnce.Do(func() {}) // from here on the scheduler can no longer start
	if n.schedStop != nil {
		close(n.schedStop)
		n.schedWait.wake()
		n.schedDone.Wait()
	}
}

// route decides the fate of a packet at send time. It returns the delivery
// delay, the destination endpoint, and whether the packet survives.
func (n *Network) route(from, to proc.ID, size int) (*memEndpoint, time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.addSent(size)
	if n.closed || n.crashed[from] || n.crashed[to] {
		n.stats.addDropped()
		return nil, 0, false
	}
	if n.cutLinks[normLink(from, to)] || n.cutOneWay[dlink{from: from, to: to}] {
		n.stats.addDropped()
		return nil, 0, false
	}
	if n.partActive && n.partition[from] != n.partition[to] {
		n.stats.addDropped()
		return nil, 0, false
	}
	if len(n.partOneWay) > 0 && n.partOneWay[dlink{from: from, to: to}] {
		n.stats.addDropped()
		return nil, 0, false
	}
	if n.loss > 0 && n.rng.Float64() < n.loss {
		n.stats.addDropped()
		return nil, 0, false
	}
	ep, ok := n.endpoints[to]
	if !ok {
		n.stats.addDropped()
		return nil, 0, false
	}
	delayMin, delayMax := n.delayMin, n.delayMax
	if override, ok := n.linkDelay[normLink(from, to)]; ok {
		delayMin, delayMax = override[0], override[1]
	}
	delay := delayMin
	if delayMax > delayMin {
		delay += time.Duration(n.rng.Int63n(int64(delayMax - delayMin)))
	}
	return ep, delay, true
}

// isCrashed reports whether id is currently crashed (checked again at
// delivery time so that packets in flight at crash time are lost too).
func (n *Network) isCrashed(id proc.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

type memEndpoint struct {
	net   *Network
	self  proc.ID
	inbox chan Packet

	mu     sync.Mutex
	closed bool
}

var _ Transport = (*memEndpoint)(nil)

func (e *memEndpoint) Self() proc.ID { return e.self }

func (e *memEndpoint) Send(to proc.ID, data []byte) {
	e.sendPrefixed(to, nil, data)
}

// sendPrefixed is Send with an optional payload prefix (the group mux's
// tag), folded into the single copy Send makes anyway (prefixSender fast
// path).
func (e *memEndpoint) sendPrefixed(to proc.ID, prefix, data []byte) {
	dst, delay, ok := e.net.route(e.self, to, len(prefix)+len(data))
	if !ok {
		return
	}
	// Copy the payload so the caller may reuse its buffer, as with a real
	// network write. The copy lives in a pooled frame buffer; the final
	// consumer recycles it (see framebuf.go).
	buf := GetFrame(len(prefix) + len(data))
	copy(buf, prefix)
	copy(buf[len(prefix):], data)
	pkt := Packet{From: e.self, Data: buf}
	if delay <= 0 {
		dst.enqueue(pkt)
		return
	}
	e.net.schedule(delayedPkt{at: time.Now().Add(delay), dst: dst, pkt: pkt})
}

// maxScheduled bounds the delivery scheduler's queue. An unbounded queue
// is bufferbloat: under overload (retransmission storms on a slow machine)
// the backlog — and with it every packet's latency — grows without limit,
// timeouts fire, senders retransmit harder, and the network livelocks at
// utilization 1. A real network's buffers are finite; past the bound we
// drop (unreliable contract), which backs the load off through the
// retransmission layers above.
const maxScheduled = 8192

// schedule hands a delayed packet to the network's delivery scheduler.
func (n *Network) schedule(d delayedPkt) {
	n.schedOnce.Do(func() {
		n.schedWait = newSchedWaiter()
		n.schedStop = make(chan struct{})
		n.schedDone.Add(1)
		go n.deliverLoop()
	})
	n.schedMu.Lock()
	if len(n.schedHeap) >= maxScheduled {
		n.schedMu.Unlock()
		n.stats.addDropped()
		PutFrame(d.pkt.Data)
		return
	}
	n.schedHeap.push(d)
	next := n.schedHeap[0].at
	n.schedMu.Unlock()
	if next.Equal(d.at) {
		// The new packet is (or ties) the earliest: wake the scheduler so it
		// waits for this one instead.
		n.schedWait.wake()
	}
}

// deliverLoop is the single goroutine delivering delayed packets in
// delivery-time order (crash state is re-checked at delivery time, so
// packets in flight at crash time are lost, as before).
//
// It waits on the runtime timer until one fires late by the epoll grain,
// which only an idle runtime does, and then spends the next kernelRun
// sub-millisecond waits in the kernel (schedWaiter). Neither wait alone
// serves every load. Measured with bench/ on a 2-core Linux VM (medians of
// 4-5 alternating pairs of 20 s runs), a kernel wait for every
// sub-millisecond wait against kernelRun 16: gbcast_mix ops/s +51% and
// failover lat_p50 -34%, but write_sat ops/s -11% and failover outage_ms
// +31% (a kernel wait keeps its P, so a burst of work runs on one P fewer).
// kernelRun 256 against 16 lands between: gbcast_mix ops/s +38%, write_sat
// ops/s -10%, failover outage_ms +7%. With 16, write_sat (28.6k ops/s) and
// the outage (109 ms) read as they do with the runtime timer alone.
func (n *Network) deliverLoop() {
	defer n.schedDone.Done()
	kernelWaits := 0 // sub-millisecond waits left to spend in the kernel
	// The due batch and the crash-state copy are reused from turn to turn,
	// so a steady stream of packets costs the loop no allocation.
	var due []delayedPkt
	crashed := make(map[proc.ID]bool)
	for {
		// The token comes first: a wake after it (a packet due sooner, or
		// Shutdown) makes the wait below return at once.
		tok := n.schedWait.token()
		select {
		case <-n.schedStop:
			// Drain: recycle whatever never got delivered.
			n.schedMu.Lock()
			for _, d := range n.schedHeap {
				PutFrame(d.pkt.Data)
			}
			n.schedHeap = nil
			n.schedMu.Unlock()
			return
		default:
		}
		now := time.Now()
		n.schedMu.Lock()
		for len(n.schedHeap) > 0 && !n.schedHeap[0].at.After(now) {
			due = append(due, n.schedHeap.pop())
		}
		var next time.Time // zero: nothing scheduled
		if len(n.schedHeap) > 0 {
			next = n.schedHeap[0].at
		}
		n.schedMu.Unlock()

		if len(due) > 0 {
			// One crash-state read per batch: the scheduler must not queue
			// on n.mu once per packet while senders hammer the same lock.
			n.mu.Lock()
			clear(crashed)
			for id := range n.crashed {
				crashed[id] = true
			}
			n.mu.Unlock()
			for _, d := range due {
				if crashed[d.dst.self] {
					n.stats.addDropped()
					PutFrame(d.pkt.Data)
					continue
				}
				d.dst.enqueue(d.pkt)
			}
			clear(due) // drop the frame references before the next turn
			due = due[:0]
		}

		wait := time.Duration(-1) // nothing scheduled: wait for a wake
		if !next.IsZero() {
			if wait = time.Until(next); wait <= 0 {
				continue
			}
		}
		if kernelWaits > 0 && wait >= 0 && wait < epollGrain {
			kernelWaits--
			n.schedWait.waitKernel(tok, wait)
			continue
		}
		armed := time.Now()
		if n.schedWait.waitTimer(wait) && wait < epollGrain && time.Since(armed) >= epollGrain {
			// The runtime is idle and parked in epoll: wait in the kernel.
			kernelWaits = kernelRun
		}
	}
}

// epollGrain is the timeout granularity of the epoll wait an idle runtime
// parks in: a shorter timer that took this long was held there.
const epollGrain = time.Millisecond

// kernelRun is how many sub-millisecond waits the scheduler spends in the
// kernel after a late timer before it tries the runtime timer again (see
// deliverLoop for how it was chosen).
const kernelRun = 16

func (e *memEndpoint) enqueue(pkt Packet) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.net.stats.addDropped()
		PutFrame(pkt.Data)
		return
	}
	select {
	case e.inbox <- pkt:
		e.net.stats.addDelivered()
	default:
		// Queue overflow: the unreliable transport drops the packet —
		// recycling its buffer, which drops would otherwise leak to the GC
		// exactly under the overload scenarios the pool exists for.
		e.net.stats.addDropped()
		PutFrame(pkt.Data)
	}
}

func (e *memEndpoint) Receive() <-chan Packet { return e.inbox }

func (e *memEndpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

func (e *memEndpoint) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	close(e.inbox)
}
