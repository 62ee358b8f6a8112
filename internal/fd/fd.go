// Package fd implements the failure detection component (Figure 9).
//
// The detector is heartbeat based and deliberately *unreliable* in the sense
// of Chandra–Toueg [10]: it may wrongly suspect correct processes (a slow
// network or an aggressive timeout produces false suspicions) and it revokes
// suspicions when heartbeats resume. Under the usual partial-synchrony
// assumption it is eventually accurate for crashed processes, i.e. it
// behaves like a detector of class <>S, which is all the consensus layer
// needs.
//
// The key architectural property from the paper (Section 3.3.2) is that
// failure detection is decoupled from membership: several components may
// Subscribe with *different timeouts*. The consensus component subscribes
// with a small timeout (fast rounds after a crash, cheap false suspicions),
// while the monitoring component subscribes with a large timeout (process
// exclusion is expensive, so it must be conservative). The detector serves
// both from the same heartbeat stream.
package fd

import (
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
)

// Proto is the datagram protocol name used for heartbeats.
const Proto = "fd.hb"

type heartbeat struct {
	From proc.ID
}

// tagHeartbeat is the heartbeat's tag in the binary codec.
const tagHeartbeat = 0x11

func init() {
	msg.Bind(tagHeartbeat, func(w *msg.Writer, h heartbeat) { w.Str(string(h.From)) },
		func(r *msg.Reader) heartbeat { return heartbeat{From: proc.ID(r.Str())} })
}

// Event reports a change in the suspicion state of a peer.
type Event struct {
	Peer      proc.ID
	Suspected bool // true: suspect; false: suspicion revoked (trust)
}

// Option configures a Detector.
type Option func(*Detector)

// WithInterval sets the heartbeat emission period.
func WithInterval(d time.Duration) Option {
	return func(f *Detector) { f.interval = d }
}

// WithCheckEvery sets the suspicion evaluation period. It bounds the
// detection granularity; it should be well below the smallest subscriber
// timeout.
func WithCheckEvery(d time.Duration) Option {
	return func(f *Detector) { f.checkEvery = d }
}

// Detector emits heartbeats to its peers and tracks the heartbeats it
// receives, evaluating per-subscription timeouts.
type Detector struct {
	ep         *rchannel.Endpoint
	self       proc.ID
	interval   time.Duration
	checkEvery time.Duration

	mu      sync.Mutex
	peers   []proc.ID
	lastHB  map[proc.ID]time.Time
	subs    map[*Subscription]struct{}
	started bool

	stop chan struct{}
	done sync.WaitGroup
}

// New creates a detector monitoring the given peers (self is ignored if
// present). Heartbeats travel as unreliable datagrams: retransmitting a
// heartbeat would defeat its purpose.
func New(ep *rchannel.Endpoint, peers []proc.ID, opts ...Option) *Detector {
	f := &Detector{
		ep:         ep,
		self:       ep.Self(),
		interval:   5 * time.Millisecond,
		checkEvery: 2 * time.Millisecond,
		lastHB:     make(map[proc.ID]time.Time),
		subs:       make(map[*Subscription]struct{}),
		stop:       make(chan struct{}),
	}
	for _, o := range opts {
		o(f)
	}
	now := time.Now()
	for _, p := range peers {
		if p == f.self {
			continue
		}
		f.peers = append(f.peers, p)
		// A peer is healthy until proven otherwise: pretend we just heard it.
		f.lastHB[p] = now
	}
	ep.Handle(Proto, f.onHeartbeat)
	return f
}

// Start launches the heartbeat and evaluation goroutines.
func (f *Detector) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	f.done.Add(2)
	go f.heartbeatLoop()
	go f.checkLoop()
}

// Stop terminates the detector.
func (f *Detector) Stop() {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return
	}
	select {
	case <-f.stop:
		f.mu.Unlock()
		f.done.Wait()
		return
	default:
	}
	close(f.stop)
	f.mu.Unlock()
	f.done.Wait()
}

// Subscribe creates a suspicion subscription with its own timeout. Events
// are delivered on the subscription channel with best-effort semantics (the
// current suspicion state is always available via Suspected, so a dropped
// event cannot be missed by a poller).
func (f *Detector) Subscribe(timeout time.Duration) *Subscription {
	s := &Subscription{
		fd:        f,
		timeout:   timeout,
		suspected: make(map[proc.ID]bool),
		events:    make(chan Event, 64),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.subs[s] = struct{}{}
	return s
}

func (f *Detector) onHeartbeat(from proc.ID, body any) {
	if _, ok := body.(heartbeat); !ok {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, known := f.lastHB[from]; known {
		f.lastHB[from] = time.Now()
	}
}

func (f *Detector) heartbeatLoop() {
	defer f.done.Done()
	ticker := time.NewTicker(f.interval)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.mu.Lock()
			peers := make([]proc.ID, len(f.peers))
			copy(peers, f.peers)
			f.mu.Unlock()
			for _, p := range peers {
				_ = f.ep.SendDatagram(p, Proto, heartbeat{From: f.self})
			}
		}
	}
}

func (f *Detector) checkLoop() {
	defer f.done.Done()
	ticker := time.NewTicker(f.checkEvery)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.evaluate()
		}
	}
}

func (f *Detector) evaluate() {
	now := time.Now()
	f.mu.Lock()
	type emit struct {
		sub *Subscription
		ev  Event
	}
	var emits []emit
	for s := range f.subs {
		for _, p := range f.peers {
			age := now.Sub(f.lastHB[p])
			s.mu.Lock()
			suspected := s.suspected[p]
			switch {
			case age > s.timeout && !suspected:
				s.suspected[p] = true
				emits = append(emits, emit{s, Event{Peer: p, Suspected: true}})
			case age <= s.timeout && suspected:
				s.suspected[p] = false
				emits = append(emits, emit{s, Event{Peer: p, Suspected: false}})
			}
			s.mu.Unlock()
		}
	}
	f.mu.Unlock()
	for _, e := range emits {
		select {
		case e.sub.events <- e.ev:
		default: // channel full: poller still sees state via Suspected
		}
	}
}

// Subscription is one consumer's view of the failure detector, evaluated
// against its own timeout.
type Subscription struct {
	fd      *Detector
	timeout time.Duration

	mu        sync.Mutex
	suspected map[proc.ID]bool
	events    chan Event
}

// Events returns the channel of suspicion changes.
func (s *Subscription) Events() <-chan Event { return s.events }

// Suspected reports the current suspicion state of p.
func (s *Subscription) Suspected(p proc.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suspected[p]
}

// Suspects returns the currently suspected peers.
func (s *Subscription) Suspects() []proc.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []proc.ID
	for p, v := range s.suspected {
		if v {
			out = append(out, p)
		}
	}
	return out
}

// Close detaches the subscription from the detector.
func (s *Subscription) Close() {
	s.fd.mu.Lock()
	defer s.fd.mu.Unlock()
	delete(s.fd.subs, s)
}
