// Package rbcast implements reliable broadcast over reliable channels.
//
// Properties (for the crash-stop model, all within a fixed destination set):
//
//	Validity:    if a correct process broadcasts m, it delivers m.
//	Agreement:   if any correct process delivers m, every correct process
//	             delivers m (eager relay on first receipt covers senders
//	             that crash mid-broadcast).
//	Integrity:   m is delivered at most once, and only if broadcast.
//	FIFO:        messages from the same origin are delivered in the order
//	             broadcast (required by the generic broadcast layer,
//	             footnote 9 of the paper).
//
// The layer is instantiated once per client protocol with a distinct
// protocol name, so several broadcast groups can share one endpoint.
package rbcast

import (
	"fmt"
	"sync"

	"repro/internal/eventq"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/seqset"
)

// rbMsg is the wire format.
type rbMsg struct {
	Origin proc.ID
	Seq    uint64
	Body   any
}

// tagRbMsg is the wire format's tag in the binary codec.
const tagRbMsg = 0x30

func init() {
	msg.Bind(tagRbMsg, func(w *msg.Writer, m rbMsg) {
		w.Str(string(m.Origin))
		w.Uint(m.Seq)
		w.Any(m.Body)
	}, func(r *msg.Reader) rbMsg {
		return rbMsg{Origin: proc.ID(r.Str()), Seq: r.Uint(), Body: r.Any()}
	})
}

// Delivery is a delivered broadcast message.
type Delivery struct {
	Origin proc.ID
	Seq    uint64
	Body   any
}

// DeliverFunc consumes deliveries. It runs on the broadcaster's delivery
// goroutine; it must not block indefinitely.
type DeliverFunc func(Delivery)

// Broadcaster provides reliable FIFO broadcast within a fixed member set.
type Broadcaster struct {
	ep      *rchannel.Endpoint
	self    proc.ID
	others  []proc.ID
	proto   string
	deliver DeliverFunc

	mu       sync.Mutex
	nextSeq  uint64
	seen     map[proc.ID]*seqset.Set
	fifoNext map[proc.ID]uint64
	fifoBuf  map[proc.ID]map[uint64]rbMsg

	queue     *eventq.Queue[Delivery]
	startOnce sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

// New creates a broadcaster for the given member set. proto must be unique
// per endpoint. deliver receives messages in FIFO-per-origin order.
func New(ep *rchannel.Endpoint, proto string, members []proc.ID, deliver DeliverFunc) *Broadcaster {
	b := &Broadcaster{
		ep:       ep,
		self:     ep.Self(),
		proto:    proto,
		deliver:  deliver,
		seen:     make(map[proc.ID]*seqset.Set),
		fifoNext: make(map[proc.ID]uint64),
		fifoBuf:  make(map[proc.ID]map[uint64]rbMsg),
		queue:    eventq.New[Delivery](),
		stop:     make(chan struct{}),
	}
	for _, m := range members {
		if m != b.self {
			b.others = append(b.others, m)
		}
	}
	ep.Handle(proto, b.onNet)
	return b
}

// Start launches the delivery goroutine.
func (b *Broadcaster) Start() {
	b.startOnce.Do(func() {
		b.done.Add(1)
		go b.deliveryLoop()
	})
}

// Stop terminates the delivery goroutine.
func (b *Broadcaster) Stop() {
	select {
	case <-b.stop:
		return
	default:
		close(b.stop)
	}
	b.done.Wait()
	b.queue.Close()
}

// Broadcast reliably broadcasts body to all members, including self.
func (b *Broadcaster) Broadcast(body any) error {
	b.mu.Lock()
	b.nextSeq++
	m := rbMsg{Origin: b.self, Seq: b.nextSeq, Body: body}
	b.acceptLocked(m)
	b.mu.Unlock()
	if err := b.ep.SendAll(b.others, b.proto, m); err != nil {
		return fmt.Errorf("rbcast %s: %w", b.proto, err)
	}
	return nil
}

func (b *Broadcaster) onNet(_ proc.ID, body any) {
	m, ok := body.(rbMsg)
	if !ok {
		return
	}
	b.mu.Lock()
	first := b.acceptLocked(m)
	b.mu.Unlock()
	if first {
		// Eager relay: guarantee agreement if the origin crashed after
		// reaching only a subset of the group.
		_ = b.ep.SendAll(b.others, b.proto, m)
	}
}

// acceptLocked records m if new and enqueues FIFO-ready deliveries.
// It returns true if m was seen for the first time.
func (b *Broadcaster) acceptLocked(m rbMsg) bool {
	set, ok := b.seen[m.Origin]
	if !ok {
		set = seqset.New()
		b.seen[m.Origin] = set
	}
	if !set.Add(m.Seq) {
		return false
	}
	next, ok := b.fifoNext[m.Origin]
	if !ok {
		next = 1
		b.fifoNext[m.Origin] = 1
	}
	if m.Seq != next {
		buf, ok := b.fifoBuf[m.Origin]
		if !ok {
			buf = make(map[uint64]rbMsg)
			b.fifoBuf[m.Origin] = buf
		}
		buf[m.Seq] = m
		return true
	}
	b.queue.Push(Delivery{Origin: m.Origin, Seq: m.Seq, Body: m.Body})
	next++
	buf := b.fifoBuf[m.Origin]
	for {
		bm, ok := buf[next]
		if !ok {
			break
		}
		delete(buf, next)
		b.queue.Push(Delivery{Origin: bm.Origin, Seq: bm.Seq, Body: bm.Body})
		next++
	}
	b.fifoNext[m.Origin] = next
	return true
}

func (b *Broadcaster) deliveryLoop() {
	defer b.done.Done()
	for {
		d, ok := b.queue.TryPop()
		if !ok {
			select {
			case <-b.stop:
				return
			case <-b.queue.Wait():
				continue
			}
		}
		if b.deliver != nil {
			b.deliver(d)
		}
	}
}
