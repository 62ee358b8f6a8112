// Package abcast implements atomic (total order) broadcast by reduction to
// a sequence of consensus instances — the Chandra–Toueg transformation [10]
// that the paper places at the base of the new architecture (Section 3.1.1,
// Figure 6).
//
// Sketch: messages are disseminated with reliable broadcast; instance k of
// consensus decides on a *batch* — some proposer's set of not-yet-delivered
// messages, serialised in a deterministic order. Every process handles the
// decision stream in instance order and delivers each batch's messages
// (skipping ones already delivered) in batch order, so all processes deliver
// the same messages in the same total order.
//
// Crucially, the algorithm never blocks on process crashes as long as
// f < n/2: no membership service and no perfect failure detector are
// required. This is the property that lets group membership be layered *on
// top of* atomic broadcast instead of below it.
package abcast

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/consensus"
	"repro/internal/eventq"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rbcast"
	"repro/internal/rchannel"
	"repro/internal/seqset"
)

// item is one broadcast message as disseminated and batched.
type item struct {
	Origin proc.ID
	Seq    uint64
	Body   any
}

// Tags of an item and of a batch in the binary codec.
const (
	tagItem  = 0x38
	tagBatch = 0x39
)

func init() {
	msg.Bind(tagItem, encodeItem, decodeItem)
	msg.Bind(tagBatch, func(w *msg.Writer, batch []item) {
		w.Len(len(batch))
		for _, it := range batch {
			encodeItem(w, it)
		}
	}, func(r *msg.Reader) []item {
		n := r.Len()
		if n == 0 {
			return nil
		}
		batch := make([]item, n)
		for i := range batch {
			batch[i] = decodeItem(r)
		}
		return batch
	})
}

func encodeItem(w *msg.Writer, it item) {
	w.Str(string(it.Origin))
	w.Uint(it.Seq)
	w.Any(it.Body)
}

func decodeItem(r *msg.Reader) item {
	return item{Origin: proc.ID(r.Str()), Seq: r.Uint(), Body: r.Any()}
}

// Delivery is a message delivered in total order. GlobalSeq is the position
// in the total order (identical at all processes).
type Delivery struct {
	Origin    proc.ID
	Seq       uint64
	GlobalSeq uint64
	Body      any
}

// DeliverFunc consumes total-order deliveries on the broadcaster's event
// loop goroutine; it must not block.
type DeliverFunc func(Delivery)

// Broadcaster provides atomic broadcast for a fixed member universe.
type Broadcaster struct {
	self    proc.ID
	rb      *rbcast.Broadcaster
	cs      *consensus.Service
	deliver DeliverFunc

	events *eventq.Queue[event]

	// Event-loop-owned state.
	undelivered map[key]item
	delivered   map[proc.ID]*seqset.Set
	pending     map[uint64][]byte // out-of-order decisions
	nextInst    uint64
	proposed    bool // a proposal for nextInst is outstanding
	globalSeq   uint64

	sendSeq   atomic.Uint64
	startOnce sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

type key struct {
	origin proc.ID
	seq    uint64
}

type event struct {
	item     *item
	decision *consensus.Decision
}

// New creates an atomic broadcaster. proto namespaces its dissemination
// traffic on the endpoint; members is the fixed universe (the same set the
// consensus service was built with).
func New(ep *rchannel.Endpoint, proto string, members []proc.ID, deliver DeliverFunc) *Broadcaster {
	b := &Broadcaster{
		self:        ep.Self(),
		deliver:     deliver,
		events:      eventq.New[event](),
		undelivered: make(map[key]item),
		delivered:   make(map[proc.ID]*seqset.Set),
		pending:     make(map[uint64][]byte),
		nextInst:    1,
		stop:        make(chan struct{}),
	}
	b.rb = rbcast.New(ep, proto+".rb", members, func(d rbcast.Delivery) {
		it, ok := d.Body.(item)
		if !ok {
			return
		}
		b.events.Push(event{item: &it})
	})
	return b
}

// AttachConsensus wires the consensus service the broadcaster drives. The
// service must have been created with the broadcaster's Decide method as its
// decision callback. Split from New because the two components reference
// each other.
func (b *Broadcaster) AttachConsensus(cs *consensus.Service) {
	b.cs = cs
}

// Decide is the consensus decision callback.
func (b *Broadcaster) Decide(d consensus.Decision) {
	b.events.Push(event{decision: &d})
}

// Start launches the event loop. AttachConsensus must have been called.
func (b *Broadcaster) Start() {
	b.startOnce.Do(func() {
		if b.cs == nil {
			panic("abcast: Start without AttachConsensus")
		}
		b.rb.Start()
		b.done.Add(1)
		go b.loop()
	})
}

// Stop terminates the event loop (the consensus service is stopped by its
// owner, not here).
func (b *Broadcaster) Stop() {
	select {
	case <-b.stop:
		return
	default:
		close(b.stop)
	}
	b.done.Wait()
	b.rb.Stop()
	b.events.Close()
}

// Broadcast submits body for total-order delivery to all members.
func (b *Broadcaster) Broadcast(body any) error {
	seq := b.sendSeq.Add(1)
	if err := b.rb.Broadcast(item{Origin: b.self, Seq: seq, Body: body}); err != nil {
		return fmt.Errorf("abcast: %w", err)
	}
	return nil
}

func (b *Broadcaster) loop() {
	defer b.done.Done()
	for {
		ev, ok := b.events.TryPop()
		if !ok {
			select {
			case <-b.stop:
				return
			case <-b.events.Wait():
				continue
			}
		}
		switch {
		case ev.item != nil:
			b.handleItem(*ev.item)
		case ev.decision != nil:
			b.handleDecision(*ev.decision)
		}
	}
}

func (b *Broadcaster) handleItem(it item) {
	if b.deliveredSet(it.Origin).Contains(it.Seq) {
		return
	}
	k := key{origin: it.Origin, seq: it.Seq}
	if _, dup := b.undelivered[k]; dup {
		return
	}
	b.undelivered[k] = it
	b.maybePropose()
}

func (b *Broadcaster) handleDecision(d consensus.Decision) {
	if d.Instance < b.nextInst {
		return
	}
	b.pending[d.Instance] = d.Value
	for {
		val, ok := b.pending[b.nextInst]
		if !ok {
			return
		}
		delete(b.pending, b.nextInst)
		b.applyBatch(val)
		b.nextInst++
		b.proposed = false
		b.maybePropose()
	}
}

func (b *Broadcaster) applyBatch(val []byte) {
	decoded, err := msg.Decode(val)
	if err != nil {
		// A corrupt batch would break total order; in the crash-stop model
		// with our own codec this indicates a bug, so fail loudly.
		panic(fmt.Sprintf("abcast: undecodable batch: %v", err))
	}
	batch, ok := decoded.([]item)
	if !ok {
		panic(fmt.Sprintf("abcast: unexpected batch type %T", decoded))
	}
	for _, it := range batch {
		set := b.deliveredSet(it.Origin)
		if !set.Add(it.Seq) {
			continue
		}
		delete(b.undelivered, key{origin: it.Origin, seq: it.Seq})
		b.globalSeq++
		if b.deliver != nil {
			b.deliver(Delivery{Origin: it.Origin, Seq: it.Seq, GlobalSeq: b.globalSeq, Body: it.Body})
		}
	}
}

func (b *Broadcaster) maybePropose() {
	if b.proposed || len(b.undelivered) == 0 {
		return
	}
	batch := make([]item, 0, len(b.undelivered))
	for _, it := range b.undelivered {
		batch = append(batch, it)
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].Origin != batch[j].Origin {
			return batch[i].Origin < batch[j].Origin
		}
		return batch[i].Seq < batch[j].Seq
	})
	val, err := msg.Encode(batch)
	if err != nil {
		panic(fmt.Sprintf("abcast: encode batch: %v", err))
	}
	b.proposed = true
	b.cs.Propose(b.nextInst, val)
}

func (b *Broadcaster) deliveredSet(origin proc.ID) *seqset.Set {
	set, ok := b.delivered[origin]
	if !ok {
		set = seqset.New()
		b.delivered[origin] = set
	}
	return set
}
