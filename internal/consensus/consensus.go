// Package consensus implements the Chandra–Toueg rotating-coordinator
// consensus algorithm for the <>S failure detector class [10]
// (Figure 9, "Consensus").
//
// This component is the heart of the new architecture: because it tolerates
// an unbounded number of *false* suspicions and up to f < n/2 crashes
// without any reconfiguration, the atomic broadcast built on it does not
// depend on a membership service — which is what allows the paper to invert
// the traditional layering (Section 3.1.1).
//
// Algorithm recap (per instance). Processes advance through asynchronous
// rounds; round r is coordinated by members[r mod n].
//
//	Phase 1: every process sends its current estimate, timestamped with the
//	         round in which it was adopted, to the coordinator of the round.
//	Phase 2: the coordinator collects a majority of estimates, selects the
//	         one with the highest timestamp and proposes it to all.
//	Phase 3: a process waits for the proposal or for its failure detector to
//	         suspect the coordinator; it replies ack (adopting the proposal)
//	         or nack (moving to the next round).
//	Phase 4: if the coordinator gathers a majority of acks it decides and
//	         reliably broadcasts the decision, which every process forwards
//	         on first receipt.
//
// Safety: a decision requires a majority to have adopted (value, round);
// any later coordinator reads a majority of estimates, which intersects the
// adopting majority, so the locked value is the only one that can ever be
// proposed again. Liveness: eventually the failure detector stops suspecting
// some correct process (<>S accuracy); the first round it coordinates after
// that point decides.
//
// Implementation notes that differ from the textbook presentation:
//
//   - A process may be drawn into an instance by receiving messages for it
//     before its own upper layer proposed; it then participates with an
//     empty estimate (HasEst=false), which coordinators skip when choosing
//     a candidate. Validity is preserved: only proposed values are decided.
//   - Coordinator duties (phases 2 and 4) for round r are evaluated
//     whenever messages for round r arrive, even if the coordinator has
//     itself moved past r as a participant: a coordinator that lags or
//     races ahead must still unblock participants waiting in r.
//
// Multiple instances run independently and concurrently, identified by a
// uint64; the atomic broadcast layer runs the sequence 1, 2, 3, ...
package consensus

import (
	"sync"
	"time"

	"repro/internal/eventq"
	"repro/internal/fd"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
)

// Proto is the rchannel protocol name for consensus traffic.
const Proto = "cs"

// Wire messages.
type (
	mEstimate struct {
		Inst   uint64
		Round  uint64
		HasEst bool
		Est    []byte
		Ts     uint64
	}
	mPropose struct {
		Inst  uint64
		Round uint64
		Val   []byte
	}
	mAck struct {
		Inst  uint64
		Round uint64
	}
	mNack struct {
		Inst  uint64
		Round uint64
	}
	mDecide struct {
		Inst uint64
		Val  []byte
	}
	// mStart announces that an instance exists. Every process broadcasts it
	// once upon first entering an instance, so that a single proposer
	// suffices to draw the whole universe in (the coordinator needs a
	// majority of estimates to make progress).
	mStart struct {
		Inst uint64
	}
)

// Tags of the wire messages in the binary codec.
const (
	tagEstimate = 0x20 + iota
	tagPropose
	tagAck
	tagNack
	tagDecide
	tagStart
)

func init() {
	msg.Bind(tagEstimate, func(w *msg.Writer, m mEstimate) {
		w.Uint(m.Inst)
		w.Uint(m.Round)
		w.Bool(m.HasEst)
		w.Bytes(m.Est)
		w.Uint(m.Ts)
	}, func(r *msg.Reader) mEstimate {
		return mEstimate{Inst: r.Uint(), Round: r.Uint(), HasEst: r.Bool(), Est: r.Bytes(), Ts: r.Uint()}
	})
	msg.Bind(tagPropose, func(w *msg.Writer, m mPropose) {
		w.Uint(m.Inst)
		w.Uint(m.Round)
		w.Bytes(m.Val)
	}, func(r *msg.Reader) mPropose {
		return mPropose{Inst: r.Uint(), Round: r.Uint(), Val: r.Bytes()}
	})
	msg.Bind(tagAck, func(w *msg.Writer, m mAck) {
		w.Uint(m.Inst)
		w.Uint(m.Round)
	}, func(r *msg.Reader) mAck {
		return mAck{Inst: r.Uint(), Round: r.Uint()}
	})
	msg.Bind(tagNack, func(w *msg.Writer, m mNack) {
		w.Uint(m.Inst)
		w.Uint(m.Round)
	}, func(r *msg.Reader) mNack {
		return mNack{Inst: r.Uint(), Round: r.Uint()}
	})
	msg.Bind(tagDecide, func(w *msg.Writer, m mDecide) {
		w.Uint(m.Inst)
		w.Bytes(m.Val)
	}, func(r *msg.Reader) mDecide {
		return mDecide{Inst: r.Uint(), Val: r.Bytes()}
	})
	msg.Bind(tagStart, func(w *msg.Writer, m mStart) { w.Uint(m.Inst) },
		func(r *msg.Reader) mStart { return mStart{Inst: r.Uint()} })
}

// Decision is an agreed value for an instance.
type Decision struct {
	Instance uint64
	Value    []byte
}

// DecisionFunc consumes decisions, in no particular instance order. It runs
// on the service's event loop goroutine and must not block.
type DecisionFunc func(Decision)

// Option configures the Service.
type Option func(*Service)

// WithPollEvery sets how often waiting states are re-evaluated against the
// failure detector (a safety net for dropped suspicion events).
func WithPollEvery(d time.Duration) Option {
	return func(s *Service) { s.pollEvery = d }
}

// Service runs consensus instances for one process.
type Service struct {
	ep        *rchannel.Endpoint
	self      proc.ID
	members   []proc.ID
	others    []proc.ID
	quorum    int
	sub       *fd.Subscription
	onDecide  DecisionFunc
	pollEvery time.Duration

	events *eventq.Queue[event]

	// Event-loop-owned state (only the loop goroutine touches it).
	insts   map[uint64]*instance
	decided map[uint64]bool

	startOnce sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

type event struct {
	from    proc.ID
	netBody any      // network message or internal query (when non-nil)
	propose *mDecide // local proposal (Inst, Val); nil otherwise
	tick    bool
}

type roundState struct {
	estimates     map[proc.ID]mEstimate
	acks          map[proc.ID]struct{}
	proposal      *mPropose // buffered coordinator proposal (participant side)
	proposed      bool      // coordinator already proposed in this round
	proposalValue []byte    // the value this coordinator proposed
}

type instance struct {
	id        uint64
	round     uint64 // current participant round (0 = not started)
	waiting   bool   // participant is in phase 3
	announced bool   // mStart already broadcast
	hasEst    bool
	est       []byte
	ts        uint64
	rounds    map[uint64]*roundState
}

// New creates a consensus service over a fixed member universe. sub must be
// a failure detector subscription with the *short* timeout class (false
// suspicions are cheap here). onDecide receives every decision exactly once.
func New(ep *rchannel.Endpoint, members []proc.ID, sub *fd.Subscription, onDecide DecisionFunc, opts ...Option) *Service {
	s := &Service{
		ep:        ep,
		self:      ep.Self(),
		members:   append([]proc.ID(nil), members...),
		quorum:    proc.Majority(len(members)),
		sub:       sub,
		onDecide:  onDecide,
		pollEvery: 3 * time.Millisecond,
		events:    eventq.New[event](),
		insts:     make(map[uint64]*instance),
		decided:   make(map[uint64]bool),
		stop:      make(chan struct{}),
	}
	for _, m := range s.members {
		if m != s.self {
			s.others = append(s.others, m)
		}
	}
	for _, o := range opts {
		o(s)
	}
	ep.Handle(Proto, func(from proc.ID, body any) {
		s.events.Push(event{from: from, netBody: body})
	})
	return s
}

// Start launches the event loop.
func (s *Service) Start() {
	s.startOnce.Do(func() {
		s.done.Add(2)
		go s.loop()
		go s.tickLoop()
	})
}

// Stop terminates the event loop.
func (s *Service) Stop() {
	select {
	case <-s.stop:
		return
	default:
		close(s.stop)
	}
	s.done.Wait()
	s.events.Close()
}

// Propose submits this process's initial value for an instance. Proposing
// twice for the same instance keeps the first value. Propose never blocks.
func (s *Service) Propose(inst uint64, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	s.events.Push(event{propose: &mDecide{Inst: inst, Val: v}})
}

type queryDecided struct {
	inst  uint64
	reply chan bool
}

// Decided reports whether the instance has decided locally.
func (s *Service) Decided(inst uint64) bool {
	reply := make(chan bool, 1)
	s.events.Push(event{netBody: queryDecided{inst: inst, reply: reply}})
	select {
	case v := <-reply:
		return v
	case <-s.stop:
		return false
	}
}

func (s *Service) loop() {
	defer s.done.Done()
	for {
		ev, ok := s.events.TryPop()
		if !ok {
			select {
			case <-s.stop:
				return
			case <-s.events.Wait():
				continue
			}
		}
		s.handle(ev)
	}
}

func (s *Service) tickLoop() {
	defer s.done.Done()
	ticker := time.NewTicker(s.pollEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.events.Push(event{tick: true})
		}
	}
}

func (s *Service) handle(ev event) {
	switch {
	case ev.tick:
		s.pollSuspicions()
	case ev.propose != nil:
		s.handleLocalPropose(ev.propose.Inst, ev.propose.Val)
	case ev.netBody != nil:
		switch m := ev.netBody.(type) {
		case queryDecided:
			m.reply <- s.decided[m.inst]
		case mEstimate:
			s.handleEstimate(ev.from, m)
		case mPropose:
			s.handleProposal(m)
		case mAck:
			s.handleAck(ev.from, m)
		case mNack:
			// The coordinator's round failed; it has already moved on as a
			// participant, so a nack needs no action in this implementation.
		case mStart:
			if !s.decided[m.Inst] {
				if in := s.inst(m.Inst); in.round == 0 {
					s.enterRound(in, 1)
				}
			}
		case mDecide:
			s.decide(m.Inst, m.Val)
		}
	}
}

func (s *Service) coord(round uint64) proc.ID {
	return s.members[int(round)%len(s.members)]
}

func (s *Service) inst(id uint64) *instance {
	in, ok := s.insts[id]
	if !ok {
		in = &instance{id: id, rounds: make(map[uint64]*roundState)}
		s.insts[id] = in
	}
	return in
}

func (in *instance) roundState(r uint64) *roundState {
	rs, ok := in.rounds[r]
	if !ok {
		rs = &roundState{
			estimates: make(map[proc.ID]mEstimate),
			acks:      make(map[proc.ID]struct{}),
		}
		in.rounds[r] = rs
	}
	return rs
}

func (s *Service) handleLocalPropose(inst uint64, val []byte) {
	if s.decided[inst] {
		return
	}
	in := s.inst(inst)
	if !in.hasEst {
		in.hasEst = true
		in.est = val
		in.ts = 0
	}
	if in.round == 0 {
		s.enterRound(in, 1)
	} else {
		// We joined the instance without a value earlier; refresh the
		// coordinator of our current round with a value-carrying estimate.
		est := mEstimate{Inst: in.id, Round: in.round, HasEst: in.hasEst, Est: in.est, Ts: in.ts}
		_ = s.ep.Send(s.coord(in.round), Proto, est)
	}
}

// enterRound advances the instance to round r (phase 1).
func (s *Service) enterRound(in *instance, r uint64) {
	in.round = r
	in.waiting = true
	if !in.announced {
		in.announced = true
		_ = s.ep.SendAll(s.others, Proto, mStart{Inst: in.id})
	}
	est := mEstimate{Inst: in.id, Round: r, HasEst: in.hasEst, Est: in.est, Ts: in.ts}
	_ = s.ep.Send(s.coord(r), Proto, est)
	s.coordinatorCheck(in, r)
	s.participantCheck(in)
}

// coordinatorCheck runs phases 2 and 4 for round r if this process
// coordinates it, regardless of the participant's current round.
func (s *Service) coordinatorCheck(in *instance, r uint64) {
	if s.decided[in.id] || s.coord(r) != s.self {
		return
	}
	rs := in.roundState(r)
	if !rs.proposed && len(rs.estimates) >= s.quorum {
		var best *mEstimate
		for _, e := range rs.estimates {
			if !e.HasEst {
				continue
			}
			if best == nil || e.Ts > best.Ts {
				cp := e
				best = &cp
			}
		}
		if best != nil {
			rs.proposed = true
			rs.proposalValue = best.Est
			_ = s.ep.SendAll(s.members, Proto, mPropose{Inst: in.id, Round: r, Val: best.Est})
		}
	}
	if rs.proposed && len(rs.acks) >= s.quorum {
		s.decide(in.id, rs.proposalValue)
	}
}

// participantCheck runs phase 3 for the instance's current round.
func (s *Service) participantCheck(in *instance) {
	if s.decided[in.id] || !in.waiting || in.round == 0 {
		return
	}
	r := in.round
	rs := in.roundState(r)
	switch {
	case rs.proposal != nil:
		in.waiting = false
		in.hasEst = true
		in.est = rs.proposal.Val
		in.ts = r
		_ = s.ep.Send(s.coord(r), Proto, mAck{Inst: in.id, Round: r})
		s.enterRound(in, r+1)
	case s.sub != nil && s.sub.Suspected(s.coord(r)):
		in.waiting = false
		_ = s.ep.Send(s.coord(r), Proto, mNack{Inst: in.id, Round: r})
		s.enterRound(in, r+1)
	}
}

func (s *Service) handleEstimate(from proc.ID, m mEstimate) {
	if s.decided[m.Inst] {
		return
	}
	in := s.inst(m.Inst)
	in.roundState(m.Round).estimates[from] = m
	if in.round == 0 {
		s.enterRound(in, 1)
	}
	s.coordinatorCheck(in, m.Round)
}

func (s *Service) handleProposal(m mPropose) {
	if s.decided[m.Inst] {
		return
	}
	in := s.inst(m.Inst)
	rs := in.roundState(m.Round)
	if rs.proposal == nil {
		cp := m
		rs.proposal = &cp
	}
	if in.round == 0 {
		s.enterRound(in, 1)
		return
	}
	if m.Round == in.round {
		s.participantCheck(in)
	}
}

func (s *Service) handleAck(from proc.ID, m mAck) {
	if s.decided[m.Inst] {
		return
	}
	in := s.inst(m.Inst)
	in.roundState(m.Round).acks[from] = struct{}{}
	if in.round == 0 {
		s.enterRound(in, 1)
	}
	s.coordinatorCheck(in, m.Round)
}

// decide records and relays a decision (the R-broadcast of the algorithm)
// and emits it upward exactly once.
func (s *Service) decide(inst uint64, val []byte) {
	if s.decided[inst] {
		return
	}
	s.decided[inst] = true
	_ = s.ep.SendAll(s.others, Proto, mDecide{Inst: inst, Val: val})
	delete(s.insts, inst)
	if s.onDecide != nil {
		v := make([]byte, len(val))
		copy(v, val)
		s.onDecide(Decision{Instance: inst, Value: v})
	}
}

func (s *Service) pollSuspicions() {
	for _, in := range s.insts {
		s.participantCheck(in)
	}
}
