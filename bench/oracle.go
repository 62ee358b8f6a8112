package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Correctness oracles. Each workload's oracle is wired to the exit code: a
// run with any violation reports correct=false and exits non-zero.

// bitset is a grow-on-demand set of sequence numbers.
type bitset []uint64

// add inserts i and reports whether it was already present.
func (b *bitset) add(i uint64) (dup bool) {
	w := i >> 6
	for uint64(len(*b)) <= w {
		*b = append(*b, make([]uint64, len(*b)+64)...)
	}
	bit := uint64(1) << (i & 63)
	dup = (*b)[w]&bit != 0
	(*b)[w] |= bit
	return dup
}

func (b bitset) has(i uint64) bool {
	w := i >> 6
	return w < uint64(len(b)) && b[w]&(1<<(i&63)) != 0
}

// mix folds x into an order-dependent chain digest (FNV-1a style).
func mix(d, x uint64) uint64 {
	return (d ^ x) * 0x100000001b3
}

// oracleSM is the replicated state machine of the service workloads. It
// records every applied (client, seq) — so exactly-once and "no acked write
// missing" are checkable after the run — and folds them into a chain digest
// that depends on apply order, compared across replicas after quiesce. A
// read returns the client's applied-write count, which must cover every
// write the client had been acknowledged before it issued the read.
type oracleSM struct {
	mu      sync.Mutex
	seen    []bitset // per client
	digest  uint64
	applied uint64
	dups    uint64 // an update applied twice
	bad     uint64 // an update that carries no key

	counts [maxClients]atomic.Uint64 // applied writes per client (read path)

	// dropApply, when set, swallows the matching update: the drift guard
	// uses it to prove the oracle bites.
	dropApply func(opKey) bool
}

const maxClients = 8

func newOracleSM() *oracleSM {
	return &oracleSM{seen: make([]bitset, maxClients), digest: 0xcbf29ce484222325}
}

// Execute implements replication.PassiveStateMachine: the result echoes the
// operation's key, the update is the operation itself.
func (s *oracleSM) Execute(op []byte) (result, update []byte) {
	if len(op) < keyLen {
		return nil, op
	}
	return op[:keyLen], op
}

// ApplyUpdate implements replication.PassiveStateMachine.
func (s *oracleSM) ApplyUpdate(update []byte) {
	k, ok := keyAt(update)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok || k.client >= maxClients {
		s.bad++
		return
	}
	if s.dropApply != nil && s.dropApply(k) {
		return
	}
	if s.seen[k.client].add(k.seq) {
		s.dups++
		return
	}
	s.applied++
	s.digest = mix(s.digest, uint64(k.client)<<56^k.seq)
	s.counts[k.client].Add(1)
}

// read serves a read-only operation: [key of the read][applied count of the
// reading client].
func (s *oracleSM) read(op []byte) []byte {
	k, ok := keyAt(op)
	if !ok || k.client >= maxClients {
		return nil
	}
	out := make([]byte, keyLen+8)
	copy(out, op[:keyLen])
	binary.BigEndian.PutUint64(out[keyLen:], s.counts[k.client].Load())
	return out
}

// smState is a replica's oracle state captured after quiesce.
type smState struct {
	digest, applied, dups, bad uint64
}

func (s *oracleSM) state() smState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return smState{s.digest, s.applied, s.dups, s.bad}
}

func (s *oracleSM) has(k opKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[k.client].has(k.seq)
}

// checkReplicas runs the service oracle over the given (live) replicas:
// exactly-once, every acked write present everywhere, identical digests.
// It returns the violation count and a description of each kind found.
func checkReplicas(sms []*oracleSM, names []string, acked []opKey) (violations uint64, notes []string) {
	states := make([]smState, len(sms))
	for i, sm := range sms {
		st := sm.state()
		states[i] = st
		if st.dups > 0 {
			violations += st.dups
			notes = append(notes, fmt.Sprintf("%s applied %d update(s) twice", names[i], st.dups))
		}
		if st.bad > 0 {
			violations += st.bad
			notes = append(notes, fmt.Sprintf("%s applied %d keyless update(s)", names[i], st.bad))
		}
		missing := uint64(0)
		for _, k := range acked {
			if !sm.has(k) {
				missing++
			}
		}
		if missing > 0 {
			violations += missing
			notes = append(notes, fmt.Sprintf("%s misses %d acked write(s)", names[i], missing))
		}
	}
	for i := 1; i < len(states); i++ {
		if states[i].digest != states[0].digest || states[i].applied != states[0].applied {
			violations++
			notes = append(notes, fmt.Sprintf("%s and %s diverge: digest %x/%x applied %d/%d",
				names[0], names[i], states[0].digest, states[i].digest, states[0].applied, states[i].applied))
		}
	}
	return violations, notes
}

// gbOracle records the deliveries of one node of the gbcast_mix workload.
// Every message must be delivered exactly once at every node, and because
// the conflicting class conflicts with everything, each conflicting message
// must see the same SET of commuting messages before it at every node: the
// chain digest folds, at each conflicting delivery, the message's key and an
// order-insensitive hash of everything delivered so far.
type gbOracle struct {
	mu        sync.Mutex
	seen      []bitset
	delivered uint64
	dups      uint64
	bad       uint64
	setHash   uint64 // commutative: sum of per-message hashes
	chain     uint64
	conflicts uint64
}

func newGbOracle() *gbOracle {
	return &gbOracle{seen: make([]bitset, maxClients), chain: 0xcbf29ce484222325}
}

func (o *gbOracle) deliver(k opKey, ok, conflicting bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !ok || k.client >= maxClients {
		o.bad++
		return
	}
	if o.seen[k.client].add(k.seq) {
		o.dups++
		return
	}
	o.delivered++
	id := uint64(k.client)<<56 ^ k.seq
	if conflicting {
		o.conflicts++
		o.chain = mix(mix(o.chain, id), o.setHash)
	}
	o.setHash += mix(0x9e3779b97f4a7c15, id)
}

type gbState struct {
	delivered, dups, bad, chain, conflicts, setHash uint64
}

func (o *gbOracle) state() gbState {
	o.mu.Lock()
	defer o.mu.Unlock()
	return gbState{o.delivered, o.dups, o.bad, o.chain, o.conflicts, o.setHash}
}

// gbVerdict is the gbcast_mix oracle's finding.
type gbVerdict struct {
	violations uint64
	notes      []string
	// knownBug: the violation has the signature of the seed code's
	// generic-broadcast bug (README, "A bug the oracle found") and of nothing
	// else — no duplicate or foreign delivery anywhere, and either every node
	// delivered everything but a minority stands on another conflicting-class
	// order, or a minority stopped delivering while the majority finished.
	knownBug bool
}

// checkGbcast compares the nodes' delivery records against the number of
// messages broadcast.
func checkGbcast(oracles []*gbOracle, sent uint64) gbVerdict {
	var v gbVerdict
	states := make([]gbState, len(oracles))
	clean, short, apart := true, 0, 0
	for i, o := range oracles {
		st := o.state()
		states[i] = st
		if st.dups > 0 || st.bad > 0 {
			clean = false
			v.violations += st.dups + st.bad
			v.notes = append(v.notes, fmt.Sprintf("node %d: %d duplicate, %d keyless deliveries", i, st.dups, st.bad))
		}
		if st.delivered != sent {
			short++
			clean = clean && st.delivered < sent
			v.violations++
			v.notes = append(v.notes, fmt.Sprintf("node %d delivered %d of %d messages", i, st.delivered, sent))
		}
	}
	// The reference order is the one most nodes stand on.
	ref := states[0]
	if len(states) > 2 && states[1].sameOrder(states[2]) {
		ref = states[1]
	}
	for i, st := range states {
		if !st.sameOrder(ref) {
			apart++
			if st.delivered == sent {
				v.violations++
				v.notes = append(v.notes, fmt.Sprintf("node %d disagrees with the others on the conflicting-class order", i))
			}
		}
	}
	minority := (len(oracles) - 1) / 2
	v.knownBug = v.violations > 0 && clean && short <= minority && apart <= minority
	return v
}

func (a gbState) sameOrder(b gbState) bool {
	return a.chain == b.chain && a.conflicts == b.conflicts && a.setHash == b.setHash
}
