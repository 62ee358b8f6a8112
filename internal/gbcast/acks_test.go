package gbcast

import (
	"fmt"
	"testing"

	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/transport"
)

// TestAckAllocs: in steady state, acknowledging a pending message until a
// majority delivers it allocates nothing; the ack table holds one map entry
// per message instead of a map of maps.
func TestAckAllocs(t *testing.T) {
	p0, p1, p2 := proc.ID("p0"), proc.ID("p1"), proc.ID("p2")
	network := transport.NewNetwork()
	t.Cleanup(network.Shutdown)
	g := New(rchannel.New(network.Endpoint(p0)), "gb", []proc.ID{p0, p1, p2}, passiveRelation(), nil)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		seq++
		id := gid{Origin: p1, Seq: seq}
		g.pending[id] = gFast{Class: "update"}
		g.onAck(p0, gAck{ID: id, Epoch: g.epoch})
		g.onAck(p2, gAck{ID: id, Epoch: g.epoch})
	})
	if g.statFast != seq {
		t.Fatalf("delivered %d of %d messages", g.statFast, seq)
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations per acked message, want 0", allocs)
	}
}

// TestAckEpochs: acks count only in their own epoch. An ack from a peer
// already in a later epoch waits for this process to get there, an ack of
// an epoch that is over is dropped, a non-member's ack is ignored, and a
// delivered message leaves nothing behind.
func TestAckEpochs(t *testing.T) {
	p0, p1, p2 := proc.ID("p0"), proc.ID("p1"), proc.ID("p2")
	tw := newTwin(t, p0, []proc.ID{p0, p1, p2})
	g := tw.g
	id := gid{Origin: p2, Seq: 1}

	g.addAck(id, 2, p1) // p1 is past the boundary of epoch 1 already
	g.addAck(id, 1, p0)
	g.addAck(id, 1, "outsider")
	if got := [2]int{g.ackCount(id, 1), g.ackCount(id, 2)}; got != [2]int{1, 1} {
		t.Fatalf("acks in epochs 1 and 2: %v, want [1 1]", got)
	}
	g.epoch = 2
	g.addAck(id, 1, p2) // epoch 1 is over
	g.addAck(id, 2, p0)
	if got := [2]int{g.ackCount(id, 1), g.ackCount(id, 2)}; got != [2]int{1, 2} {
		t.Fatalf("acks in epochs 1 and 2 after the boundary: %v, want [1 2]", got)
	}
	g.addAck(id, 3, p1)
	g.epoch = 3
	g.addAck(id, 4, p2) // reuses the record of epoch 2, which is over
	if got := [2]int{g.ackCount(id, 3), g.ackCount(id, 4)}; got != [2]int{1, 1} {
		t.Fatalf("acks in epochs 3 and 4: %v, want [1 1]", got)
	}

	tw.fast(p2, 1, "m") // p0's own ack in epoch 3 makes the majority
	g.onAck(p2, gAck{ID: id, Epoch: 3})
	if len(tw.seen) != 1 || len(g.acks) != 0 || len(g.acksLater) != 0 {
		t.Fatalf("after delivery: seen %v, %d records, %d side entries", tw.seen, len(g.acks), len(g.acksLater))
	}
}

// TestMemberLimit: a universe of MaxMembers works, the last member's bit
// included; one more member is refused at construction.
func TestMemberLimit(t *testing.T) {
	members := make([]proc.ID, MaxMembers+1)
	for i := range members {
		members[i] = proc.ID(fmt.Sprintf("m%02d", i))
	}
	tw := newTwin(t, members[0], members[:MaxMembers])
	id := gid{Origin: members[1], Seq: 1}
	for _, m := range members[MaxMembers-3:] {
		tw.g.addAck(id, 1, m)
	}
	if got := tw.g.ackCount(id, 1); got != 3 {
		t.Fatalf("%d acks counted, want 3 (the fourth is from a non-member)", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted %d members", len(members))
		}
	}()
	newTwin(t, members[0], members)
}
