package gbcast

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/abcast"
	"repro/internal/proc"
	"repro/internal/rbcast"
	"repro/internal/rchannel"
	"repro/internal/transport"
)

// closeRecorder stands in for atomic broadcast: it records what the
// broadcaster a-broadcasts instead of ordering it.
type closeRecorder struct{ sent []any }

func (c *closeRecorder) Broadcast(body any) error {
	c.sent = append(c.sent, body)
	return nil
}

// twin is one Broadcaster driven directly from the test goroutine: its
// handlers are called in a chosen order, with no event loop running.
type twin struct {
	g    *Broadcaster
	ab   *closeRecorder
	seen []string
}

func newTwin(t *testing.T, self proc.ID, members []proc.ID) *twin {
	t.Helper()
	network := transport.NewNetwork()
	t.Cleanup(network.Shutdown)
	tw := &twin{ab: &closeRecorder{}}
	// The endpoint is never started: acks the twin sends sit undelivered.
	ep := rchannel.New(network.Endpoint(self))
	tw.g = New(ep, "gb", members, passiveRelation(), func(d Delivery) {
		tw.seen = append(tw.seen, d.Body.(testPayload).S)
	})
	tw.g.ab = tw.ab
	return tw
}

func (tw *twin) fast(origin proc.ID, seq uint64, s string) {
	tw.g.onFast(rbcast.Delivery{Origin: origin, Seq: seq, Body: gFast{Class: "update", Body: testPayload{S: s}}})
}

func (tw *twin) adeliver(origin proc.ID, body any) {
	tw.g.onAdeliver(abcast.Delivery{Origin: origin, Body: body})
}

// TestBoundaryStallKeepsStreamOrder pins the generic-broadcast boundary
// rule. A node that has a-delivered epoch 1's CLOSE majority but still
// lacks a swept body (X) must not let the next ordered message (o2) join
// epoch 1's batch, and must not drop the CLOSE(2) messages that close o2's
// boundary. Its delivery sequence has to equal that of a twin which got X
// before the stream.
func TestBoundaryStallKeepsStreamOrder(t *testing.T) {
	p0, p1, p2 := proc.ID("p0"), proc.ID("p1"), proc.ID("p2")
	members := []proc.ID{p0, p1, p2}
	x := gid{Origin: p1, Seq: 1} // acked by p1 in epoch 1
	y := gid{Origin: p2, Seq: 1} // acked by p1 and p2 in epoch 2
	stream := []struct {
		origin proc.ID
		body   any
	}{
		{p1, gOrd{Class: "primary-change", Body: testPayload{S: "o1"}}},
		{p1, gClose{Epoch: 1, Unswept: []gid{x}}},
		{p2, gClose{Epoch: 1}},
		{p2, gOrd{Class: "primary-change", Body: testPayload{S: "o2"}}},
		{p1, gClose{Epoch: 2, Unswept: []gid{y}}},
		{p2, gClose{Epoch: 2, Unswept: []gid{y}}},
	}
	run := func(xFirst bool) *twin {
		tw := newTwin(t, p0, members)
		tw.fast(p2, 1, "Y")
		if xFirst {
			tw.fast(p1, 1, "X")
		}
		for _, m := range stream {
			tw.adeliver(m.origin, m.body)
		}
		if !xFirst {
			tw.fast(p1, 1, "X")
		}
		return tw
	}
	early, late := run(true), run(false)

	want := []string{"X", "o1", "Y", "o2"}
	if !reflect.DeepEqual(early.seen, want) {
		t.Fatalf("twin with X before the stream delivered %v, want %v", early.seen, want)
	}
	if !reflect.DeepEqual(late.seen, early.seen) {
		t.Fatalf("late X changed the delivery sequence: %v, twin delivered %v", late.seen, early.seen)
	}
	if late.g.epoch != 3 || late.g.closing || early.g.epoch != 3 || early.g.closing {
		t.Fatalf("epochs after both boundaries: late %d (closing=%v), twin %d (closing=%v), want 3, open",
			late.g.epoch, late.g.closing, early.g.epoch, early.g.closing)
	}
	// Both twins closed epochs 1 and 2 themselves, so neither leaves the
	// other members waiting on a CLOSE.
	for _, tw := range []*twin{early, late} {
		if got := fmt.Sprint(closeEpochs(tw.ab.sent)); got != "[1 2]" {
			t.Fatalf("twin a-broadcast CLOSE for epochs %s, want [1 2]", got)
		}
	}
}

func closeEpochs(sent []any) []uint64 {
	var out []uint64
	for _, b := range sent {
		if c, ok := b.(gClose); ok {
			out = append(out, c.Epoch)
		}
	}
	return out
}
