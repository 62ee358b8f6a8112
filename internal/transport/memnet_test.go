package transport

import (
	"math/rand"
	"testing"
	"time"
)

// TestDelayHeapOrder: the typed heap pops in delivery-time order and zeroes
// each slot it vacates, so the array pins no frame.
func TestDelayHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Now()
	var h delayHeap
	for i := 0; i < 500; i++ {
		h.push(delayedPkt{at: base.Add(time.Duration(rng.Intn(1000))), pkt: Packet{Data: []byte{1}}})
	}
	prev := base
	for len(h) > 0 {
		d := h.pop()
		if d.at.Before(prev) {
			t.Fatalf("popped %v after %v", d.at.Sub(base), prev.Sub(base))
		}
		prev = d.at
		if spare := h[len(h):cap(h)]; len(spare) > 0 && spare[0].pkt.Data != nil {
			t.Fatal("a popped slot still holds its frame")
		}
	}
}

// TestMemnetDelayedDeliveryAllocs: a delayed packet costs the network
// nothing beyond its frame copy, which the pool recycles. The delivery
// scheduler neither boxes the packet in its heap nor builds a fresh batch
// per loop turn.
func TestMemnetDelayedDeliveryAllocs(t *testing.T) {
	n := NewNetwork(WithDelay(20*time.Microsecond, 20*time.Microsecond))
	defer n.Shutdown()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(500, func() {
		a.Send("b", payload)
		PutFrame((<-b.Receive()).Data)
	})
	// One allocation: PutFrame's pool entry (see framebuf.go).
	if allocs > 1 {
		t.Fatalf("%.0f allocations per delayed packet, want at most 1", allocs)
	}
}
