package transport

import (
	"slices"
	"testing"
	"time"
)

// TestMemnetDelayHonouredWhenIdle: a sub-millisecond delay holds even when
// nothing else runs. An idle Go runtime fires its timers up to a millisecond
// late; the scheduler's futex wait does not.
func TestMemnetDelayHonouredWhenIdle(t *testing.T) {
	const delay = 100 * time.Microsecond
	n := NewNetwork(WithDelay(delay, delay))
	defer n.Shutdown()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	lat := make([]time.Duration, 0, 40)
	for i := 0; i < cap(lat); i++ {
		start := time.Now()
		a.Send("b", []byte{byte(i)})
		p, ok := recvOne(t, b, time.Second)
		if !ok {
			t.Fatalf("packet %d not delivered", i)
		}
		lat = append(lat, time.Since(start))
		PutFrame(p.Data)
	}
	slices.Sort(lat)
	if med := lat[len(lat)/2]; med < delay || med > 600*time.Microsecond {
		t.Fatalf("median one-way latency %v with a %v delay (all: %v)", med, delay, lat)
	}
}
