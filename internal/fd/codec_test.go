package fd

import (
	"math/rand/v2"
	"testing"

	"repro/internal/msg/msgtest"
	"repro/internal/proc"
)

// TestCodecBinding pins the heartbeat's binary encoding and checks seeded
// heartbeats against their gob round trip.
func TestCodecBinding(t *testing.T) {
	msgtest.Golden(t, heartbeat{From: "p1"}, "00 11 02 7031")
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 100; i++ {
		msgtest.RoundTrip(t, heartbeat{From: proc.ID(msgtest.String(rng))})
	}
}
