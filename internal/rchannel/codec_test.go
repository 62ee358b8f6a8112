package rchannel

import (
	"math/rand/v2"
	"testing"

	"repro/internal/msg/msgtest"
)

// TestCodecBinding pins the frame's binary encoding and checks seeded
// frames against their gob round trip.
func TestCodecBinding(t *testing.T) {
	msgtest.Golden(t, wire{Kind: kindData, Seq: 5, Ack: 4, Proto: "cs", PInc: 2}, "00 10 01 05 04 02 6373 00 00 02")
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 300; i++ {
		msgtest.RoundTrip(t, wire{Kind: byte(rng.IntN(4)), Seq: msgtest.Uint(rng), Ack: msgtest.Uint(rng),
			Proto: msgtest.String(rng), Body: msgtest.Body(rng), Inc: msgtest.Uint(rng), PInc: msgtest.Uint(rng)})
	}
}
