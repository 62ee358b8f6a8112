package rbcast

import (
	"math/rand/v2"
	"testing"

	"repro/internal/msg/msgtest"
	"repro/internal/proc"
)

// TestCodecBinding pins the wire format's binary encoding and checks seeded
// messages against their gob round trip.
func TestCodecBinding(t *testing.T) {
	msgtest.Golden(t, rbMsg{Origin: "p1", Seq: 7, Body: []byte{1}}, "00 30 02 7031 07 02 01 01")
	rng := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 300; i++ {
		m := rbMsg{Origin: proc.ID(msgtest.String(rng)), Seq: msgtest.Uint(rng), Body: msgtest.Body(rng)}
		if rng.IntN(4) == 0 {
			m.Body = rbMsg{Origin: m.Origin, Seq: m.Seq, Body: m.Body}
		}
		msgtest.RoundTrip(t, m)
	}
}
