package consensus

import (
	"math/rand/v2"
	"testing"

	"repro/internal/msg/msgtest"
)

// TestCodecBinding pins the binary encoding of each wire message and checks
// seeded messages against their gob round trip.
func TestCodecBinding(t *testing.T) {
	msgtest.Golden(t, mEstimate{Inst: 3, Round: 2, HasEst: true, Est: []byte{0xaa}, Ts: 1}, "00 20 03 02 01 01 aa 01")
	msgtest.Golden(t, mPropose{Inst: 3, Round: 2, Val: []byte{0xbb}}, "00 21 03 02 01 bb")
	msgtest.Golden(t, mAck{Inst: 3, Round: 2}, "00 22 03 02")
	msgtest.Golden(t, mNack{Inst: 3, Round: 2}, "00 23 03 02")
	msgtest.Golden(t, mDecide{Inst: 3, Val: []byte{0xcc}}, "00 24 03 01 cc")
	msgtest.Golden(t, mStart{Inst: 3}, "00 25 03")

	rng := rand.New(rand.NewPCG(7, 8))
	val := func() []byte {
		b, _ := msgtest.Body(rng).([]byte)
		return b
	}
	u := func() uint64 { return msgtest.Uint(rng) }
	for i := 0; i < 200; i++ {
		msgtest.RoundTrip(t, mEstimate{Inst: u(), Round: u(), HasEst: rng.IntN(2) == 1, Est: val(), Ts: u()})
		msgtest.RoundTrip(t, mPropose{Inst: u(), Round: u(), Val: val()})
		msgtest.RoundTrip(t, mAck{Inst: u(), Round: u()})
		msgtest.RoundTrip(t, mNack{Inst: u(), Round: u()})
		msgtest.RoundTrip(t, mDecide{Inst: u(), Val: val()})
		msgtest.RoundTrip(t, mStart{Inst: u()})
	}
}
