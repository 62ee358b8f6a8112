package gbcast

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/msg/msgtest"
	"repro/internal/proc"
)

// TestCodecBinding pins the binary encoding of each wire type and checks
// seeded values against their gob round trip.
func TestCodecBinding(t *testing.T) {
	msgtest.Golden(t, gFast{Class: "update", Body: []byte{1, 2}}, "00 40 06 757064617465 02 02 0102")
	msgtest.Golden(t, gAck{ID: gid{Origin: "p1", Seq: 3}, Epoch: 2}, "00 41 02 7031 03 02")
	msgtest.Golden(t, gOrd{Class: "pc"}, "00 42 02 7063 00")
	msgtest.Golden(t, gClose{Epoch: 4, Unswept: []gid{{Origin: "p1", Seq: 1}, {Origin: "p2", Seq: 9}}},
		"00 43 04 02 02 7031 01 02 7032 09")

	rng := rand.New(rand.NewPCG(13, 14))
	seededGid := func() gid { return gid{Origin: proc.ID(msgtest.String(rng)), Seq: msgtest.Uint(rng)} }
	for i := 0; i < 200; i++ {
		msgtest.RoundTrip(t, gFast{Class: msgtest.String(rng), Body: msgtest.Body(rng)})
		msgtest.RoundTrip(t, gAck{ID: seededGid(), Epoch: msgtest.Uint(rng)})
		msgtest.RoundTrip(t, gOrd{Class: msgtest.String(rng), Body: msgtest.Body(rng)})
		c := gClose{Epoch: msgtest.Uint(rng)}
		for j := rng.IntN(6); j > 0; j-- {
			c.Unswept = append(c.Unswept, seededGid())
		}
		msgtest.RoundTrip(t, c)
	}
}

// dataFrame is the reliable channel's data frame for a fast-path message:
// wire{kindData, Seq 1, Proto "gb.data", Body: rbMsg{"p1", 1,
// gFast{"update", body}}}, written out byte by byte.
func dataFrame(body []byte) []byte {
	return slices.Concat(
		[]byte{0x00, 0x10, 0x01, 0x01, 0x00, 0x07}, []byte("gb.data"), // wire: kind, seq, ack, proto
		[]byte{0x30, 0x02}, []byte("p1"), []byte{0x01}, // rbMsg: origin, seq
		[]byte{0x40, 0x06}, []byte("update"), // gFast: class
		[]byte{0x02, byte(len(body))}, body, // body: []byte
		[]byte{0x00, 0x00}) // wire: inc, pinc
}

// TestHotPathAllocBudget: one fast-path data frame with a 64-byte body
// costs at most 8 allocations to encode and decode.
func TestHotPathAllocBudget(t *testing.T) {
	frame := dataFrame(bytes.Repeat([]byte{0xab}, 64))
	v, err := msg.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := msg.Encode(v); err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("data frame re-encodes to % x (%v), want % x", again, err, frame)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := msg.Encode(v); err != nil {
			t.Fatal(err)
		}
		if _, err := msg.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("data frame encode+decode costs %.1f allocs, budget 8", allocs)
	}
	t.Logf("data frame: %.1f allocs per encode+decode", allocs)
}
