package abcast

import (
	"math/rand/v2"
	"testing"

	"repro/internal/msg"
	"repro/internal/msg/msgtest"
	"repro/internal/proc"
)

// TestCodecBinding pins the binary encoding of an item and of a batch and
// checks seeded ones against their gob round trip.
func TestCodecBinding(t *testing.T) {
	msgtest.Golden(t, item{Origin: "p2", Seq: 1}, "00 38 02 7032 01 00")
	msgtest.Golden(t, []item{{Origin: "p1", Seq: 1}, {Origin: "p2", Seq: 2, Body: []byte{5}}},
		"00 39 02 02 7031 01 00 02 7032 02 02 01 05")
	rng := rand.New(rand.NewPCG(11, 12))
	seeded := func() item {
		return item{Origin: proc.ID(msgtest.String(rng)), Seq: msgtest.Uint(rng), Body: msgtest.Body(rng)}
	}
	for i := 0; i < 200; i++ {
		msgtest.RoundTrip(t, seeded())
		batch := make([]item, rng.IntN(10))
		for j := range batch {
			batch[j] = seeded()
		}
		msgtest.RoundTrip(t, batch)
	}
}

// TestHotPathAllocBudget: decoding a consensus-decided batch of 8 items with
// 64-byte bodies costs at most 5 allocations plus 2 per entry (the body's
// bytes and its interface box).
func TestHotPathAllocBudget(t *testing.T) {
	const entries = 8
	batch := make([]item, entries)
	for i := range batch {
		batch[i] = item{Origin: proc.ID([]string{"p0", "p1", "p2"}[i%3]), Seq: uint64(100 + i), Body: make([]byte, 64)}
	}
	frame, err := msg.Encode(batch)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := msg.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(5 + 2*entries); allocs > budget {
		t.Fatalf("decoding a batch of %d costs %.1f allocs, budget %.0f", entries, allocs, budget)
	}
	t.Logf("batch of %d: %.1f allocs per decode", entries, allocs)
}
