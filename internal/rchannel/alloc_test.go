package rchannel

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/transport"
)

// receiver is an endpoint that is never started: the test feeds it packets
// on its own goroutine, as the dispatch loop would.
func receiver(t *testing.T) (*Endpoint, *int) {
	t.Helper()
	net := transport.NewNetwork()
	t.Cleanup(net.Shutdown)
	e := New(net.Endpoint("b"))
	delivered := new(int)
	e.Handle("t", func(proc.ID, any) { *delivered++ })
	return e, delivered
}

// dataFrames encodes data frames from a with seqs 1..n and no body.
func dataFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n+1)
	for seq := 1; seq <= n; seq++ {
		f, err := msg.Encode(wire{Kind: kindData, Seq: uint64(seq), Proto: "t"})
		if err != nil {
			t.Fatal(err)
		}
		frames[seq] = f
	}
	return frames
}

// packet is frame in a pooled buffer, as a transport hands it over.
func packet(frame []byte) transport.Packet {
	buf := transport.GetFrame(len(frame))
	copy(buf, frame)
	return transport.Packet{From: "a", Data: buf}
}

// TestReceiveAllocs: receiving a data frame costs no allocation beyond
// transport.PutFrame's pool entry: the frame is decoded without boxing and
// the in-order batch reuses one slice. An in-order frame and a reordered
// pair (held out of order, then released by the gap's frame) are measured.
func TestReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled buffers allocate")
	}
	const runs = 200
	// PutFrame boxes a fresh slice header on every call (framebuf.go), the
	// one allocation per packet left.
	const putFrame = 1

	e, delivered := receiver(t)
	frames := dataFrames(t, runs+1)
	next := 1
	inOrder := testing.AllocsPerRun(runs, func() {
		e.handlePacket(packet(frames[next]))
		next++
	})
	if *delivered != next-1 {
		t.Fatalf("delivered %d of %d frames", *delivered, next-1)
	}
	if inOrder > putFrame {
		t.Errorf("%.0f allocations per in-order frame, want at most %d", inOrder, putFrame)
	}

	e, delivered = receiver(t)
	frames = dataFrames(t, 2*(runs+1))
	next = 1
	pair := testing.AllocsPerRun(runs, func() {
		e.handlePacket(packet(frames[next+1]))
		e.handlePacket(packet(frames[next]))
		next += 2
	})
	if *delivered != next-1 {
		t.Fatalf("delivered %d of %d frames", *delivered, next-1)
	}
	if pair > 2*putFrame {
		t.Errorf("%.0f allocations per reordered pair, want at most %d", pair, 2*putFrame)
	}
}

// TestWrongFrameTypeIsBad: a packet that decodes to another type, or that
// is a gob stream, is counted as bad and delivers nothing.
func TestWrongFrameTypeIsBad(t *testing.T) {
	e, delivered := receiver(t)
	other, err := msg.Encode([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	gobbed, err := msg.Encode("gob string")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][]byte{other, gobbed, {0x00, tagWire}} {
		e.handlePacket(packet(f))
	}
	if got := e.Stats().Bad; got != 3 || *delivered != 0 {
		t.Fatalf("Bad = %d, delivered %d; want 3 bad, 0 delivered", got, *delivered)
	}
}
