package transport

import (
	"testing"
	"time"

	"repro/internal/proc"
)

func recvOne(t *testing.T, tr Transport, timeout time.Duration) (Packet, bool) {
	t.Helper()
	select {
	case p, ok := <-tr.Receive():
		return p, ok
	case <-time.After(timeout):
		return Packet{}, false
	}
}

func TestMemnetDelivers(t *testing.T) {
	n := NewNetwork()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	defer n.Shutdown()
	a.Send("b", []byte("hi"))
	pkt, ok := recvOne(t, b, time.Second)
	if !ok || pkt.From != "a" || string(pkt.Data) != "hi" {
		t.Fatalf("got %+v ok=%v", pkt, ok)
	}
}

func TestMemnetPayloadCopied(t *testing.T) {
	n := NewNetwork()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	defer n.Shutdown()
	buf := []byte("aaaa")
	a.Send("b", buf)
	buf[0] = 'X' // sender reuses its buffer
	pkt, ok := recvOne(t, b, time.Second)
	if !ok || string(pkt.Data) != "aaaa" {
		t.Fatalf("aliasing: got %q", pkt.Data)
	}
}

func TestMemnetLossAndStats(t *testing.T) {
	n := NewNetwork(WithLoss(1.0), WithSeed(7))
	a, b := n.Endpoint("a"), n.Endpoint("b")
	defer n.Shutdown()
	for i := 0; i < 10; i++ {
		a.Send("b", []byte("x"))
	}
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Fatal("packet survived 100% loss")
	}
	st := n.Stats()
	if st.Sent != 10 || st.Dropped != 10 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMemnetCrashAndRestart(t *testing.T) {
	n := NewNetwork()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	defer n.Shutdown()
	n.Crash("b")
	a.Send("b", []byte("lost"))
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Fatal("crashed process received a packet")
	}
	n.Restart("b")
	a.Send("b", []byte("alive"))
	if pkt, ok := recvOne(t, b, time.Second); !ok || string(pkt.Data) != "alive" {
		t.Fatal("restart did not restore delivery")
	}
}

func TestMemnetPartitionAndHeal(t *testing.T) {
	n := NewNetwork()
	a, b, c := n.Endpoint("a"), n.Endpoint("b"), n.Endpoint("c")
	defer n.Shutdown()
	n.Partition([]proc.ID{"a"}, []proc.ID{"b", "c"})
	a.Send("b", []byte("x"))
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Fatal("packet crossed partition")
	}
	b.Send("c", []byte("same-side"))
	if _, ok := recvOne(t, c, time.Second); !ok {
		t.Fatal("same-side packet lost")
	}
	n.Heal()
	a.Send("b", []byte("healed"))
	if _, ok := recvOne(t, b, time.Second); !ok {
		t.Fatal("heal did not restore connectivity")
	}
}

func TestMemnetCutLink(t *testing.T) {
	n := NewNetwork()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	defer n.Shutdown()
	n.CutLink("a", "b")
	a.Send("b", []byte("x"))
	b.Send("a", []byte("y"))
	if _, ok := recvOne(t, b, 50*time.Millisecond); ok {
		t.Fatal("cut link leaked a->b")
	}
	if _, ok := recvOne(t, a, 50*time.Millisecond); ok {
		t.Fatal("cut link leaked b->a")
	}
	n.HealLink("a", "b")
	a.Send("b", []byte("z"))
	if _, ok := recvOne(t, b, time.Second); !ok {
		t.Fatal("healed link did not deliver")
	}
}

func TestMemnetLinkDelayOverride(t *testing.T) {
	n := NewNetwork() // zero default delay
	a, b := n.Endpoint("a"), n.Endpoint("b")
	defer n.Shutdown()
	n.SetLinkDelay("a", "b", 60*time.Millisecond, 70*time.Millisecond)
	start := time.Now()
	a.Send("b", []byte("slow"))
	if _, ok := recvOne(t, b, time.Second); !ok {
		t.Fatal("lost")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("delay override ignored: %v", elapsed)
	}
}

func TestMemnetUnknownDestination(t *testing.T) {
	n := NewNetwork()
	a := n.Endpoint("a")
	defer n.Shutdown()
	a.Send("ghost", []byte("x")) // must not panic
	if st := n.Stats(); st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	ta, err := NewTCP("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCP("b", "127.0.0.1:0", map[proc.ID]string{"a": ta.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.Send("a", []byte("over tcp"))
	pkt, ok := recvOne(t, ta, 2*time.Second)
	if !ok || pkt.From != "b" || string(pkt.Data) != "over tcp" {
		t.Fatalf("got %+v ok=%v", pkt, ok)
	}
	// Unknown peer: silently dropped per the unreliable contract.
	tb.Send("ghost", []byte("x"))
}

// TestMemnetWaitYieldsToSoonerPacket: while the scheduler waits for a packet
// due late, a packet sent meanwhile that is due sooner still leaves on time.
func TestMemnetWaitYieldsToSoonerPacket(t *testing.T) {
	n := NewNetwork()
	defer n.Shutdown()
	a, b, c := n.Endpoint("a"), n.Endpoint("b"), n.Endpoint("c")
	n.SetLinkDelay("a", "b", 200*time.Millisecond, 200*time.Millisecond)
	n.SetLinkDelay("a", "c", 100*time.Microsecond, 100*time.Microsecond)
	a.Send("b", []byte("late"))
	time.Sleep(time.Millisecond) // the scheduler is now waiting for "late"
	start := time.Now()
	a.Send("c", []byte("soon"))
	p, ok := recvOne(t, c, time.Second)
	if !ok {
		t.Fatal("sooner packet not delivered")
	}
	PutFrame(p.Data)
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("sooner packet took %v behind a 200ms one", d)
	}
	p, ok = recvOne(t, b, time.Second)
	if !ok {
		t.Fatal("late packet not delivered")
	}
	PutFrame(p.Data)
}
