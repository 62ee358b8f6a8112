package rchannel

import (
	"sync"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/transport"
)

// bareAcks is the number of packets the network carried beyond the data
// frames the endpoints sent or re-sent: with no datagrams and no stale
// frames in play, those are the bare acks.
func bareAcks(r *rig, dataFrames uint64) uint64 {
	sent := r.net.Stats().Sent - dataFrames
	for _, ep := range r.eps {
		sent -= ep.Stats().Retransmits
	}
	return sent
}

// TestAcksRideOnData: in two-way traffic every frame carries the cumulative
// ack for the other direction, so a ping-pong of n frames each way needs
// only the few bare acks the tick sends for the last frames, not one per
// frame.
func TestAcksRideOnData(t *testing.T) {
	const n = 200
	r := newRig(t, proc.IDs("a", "b"), nil, WithRTO(20*time.Millisecond))
	var (
		mu     sync.Mutex
		gotA   []int
		gotB   []int
		finish = make(chan struct{})
	)
	r.eps["b"].Handle("t", func(from proc.ID, body any) {
		p := body.(probe)
		mu.Lock()
		gotB = append(gotB, p.N)
		mu.Unlock()
		if err := r.eps["b"].Send("a", "t", p); err != nil {
			t.Error(err)
		}
	})
	r.eps["a"].Handle("t", func(from proc.ID, body any) {
		p := body.(probe)
		mu.Lock()
		gotA = append(gotA, p.N)
		mu.Unlock()
		if p.N+1 == n {
			close(finish)
			return
		}
		if err := r.eps["a"].Send("b", "t", probe{N: p.N + 1}); err != nil {
			t.Error(err)
		}
	})
	for _, ep := range r.eps {
		ep.Start()
	}
	if err := r.eps["a"].Send("b", "t", probe{N: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finish:
	case <-time.After(20 * time.Second):
		t.Fatal("ping-pong stalled")
	}
	waitFor(t, 5*time.Second, func() bool {
		return r.eps["a"].PendingTo("b") == 0 && r.eps["b"].PendingTo("a") == 0
	}, "final frames never acknowledged")

	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if gotA[i] != i || gotB[i] != i {
			t.Fatalf("frame %d delivered out of order: a got %d, b got %d", i, gotA[i], gotB[i])
		}
	}
	// A bare ack per frame would be 2n.
	if acks := bareAcks(r, 2*n); acks > n/10 {
		t.Fatalf("%d bare acks for %d frames each way, want at most %d", acks, n, n/10)
	}
}

// TestIdleFrameAckedByTick: a frame with no reverse traffic to carry its
// ack is acknowledged by the receiver's next tick (every RTO/2), well
// before the sender's RTO runs out, with exactly one bare ack.
func TestIdleFrameAckedByTick(t *testing.T) {
	const rto = 40 * time.Millisecond
	r := newRig(t, proc.IDs("a", "b"), nil, WithRTO(rto))
	delivered := make(chan struct{}, 1)
	r.eps["b"].Handle("t", func(proc.ID, any) { delivered <- struct{}{} })
	for _, ep := range r.eps {
		ep.Start()
	}
	if err := r.eps["a"].Send("b", "t", probe{N: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("frame never delivered")
	}
	time.Sleep(3 * rto)
	if p := r.eps["a"].PendingTo("b"); p != 0 {
		t.Fatalf("PendingTo = %d after 3×RTO, want 0", p)
	}
	if rt := r.eps["a"].Stats().Retransmits; rt != 0 {
		t.Fatalf("%d retransmits: the ack came later than the RTO", rt)
	}
	if acks := bareAcks(r, 1); acks != 1 {
		t.Fatalf("%d bare acks for one idle frame, want 1", acks)
	}
}

// TestDuplicateAckedAtOnce: a duplicate is the sender's retransmission
// asking for an ack, so the receiver answers it at once instead of waiting
// for its tick. The RTO here is long enough that no tick runs during the
// test; the retransmission is forced by hand.
func TestDuplicateAckedAtOnce(t *testing.T) {
	r := newRig(t, proc.IDs("a", "b"), nil, WithRTO(time.Minute))
	var delivered sync.WaitGroup
	delivered.Add(1)
	r.eps["b"].Handle("t", func(proc.ID, any) { delivered.Done() })
	for _, ep := range r.eps {
		ep.Start()
	}
	a := r.eps["a"]
	if err := a.Send("b", "t", probe{N: 1}); err != nil {
		t.Fatal(err)
	}
	delivered.Wait()
	if p := a.PendingTo("b"); p != 1 {
		t.Fatalf("PendingTo = %d before the retransmission, want 1 (no per-frame ack)", p)
	}
	a.mu.Lock()
	a.out["b"].unacked()[0].lastSent = time.Time{}
	a.mu.Unlock()
	a.retransmitPass()
	waitFor(t, 5*time.Second, func() bool { return a.PendingTo("b") == 0 },
		"duplicate was not acknowledged at once")
	if st := a.Stats(); st.Retransmits != 1 || st.BackoffResets != 1 {
		t.Fatalf("stats %+v, want one retransmission acked after it", st)
	}
}

// TestBacklogReleasesAckedPrefix: a cumulative ack drops exactly the frames
// at or below it from the seq-ordered backlog, whether it falls below the
// oldest frame, inside the backlog or beyond the newest; and a steady
// backlog reuses its array instead of allocating per frame.
func TestBacklogReleasesAckedPrefix(t *testing.T) {
	var o outState
	seqs := func() []uint64 {
		var s []uint64
		for _, p := range o.unacked() {
			s = append(s, p.seq)
		}
		return s
	}
	want := func(what string, lo, hi uint64) {
		t.Helper()
		got := seqs()
		if len(got) != int(hi-lo) {
			t.Fatalf("%s: backlog %v, want seqs [%d, %d)", what, got, lo, hi)
		}
		for i, s := range got {
			if s != lo+uint64(i) {
				t.Fatalf("%s: backlog %v, want seqs [%d, %d)", what, got, lo, hi)
			}
		}
	}
	for s := uint64(5); s < 10; s++ {
		o.push(pending{seq: s, attempts: int(s % 2)})
	}
	if r := o.ack(0); r != 0 {
		t.Fatalf("ack 0 released %d retransmitted frames", r)
	}
	o.ack(4)
	want("ack below the backlog", 5, 10)
	if r := o.ack(7); r != 2 { // 5 and 7 were retransmitted, 6 was not
		t.Fatalf("ack 7 counted %d retransmitted frames, want 2", r)
	}
	want("ack inside the backlog", 8, 10)
	o.ack(7)
	want("repeated ack", 8, 10)
	o.push(pending{seq: 10})
	want("push after a partial ack", 8, 11)
	o.ack(1 << 40)
	want("ack beyond the backlog", 0, 0)
	if o.head != 0 || len(o.q) != 0 {
		t.Fatalf("empty backlog keeps head %d, len %d", o.head, len(o.q))
	}

	// Steady state: a window of 8 in flight, acked 3 at a time.
	next := uint64(11)
	step := func() {
		for len(o.unacked()) < 8 {
			o.push(pending{seq: next})
			next++
		}
		o.ack(o.unacked()[2].seq)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	want("steady window", next-5, next)
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady backlog allocates %.1f times per ack", allocs)
	}
	want("steady window after the alloc run", next-5, next)
}

// TestSendEncodeFailureKeepsBacklog: a body the codec refuses leaves no
// trace: the sequence number is handed back and the backlog is unchanged,
// so the next frame takes that number and the backlog stays gap-free.
func TestSendEncodeFailureKeepsBacklog(t *testing.T) {
	r := newRig(t, proc.IDs("a", "b"), []transport.NetOption{transport.WithLoss(1.0), transport.WithSeed(1)},
		WithRTO(time.Minute))
	a := r.eps["a"]
	for i := 0; i < 3; i++ {
		if err := a.Send("b", "t", probe{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	type unencodable struct{ C chan int }
	if err := a.Send("b", "t", unencodable{}); err == nil {
		t.Fatal("an unregistered body encoded")
	}
	if err := a.Send("b", "t", probe{N: 3}); err != nil {
		t.Fatal(err)
	}
	outNext, unacked, _, _ := a.PeerState("b")
	if outNext != 4 || unacked != 4 {
		t.Fatalf("after a failed encode: outNext=%d unacked=%d, want 4 and 4", outNext, unacked)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, p := range a.out["b"].unacked() {
		if p.seq != uint64(i+1) {
			t.Fatalf("backlog seq %d at position %d, want %d", p.seq, i, i+1)
		}
	}
}
