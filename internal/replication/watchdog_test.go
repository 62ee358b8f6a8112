package replication

import (
	"errors"
	"testing"
	"time"

	"repro/internal/proc"
)

// waitCond polls f until true or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !f() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWatchdogTripsFailsFastAndHealsOnDelivery(t *testing.T) {
	reps, _, _, network := buildPassive(t, 3)
	reps[0].StartWatchdog(WatchdogConfig{StallTimeout: 80 * time.Millisecond, CheckEvery: 10 * time.Millisecond})
	defer reps[0].StopWatchdog()

	if _, err := reps[0].Request([]byte("healthy")); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	// Sever the primary from its quorum; a write admitted now can never
	// deliver until heal.
	network.Partition([]proc.ID{"s1"}, []proc.ID{"s2", "s3"})
	doomed := make(chan error, 1)
	go func() {
		_, err := reps[0].RequestTimeout([]byte("doomed"), 10*time.Second)
		doomed <- err
	}()

	waitCond(t, 2*time.Second, "watchdog trip", reps[0].Degraded)
	if reps[0].DegradedTrips() == 0 {
		t.Fatal("trip counter did not move")
	}

	// New writes and barriers fail fast with the retryable typed error —
	// without waiting out any request timeout.
	start := time.Now()
	if _, err := reps[0].RequestTimeout([]byte("new"), 10*time.Second); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded write: err=%v", err)
	}
	if _, err := reps[0].RequestSession("c9", 1, 0, []byte("new"), 10*time.Second); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded sessioned write: err=%v", err)
	}
	if _, err := reps[0].ReadBarrier(10*time.Second, nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded barrier: err=%v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}

	// Heal: the stuck broadcast doubles as the probe — its delivery clears
	// the flag and resolves the doomed write successfully.
	network.Heal()
	waitCond(t, 5*time.Second, "degraded clear after heal", func() bool { return !reps[0].Degraded() })
	select {
	case err := <-doomed:
		if err != nil {
			t.Fatalf("doomed write after heal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("doomed write never resolved after heal")
	}
	if _, err := reps[0].Request([]byte("post-heal")); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
}

func TestWatchdogIdlePrimaryNeverTrips(t *testing.T) {
	reps, _, _, _ := buildPassive(t, 3)
	reps[0].StartWatchdog(WatchdogConfig{StallTimeout: 40 * time.Millisecond, CheckEvery: 5 * time.Millisecond})
	defer reps[0].StopWatchdog()
	// Idle far past the stall bound: the stall clock must not run with no
	// work pending, or the first write after a quiet period would bounce.
	time.Sleep(200 * time.Millisecond)
	if _, err := reps[0].Request([]byte("after-idle")); err != nil {
		t.Fatalf("write after idle period: %v", err)
	}
	if reps[0].Degraded() {
		t.Fatal("idle primary degraded")
	}
}

func TestWatchdogVoidsPendingBarrierGroup(t *testing.T) {
	reps, _, _, network := buildPassive(t, 3)
	reps[0].StartWatchdog(WatchdogConfig{StallTimeout: 80 * time.Millisecond, CheckEvery: 10 * time.Millisecond})
	defer reps[0].StopWatchdog()
	if _, err := reps[0].Request([]byte("warm")); err != nil {
		t.Fatal(err)
	}

	network.Partition([]proc.ID{"s1"}, []proc.ID{"s2", "s3"})
	// Reader 1's barrier broadcast gets stuck in flight; reader 2 joins the
	// pending (next) group, which the trip must void.
	r1 := make(chan error, 1)
	go func() {
		_, err := reps[0].ReadBarrier(3*time.Second, nil)
		r1 <- err
	}()
	waitCond(t, 2*time.Second, "barrier in flight", func() bool {
		reps[0].mu.Lock()
		defer reps[0].mu.Unlock()
		return reps[0].barrierBusy
	})
	r2 := make(chan error, 1)
	go func() {
		_, err := reps[0].ReadBarrier(30*time.Second, nil)
		r2 <- err
	}()

	select {
	case err := <-r2:
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("voided reader got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending barrier group not voided within the watchdog bound")
	}
	// Reader 1 resolves through its own bounded timeout (its broadcast is
	// in the network's hands).
	select {
	case err := <-r1:
		if err == nil {
			t.Fatal("in-flight barrier confirmed without quorum")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight barrier never resolved")
	}
	network.Heal()
}

// TestWatchdogHalfOpensWhenPendingEvaporates covers the stuck-open wedge:
// the watchdog trips, then the only pending write times out and deregisters
// its waiter. With nothing in flight there is no probe whose delivery could
// ever clear the flag, yet every fresh admission bounces — unless the
// watchdog half-opens. It must re-admit on its own, let the next write park
// as the new probe, re-trip while the stall persists, and finally deliver
// that probe at heal.
func TestWatchdogHalfOpensWhenPendingEvaporates(t *testing.T) {
	reps, _, _, network := buildPassive(t, 3)
	reps[0].StartWatchdog(WatchdogConfig{StallTimeout: 80 * time.Millisecond, CheckEvery: 10 * time.Millisecond})
	defer reps[0].StopWatchdog()
	if _, err := reps[0].Request([]byte("warm")); err != nil {
		t.Fatal(err)
	}

	network.Partition([]proc.ID{"s1"}, []proc.ID{"s2", "s3"})
	// A doomed write with a short timeout: it trips the watchdog, then its
	// waiter deregisters, leaving the degraded primary with zero pending.
	doomed := make(chan error, 1)
	go func() {
		_, err := reps[0].RequestTimeout([]byte("doomed"), 300*time.Millisecond)
		doomed <- err
	}()
	waitCond(t, 2*time.Second, "watchdog trip", reps[0].Degraded)
	if err := <-doomed; !errors.Is(err, ErrTimeout) {
		t.Fatalf("doomed write: err=%v, want timeout", err)
	}

	// No delivery happened (still partitioned), yet the flag must clear:
	// the half-open is the only path out.
	waitCond(t, 2*time.Second, "half-open re-admission", func() bool { return !reps[0].Degraded() })

	// The next write is admitted as the probe — parked, not bounced — and
	// the persisting stall re-trips around it.
	trips := reps[0].DegradedTrips()
	probe := make(chan error, 1)
	go func() {
		_, err := reps[0].RequestTimeout([]byte("probe"), 10*time.Second)
		probe <- err
	}()
	select {
	case err := <-probe:
		t.Fatalf("probe write resolved early: %v (want it parked as the new probe)", err)
	case <-time.After(50 * time.Millisecond):
	}
	waitCond(t, 2*time.Second, "re-trip on persisting stall", func() bool {
		return reps[0].DegradedTrips() > trips
	})

	// Heal: the parked probe delivers, succeeds, and clears the flag.
	network.Heal()
	select {
	case err := <-probe:
		if err != nil {
			t.Fatalf("probe write after heal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe write never resolved after heal")
	}
	waitCond(t, 5*time.Second, "degraded clear after heal", func() bool { return !reps[0].Degraded() })
}

func TestWatchdogBoundsPendingQueue(t *testing.T) {
	reps, _, _, network := buildPassive(t, 3)
	// Huge stall bound: only the MaxPending gate is under test.
	reps[0].StartWatchdog(WatchdogConfig{StallTimeout: time.Hour, CheckEvery: 10 * time.Millisecond, MaxPending: 3})
	defer reps[0].StopWatchdog()
	if _, err := reps[0].Request([]byte("warm")); err != nil {
		t.Fatal(err)
	}

	network.Partition([]proc.ID{"s1"}, []proc.ID{"s2", "s3"})
	for i := 0; i < 3; i++ {
		go func() {
			_, _ = reps[0].RequestTimeout([]byte("fill"), 5*time.Second)
		}()
	}
	waitCond(t, 2*time.Second, "pending fill", func() bool {
		reps[0].mu.Lock()
		defer reps[0].mu.Unlock()
		return reps[0].pendingLocked() >= 3
	})
	if _, err := reps[0].RequestTimeout([]byte("overflow"), 5*time.Second); !errors.Is(err, ErrDegraded) {
		t.Fatalf("overflow write: err=%v", err)
	}
	network.Heal()
}

// TestWatchdogCountsInFlightBatchEntries: MaxPending counts every entry of
// the in-flight batch, not the batch as one, so a full batch in flight
// already exhausts a bound of its size.
func TestWatchdogCountsInFlightBatchEntries(t *testing.T) {
	reps, _, _, network := buildPassive(t, 3)
	const batch = 4
	// The idle primary's fill window holds the first write until a full
	// batch is queued, so the fill writes flush together as one batch.
	reps[0].EnableBatching(BatchConfig{MaxOps: batch, MaxDelay: time.Second})
	reps[0].StartWatchdog(WatchdogConfig{StallTimeout: time.Hour, CheckEvery: 10 * time.Millisecond, MaxPending: batch})
	defer reps[0].StopWatchdog()

	network.Partition([]proc.ID{"s1"}, []proc.ID{"s2", "s3"})
	for i := 0; i < batch; i++ {
		go func() {
			_, _ = reps[0].RequestTimeout([]byte("fill"), 5*time.Second)
		}()
	}
	waitCond(t, 2*time.Second, "full batch in flight", func() bool {
		b := reps[0].batcher
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.flying) == batch
	})
	if _, err := reps[0].RequestTimeout([]byte("overflow"), 5*time.Second); !errors.Is(err, ErrDegraded) {
		t.Fatalf("overflow write: err=%v, want ErrDegraded", err)
	}
	network.Heal()
}
