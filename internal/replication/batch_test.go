package replication

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// enableBatching sets the batch bounds at every replica (only the
// primary's batcher ever flushes).
func enableBatching(reps []*Passive, cfg BatchConfig) {
	for _, r := range reps {
		r.EnableBatching(cfg)
	}
}

// TestBatchCoalesces holds the batching window open long enough for a burst
// of concurrent sessions to provably coalesce into ONE g-broadcast.
func TestBatchCoalesces(t *testing.T) {
	reps, sms, _ := buildCountingPassive(t, 3)
	const burst = 8
	enableBatching(reps, BatchConfig{MaxOps: burst, MaxDelay: 250 * time.Millisecond})

	var wg sync.WaitGroup
	results := make([]string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := reps[0].RequestSession(fmt.Sprintf("c%d", i), 1, 0,
				[]byte(fmt.Sprintf("op-%d", i)), 10*time.Second)
			if err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
			results[i] = string(res)
		}(i)
	}
	wg.Wait()

	st := reps[0].BatchStats()
	if st.Batches != 1 || st.Ops != burst || st.MaxBatch != burst {
		t.Fatalf("burst did not coalesce: %+v", st)
	}
	seen := make(map[string]bool)
	for i, r := range results {
		if r == "" || seen[r] {
			t.Fatalf("result %d missing or duplicated: %q", i, r)
		}
		seen[r] = true
	}
	// Every replica applies all entries of the batch, in the same order.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, sm := range sms {
			if _, applies := sm.snapshot(); len(applies) != burst {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch not applied at every replica")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, first := sms[0].snapshot()
	for i := 1; i < 3; i++ {
		_, applies := sms[i].snapshot()
		for j := range first {
			if applies[j] != first[j] {
				t.Fatalf("replica s%d applied in a different order: %v vs %v", i+1, applies, first)
			}
		}
	}
	if applied, _, _ := reps[0].Counters(); applied != burst {
		t.Fatalf("applied counter %d, want %d", applied, burst)
	}
}

// TestBatchExactlyOnceRetry: a retry of an operation delivered in a batch is
// served from the replicated session table without re-execution.
func TestBatchExactlyOnceRetry(t *testing.T) {
	reps, sms, _ := buildCountingPassive(t, 3)
	enableBatching(reps, BatchConfig{})

	res, err := reps[0].RequestSession("rc", 1, 0, []byte("op"), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := reps[0].RequestSession("rc", 1, 0, []byte("op"), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(res2) != string(res) {
		t.Fatalf("retry got %q, original %q", res2, res)
	}
	if execs, applies := sms[0].snapshot(); execs != 1 || len(applies) != 1 {
		t.Fatalf("retry re-executed: execs=%d applies=%v", execs, applies)
	}
}

// TestBatchMixedSessioned: sessioned and unsessioned requests ride the same
// batch and both resolve with their own results.
func TestBatchMixedSessioned(t *testing.T) {
	reps, sms, _ := buildCountingPassive(t, 3)
	enableBatching(reps, BatchConfig{MaxOps: 2, MaxDelay: 250 * time.Millisecond})

	var wg sync.WaitGroup
	var sessRes, plainRes []byte
	var sessErr, plainErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		sessRes, sessErr = reps[0].RequestSession("mx", 1, 0, []byte("sessioned"), 10*time.Second)
	}()
	go func() {
		defer wg.Done()
		plainRes, plainErr = reps[0].RequestTimeout([]byte("plain"), 10*time.Second)
	}()
	wg.Wait()
	if sessErr != nil || plainErr != nil {
		t.Fatalf("errors: %v / %v", sessErr, plainErr)
	}
	if string(sessRes) == "" || string(plainRes) == "" || string(sessRes) == string(plainRes) {
		t.Fatalf("results: %q / %q", sessRes, plainRes)
	}
	if st := reps[0].BatchStats(); st.Batches != 1 || st.Ops != 2 {
		t.Fatalf("did not share a batch: %+v", st)
	}
	if _, applies := sms[0].snapshot(); len(applies) != 2 {
		t.Fatalf("applies: %v", applies)
	}
}

// TestBatchDemotionBeforeFlush: a primary change delivered while operations
// sit in the batching window fails them with ErrNotPrimary/ErrDemoted and
// never applies them; the retry at the new primary executes exactly once.
func TestBatchDemotionBeforeFlush(t *testing.T) {
	reps, sms, _ := buildCountingPassive(t, 3)
	enableBatching(reps, BatchConfig{MaxOps: 64, MaxDelay: 400 * time.Millisecond})

	errCh := make(chan error, 1)
	go func() {
		_, err := reps[0].RequestSession("dm", 1, 0, []byte("doomed"), 10*time.Second)
		errCh <- err
	}()
	// While the op waits for companions, s2 demotes s1. The change's
	// delivery (~ms) beats the 400ms window, so the flush either sees a
	// non-primary replica (ErrNotPrimary) or, if it raced ahead, its batch
	// is delivered stale (ErrDemoted). Both are retry signals.
	time.Sleep(20 * time.Millisecond)
	if err := reps[1].RequestPrimaryChange("s1"); err != nil {
		t.Fatal(err)
	}
	err := <-errCh
	if !errors.Is(err, ErrNotPrimary) && !errors.Is(err, ErrDemoted) {
		t.Fatalf("demoted batch resolved with %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for reps[1].Primary() != "s2" {
		if time.Now().After(deadline) {
			t.Fatal("no primary change at s2")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Retry under the original (session, seq) at the new primary.
	if _, err := reps[1].RequestSession("dm", 1, 0, []byte("doomed"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let any (wrong) duplicate apply
	for i, sm := range sms {
		_, applies := sm.snapshot()
		n := 0
		for _, a := range applies {
			if a == "doomed" {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("replica s%d applied the op %d times (%v)", i+1, n, applies)
		}
	}
}

// TestBatchMaxDelayIdleOnly: the fill delay is paid by the first op after
// an idle period only — a closed-loop client under steady load must not pay
// MaxDelay per operation (that would collapse throughput to 1/MaxDelay).
func TestBatchMaxDelayIdleOnly(t *testing.T) {
	reps, _, _ := buildCountingPassive(t, 3)
	const delay = 300 * time.Millisecond
	enableBatching(reps, BatchConfig{MaxDelay: delay})

	// First op of the idle window: pays up to MaxDelay.
	if _, err := reps[0].RequestSession("sl", 1, 0, []byte("warm"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Steady closed loop: each of these would pay ~MaxDelay (>=1.2s total)
	// if the window applied per batch instead of per idle period.
	start := time.Now()
	for seq := uint64(2); seq <= 5; seq++ {
		if _, err := reps[0].RequestSession("sl", seq, seq-1, []byte("steady"), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Fatalf("steady-load ops paid the fill delay: 4 ops took %v (MaxDelay %v)", elapsed, delay)
	}
}

// TestBatchStop: StopBatching shuts the write path down for good. A write
// held in the fill window is released with the retryable ErrTimeout, later
// writes fail the same way, and nothing is broadcast after the stop.
func TestBatchStop(t *testing.T) {
	reps, sms, _ := buildCountingPassive(t, 3)
	// An hour-long fill window holds the first write in the queue.
	reps[0].EnableBatching(BatchConfig{MaxDelay: time.Hour})
	queued := make(chan error, 1)
	go func() {
		_, err := reps[0].RequestSession("st", 1, 0, []byte("queued"), 10*time.Second)
		queued <- err
	}()
	waitCond(t, 2*time.Second, "write queued", func() bool {
		reps[0].mu.Lock()
		defer reps[0].mu.Unlock()
		return reps[0].pendingLocked() == 1
	})
	reps[0].StopBatching()
	if err := <-queued; !errors.Is(err, ErrTimeout) {
		t.Fatalf("queued write after stop: %v, want ErrTimeout", err)
	}
	reps[0].StopBatching() // idempotent

	// No other write path takes over: the retry and a fresh write fail
	// retryably instead of executing.
	if _, err := reps[0].RequestSession("st", 1, 0, []byte("retry"), 10*time.Second); !errors.Is(err, ErrTimeout) {
		t.Fatalf("sessioned write after stop: %v, want ErrTimeout", err)
	}
	if _, err := reps[0].Request([]byte("plain")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("write after stop: %v, want ErrTimeout", err)
	}
	time.Sleep(50 * time.Millisecond) // let any (wrong) broadcast deliver
	if st := reps[0].BatchStats(); st.Batches != 0 || st.Ops != 0 {
		t.Fatalf("stats after stop: %+v", st)
	}
	for i, sm := range sms {
		if execs, applies := sm.snapshot(); execs != 0 || len(applies) != 0 {
			t.Fatalf("replica s%d executed %d / applied %v after stop", i+1, execs, applies)
		}
	}
}
