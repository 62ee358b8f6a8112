package service

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// buildBatchedService is buildService with pipelined gateway dispatch, so
// one session's concurrent writes coalesce into the replicas' group-commit
// batches.
func buildBatchedService(t *testing.T, n int, tweakGW func(*GatewayConfig)) *svcCluster {
	t.Helper()
	return buildService(t, n, func(cfg *GatewayConfig) {
		cfg.Batching = true
		if tweakGW != nil {
			tweakGW(cfg)
		}
	})
}

// TestServiceBatchedPipelinedWrites drives concurrent writes through one
// session with the batched pipeline: every op must execute exactly once and
// the replica's stats must show real coalescing (fewer broadcasts than ops).
func TestServiceBatchedPipelinedWrites(t *testing.T) {
	c := buildBatchedService(t, 3, nil)
	client := c.newClient(t, func(cfg *ClientConfig) { cfg.MaxInflight = 32 })

	const ops = 60
	var wg sync.WaitGroup
	errs := make([]error, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Call([]byte(fmt.Sprintf("bop-%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.sms[2].applied() < ops {
		if time.Now().After(deadline) {
			t.Fatalf("backup applied %d of %d", c.sms[2].applied(), ops)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, sm := range c.sms {
		if dups := sm.duplicatedOps(); len(dups) > 0 {
			t.Fatalf("replica %d duplicated: %v", i, dups)
		}
	}
	st := c.reps[0].BatchStats()
	if st.Ops != ops {
		t.Fatalf("batcher carried %d ops, want %d", st.Ops, ops)
	}
	if st.Batches >= ops {
		t.Fatalf("no coalescing: %d batches for %d ops", st.Batches, ops)
	}
	t.Logf("coalescing: %d ops in %d batches (max %d)", st.Ops, st.Batches, st.MaxBatch)
}

// TestServiceBatchedFailoverExactlyOnce is the batched counterpart of the
// end-to-end failover guarantee: the primary is killed while batches are in
// flight, and afterwards every acknowledged op must have applied exactly
// once at every survivor, every unacknowledged op having been retried under
// its original (session, seq) until it applied exactly once too.
func TestServiceBatchedFailoverExactlyOnce(t *testing.T) {
	c := buildBatchedService(t, 3, nil)
	c.startFailover(t, 60*time.Millisecond)
	client := c.newClient(t, func(cfg *ClientConfig) {
		cfg.MaxInflight = 16
		cfg.OpTimeout = 60 * time.Second
	})

	const (
		workers    = 4
		opsPerWkr  = 25
		crashAfter = 10 // acked ops before the crash
	)

	var (
		mu    sync.Mutex
		acked = make(map[string]bool)
	)
	var ackedEarly sync.WaitGroup
	ackedEarly.Add(crashAfter)
	var early int

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWkr; i++ {
				op := fmt.Sprintf("bw%d-op%d", w, i)
				res, err := client.Call([]byte(op))
				if err != nil {
					t.Errorf("op %s: %v", op, err)
					return
				}
				if string(res) != "ok:"+op {
					t.Errorf("op %s: result %q", op, res)
					return
				}
				mu.Lock()
				acked[op] = true
				if early < crashAfter {
					early++
					ackedEarly.Done()
				}
				mu.Unlock()
			}
		}(w)
	}

	// Kill the primary once some writes are acknowledged: with 4 pipelined
	// workers the crash lands while a batch (the group-commit window) is in
	// flight, so both halves of the guarantee are exercised — acknowledged
	// entries must survive, in-flight entries must be retried, and neither
	// may double-apply.
	ackedEarly.Wait()
	c.network.Crash("s1")
	wg.Wait()

	total := workers * opsPerWkr
	mu.Lock()
	ackCount := len(acked)
	mu.Unlock()
	if ackCount != total {
		t.Fatalf("only %d of %d ops acknowledged", ackCount, total)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, i := range []int{1, 2} {
			if c.sms[i].applied() < total {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not converge: s2=%d s3=%d want %d",
				c.sms[1].applied(), c.sms[2].applied(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, i := range []int{1, 2} {
		if dups := c.sms[i].duplicatedOps(); len(dups) > 0 {
			t.Fatalf("replica s%d applied ops more than once: %v", i+1, dups)
		}
		for op := range acked {
			if n := c.sms[i].count(op); n != 1 {
				t.Fatalf("acknowledged op %s applied %d times at s%d", op, n, i+1)
			}
		}
	}
	if got := client.Primary(); got == "s1" || got == "" {
		t.Fatalf("client still believes primary is %q", got)
	}
}

// TestServiceBatchedBackpressure checks the batching dispatch still bounds
// per-session concurrency at MaxInflight.
func TestServiceBatchedBackpressure(t *testing.T) {
	const window = 4
	c := buildBatchedService(t, 3, func(cfg *GatewayConfig) { cfg.MaxInflight = window })
	client := c.newClient(t, func(cfg *ClientConfig) { cfg.MaxInflight = 64 })

	const ops = 80
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call([]byte(fmt.Sprintf("bbp-%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := c.gws[0].Stats().MaxInflight; got > window {
		t.Fatalf("observed %d concurrent writes, limit %d", got, window)
	}
	if c.gws[0].Stats().Writes == 0 {
		t.Fatal("no writes reached the primary gateway")
	}
}
