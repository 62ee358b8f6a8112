package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gbcast"
	"repro/internal/proc"
	"repro/internal/transport"
)

// buildNodes wires n core nodes whose delivery callbacks come from mk.
func buildNodes(t *testing.T, n int, rel *gbcast.Relation, mk func(i int, id proc.ID) core.DeliverFunc, tweak func(*core.Config)) (*transport.Network, []*core.Node) {
	t.Helper()
	network := transport.NewNetwork(transport.WithDelay(0, 2*time.Millisecond), transport.WithSeed(21))
	ids := make([]proc.ID, n)
	for i := range ids {
		ids[i] = proc.ID(fmt.Sprintf("s%d", i+1)) // s1, s2, s3 as in Figure 8
	}
	var nodes []*core.Node
	for i, id := range ids {
		cfg := core.Config{Self: id, Universe: ids, Relation: rel}
		if tweak != nil {
			tweak(&cfg)
		}
		nd, err := core.NewNode(network.Endpoint(id), cfg, mk(i, id))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		network.Shutdown()
	})
	return network, nodes
}

// ---- active replication -------------------------------------------------

// counterSM is a deterministic state machine: a single int64 register.
type counterSM struct {
	mu sync.Mutex
	v  int64
}

func (c *counterSM) Apply(cmd []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v += int64(binary.BigEndian.Uint64(cmd))
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(c.v))
	return out
}

func (c *counterSM) value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

func TestActiveReplicationConverges(t *testing.T) {
	sms := make([]*counterSM, 3)
	reps := make([]*Active, 3)
	mk := func(i int, _ proc.ID) core.DeliverFunc {
		sms[i] = &counterSM{}
		reps[i] = NewActive(sms[i])
		return reps[i].DeliverFunc()
	}
	_, nodes := buildNodes(t, 3, nil, mk, nil)
	for i, r := range reps {
		r.Bind(nodes[i])
	}

	const perNode = 10
	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func(r *Active) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				op := make([]byte, 8)
				binary.BigEndian.PutUint64(op, 1)
				if _, err := r.Submit(op); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	want := int64(perNode * len(reps))
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, sm := range sms {
			if sm.value() != want {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas diverged: %d %d %d want %d",
				sms[0].value(), sms[1].value(), sms[2].value(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- passive replication / Figure 8 -------------------------------------

// regSM is a passive state machine: a register receiving blind writes.
type regSM struct {
	mu sync.Mutex
	v  []byte
}

func (r *regSM) Execute(op []byte) ([]byte, []byte) {
	return []byte("ok"), op // the update is the new value
}

func (r *regSM) ApplyUpdate(update []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.v = append([]byte(nil), update...)
}

func (r *regSM) value() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return string(r.v)
}

func buildPassive(t *testing.T, n int) ([]*Passive, []*regSM, []*core.Node, *transport.Network) {
	t.Helper()
	sms := make([]*regSM, n)
	reps := make([]*Passive, n)
	ids := make([]proc.ID, n)
	for i := range ids {
		ids[i] = proc.ID(fmt.Sprintf("s%d", i+1))
	}
	mk := func(i int, _ proc.ID) core.DeliverFunc {
		sms[i] = &regSM{}
		reps[i] = NewPassive(sms[i], ids)
		return reps[i].DeliverFunc()
	}
	network, nodes := buildNodes(t, n, PassiveRelation(), mk, nil)
	for i, r := range reps {
		r.Bind(nodes[i])
		t.Cleanup(r.StopBatching)
	}
	return reps, sms, nodes, network
}

func TestPassiveNormalOperation(t *testing.T) {
	reps, sms, _, _ := buildPassive(t, 3)
	if _, err := reps[1].Request([]byte("x")); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("backup accepted a request: %v", err)
	}
	res, err := reps[0].Request([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "ok" {
		t.Fatalf("result %q", res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sms[0].value() == "hello" && sms[1].value() == "hello" && sms[2].value() == "hello" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backups not updated: %q %q %q", sms[0].value(), sms[1].value(), sms[2].value())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFig8Scenario replays Figure 8: concurrently with an update from the
// primary s1, the backup s2 broadcasts primary-change(s1). Exactly one of
// the paper's two outcomes must occur, identically at every replica:
//
//	case 1: all replicas apply the update, then change the primary;
//	case 2: all replicas change the primary first and ignore the update
//	        (the client sees ErrDemoted and would reissue the request).
func TestFig8Scenario(t *testing.T) {
	for round := 0; round < 12; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			reps, sms, _, _ := buildPassive(t, 3)

			var (
				wg     sync.WaitGroup
				reqErr error
			)
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, reqErr = reps[0].Request([]byte("update-payload"))
			}()
			go func() {
				defer wg.Done()
				// Stagger randomly to hit both interleavings across rounds.
				time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
				_ = reps[1].RequestPrimaryChange("s1")
			}()
			wg.Wait()

			// Wait until every replica delivered the primary change.
			deadline := time.Now().Add(10 * time.Second)
			for {
				ok := true
				for _, r := range reps {
					if r.Epoch() < 1 {
						ok = false
					}
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("primary change not delivered everywhere")
				}
				time.Sleep(2 * time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond) // let the update settle too

			// All replicas agree on the new primary: s2.
			for _, r := range reps {
				if got := r.Primary(); got != "s2" {
					t.Fatalf("primary at %v is %s, want s2", r.Replicas(), got)
				}
			}
			// Outcome must be consistent across replicas AND with the
			// client's error.
			applied := sms[0].value() == "update-payload"
			for i, sm := range sms {
				if (sm.value() == "update-payload") != applied {
					t.Fatalf("replica %d state %q inconsistent with outcome applied=%v", i, sm.value(), applied)
				}
			}
			switch {
			case applied && reqErr != nil:
				t.Fatalf("update applied everywhere but client saw %v", reqErr)
			case !applied && !errors.Is(reqErr, ErrDemoted):
				t.Fatalf("update ignored everywhere but client saw %v", reqErr)
			}
			t.Logf("outcome: case %d (applied=%v)", map[bool]int{true: 1, false: 2}[applied], applied)
		})
	}
}

// TestPassiveFailover crashes the primary; a backup's failure detector
// triggers primary-change, and the new primary serves requests. The old
// primary is never excluded from the replica list (Figure 8: "a primary
// change message does not lead to the exclusion of the old primary").
func TestPassiveFailover(t *testing.T) {
	reps, sms, _, network := buildPassive(t, 3)
	for _, r := range reps {
		r.StartFailover(60 * time.Millisecond)
		defer r.StopFailover()
	}
	if _, err := reps[0].Request([]byte("before")); err != nil {
		t.Fatal(err)
	}
	network.Crash("s1")
	deadline := time.Now().Add(10 * time.Second)
	for reps[1].Primary() != "s2" {
		if time.Now().After(deadline) {
			t.Fatalf("no failover: primary still %s", reps[1].Primary())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !reps[1].Replicas().Contains("s1") {
		t.Fatal("old primary was excluded; a primary change must not exclude")
	}
	if _, err := reps[1].Request([]byte("after")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for sms[2].value() != "after" {
		if time.Now().After(deadline) {
			t.Fatalf("backup s3 state %q", sms[2].value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- sessioned requests (service gateway substrate) -----------------------

// countingSM returns a distinct result per execution and records every
// applied update, so re-execution and double-application are observable.
type countingSM struct {
	mu      sync.Mutex
	execs   int
	applies []string
}

func (c *countingSM) Execute(op []byte) ([]byte, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.execs++
	return []byte(fmt.Sprintf("res-%d", c.execs)), op
}

func (c *countingSM) ApplyUpdate(update []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applies = append(c.applies, string(update))
}

func (c *countingSM) snapshot() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.execs, append([]string(nil), c.applies...)
}

func buildCountingPassive(t *testing.T, n int) ([]*Passive, []*countingSM, *transport.Network) {
	t.Helper()
	sms := make([]*countingSM, n)
	reps := make([]*Passive, n)
	ids := make([]proc.ID, n)
	for i := range ids {
		ids[i] = proc.ID(fmt.Sprintf("s%d", i+1))
	}
	mk := func(i int, _ proc.ID) core.DeliverFunc {
		sms[i] = &countingSM{}
		reps[i] = NewPassive(sms[i], ids)
		return reps[i].DeliverFunc()
	}
	network, nodes := buildNodes(t, n, PassiveRelation(), mk, nil)
	for i, r := range reps {
		r.Bind(nodes[i])
		t.Cleanup(r.StopBatching)
	}
	return reps, sms, network
}

func TestRequestSessionExactlyOnce(t *testing.T) {
	reps, sms, _ := buildCountingPassive(t, 3)
	const timeout = 10 * time.Second

	res1, err := reps[0].RequestSession("c1", 1, 0, []byte("op1"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	// A retry of the same (session, seq) must return the original result
	// without executing again.
	res1b, err := reps[0].RequestSession("c1", 1, 0, []byte("op1"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(res1) != string(res1b) {
		t.Fatalf("retry returned %q, original %q", res1b, res1)
	}
	if execs, applies := sms[0].snapshot(); execs != 1 || len(applies) != 1 {
		t.Fatalf("retry re-executed: execs=%d applies=%v", execs, applies)
	}

	// Concurrent duplicates join the in-flight original.
	var wg sync.WaitGroup
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := reps[0].RequestSession("c1", 2, 1, []byte("op2"), timeout)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = string(res)
		}(i)
	}
	wg.Wait()
	if results[0] != results[1] {
		t.Fatalf("concurrent duplicates diverged: %q vs %q", results[0], results[1])
	}
	if execs, _ := sms[0].snapshot(); execs != 2 {
		t.Fatalf("concurrent duplicate executed twice: execs=%d", execs)
	}

	// seq 2 piggybacked ack=1, so seq 1 is pruned everywhere: a retry of an
	// acknowledged request is a client bug.
	if _, err := reps[0].RequestSession("c1", 1, 0, []byte("op1"), timeout); !errors.Is(err, ErrPruned) {
		t.Fatalf("retry of acked seq: %v", err)
	}
}

// TestRequestSessionFailoverDedup: the session table is replicated, so a new
// primary recognises a retry of an operation the old primary already got
// applied, returns the original result, and does not apply it twice.
func TestRequestSessionFailoverDedup(t *testing.T) {
	reps, sms, network := buildCountingPassive(t, 3)
	for _, r := range reps {
		r.StartFailover(60 * time.Millisecond)
		defer r.StopFailover()
	}
	const timeout = 10 * time.Second

	res, err := reps[0].RequestSession("c9", 1, 0, []byte("write"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the update to reach every replica before the crash.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, applies := sms[2].snapshot()
		if len(applies) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("update not replicated")
		}
		time.Sleep(2 * time.Millisecond)
	}

	network.Crash("s1")
	deadline = time.Now().Add(10 * time.Second)
	for reps[1].Primary() != "s2" {
		if time.Now().After(deadline) {
			t.Fatalf("no failover: primary still %s", reps[1].Primary())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The client (believing its ack was lost) retries at the new primary.
	res2, err := reps[1].RequestSession("c9", 1, 0, []byte("write"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if string(res2) != string(res) {
		t.Fatalf("new primary returned %q, original %q", res2, res)
	}
	if execs, applies := sms[1].snapshot(); execs != 0 || len(applies) != 1 {
		t.Fatalf("new primary re-executed: execs=%d applies=%v", execs, applies)
	}
	if dups := reps[1].Duplicates(); dups != 0 {
		// The retry was answered from the table without a second broadcast,
		// so no apply-time duplicate was even needed.
		t.Fatalf("unexpected apply-time duplicates: %d", dups)
	}
}

// ---- bank (Section 4.2) --------------------------------------------------

func buildBank(t *testing.T, n int, rel *gbcast.Relation) []*Bank {
	t.Helper()
	banks := make([]*Bank, n)
	mk := func(i int, _ proc.ID) core.DeliverFunc {
		banks[i] = NewBank()
		return banks[i].DeliverFunc()
	}
	_, nodes := buildNodes(t, n, rel, mk, nil)
	for i, b := range banks {
		b.Bind(nodes[i])
	}
	return banks
}

func TestBankConvergesAndNeverOverdraws(t *testing.T) {
	banks := buildBank(t, 3, BankRelation())
	accounts := []string{"alice", "bob"}
	rng := rand.New(rand.NewSource(42))

	var wg sync.WaitGroup
	const opsPerReplica = 40
	for _, b := range banks {
		wg.Add(1)
		go func(b *Bank) {
			defer wg.Done()
			for i := 0; i < opsPerReplica; i++ {
				acct := accounts[i%2]
				if i%5 == 4 {
					_ = b.Withdraw(acct, 30)
				} else {
					_ = b.Deposit(acct, 10)
				}
			}
		}(b)
	}
	wg.Wait()
	_ = rng

	totalOps := uint64(opsPerReplica * len(banks))
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for _, b := range banks {
			applied, rejected := b.Applied()
			if applied+rejected != totalOps {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			a0, r0 := banks[0].Applied()
			t.Fatalf("bank did not quiesce: %d applied %d rejected of %d", a0, r0, totalOps)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ref := banks[0].Fingerprint()
	for i, b := range banks[1:] {
		if b.Fingerprint() != ref {
			t.Fatalf("replica %d diverged", i+1)
		}
	}
	for _, acct := range accounts {
		if bal := banks[0].Balance(acct); bal < 0 {
			t.Fatalf("negative balance %d for %s", bal, acct)
		}
	}
}

// TestBankThriftiness: with the generic-broadcast relation, a deposit-only
// workload must never invoke atomic broadcast; with the all-ordered
// relation, every operation does.
func TestBankThriftiness(t *testing.T) {
	banks := buildBank(t, 3, BankRelation())
	for i := 0; i < 20; i++ {
		if err := banks[0].Deposit("acct", 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for banks[2].Balance("acct") != 20 {
		if time.Now().After(deadline) {
			t.Fatalf("balance %d", banks[2].Balance("acct"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := banks[0].node.BroadcastStats()
	if st.Boundaries != 0 || st.OrderedDelivered != 0 {
		t.Errorf("deposit-only workload used the ordered path: %+v", st)
	}
}

// TestClientFollowsPrimaryChanges: the Figure 8 client reissues requests
// after a failover and ends up at the new primary.
func TestClientFollowsPrimaryChanges(t *testing.T) {
	reps, sms, _, network := buildPassive(t, 3)
	for _, r := range reps {
		r.StartFailover(60 * time.Millisecond)
		defer r.StopFailover()
	}
	byName := map[string]*Passive{"s1": reps[0], "s2": reps[1], "s3": reps[2]}
	client := NewClient(byName, "s1", 5*time.Millisecond)

	if _, err := client.Request([]byte("one")); err != nil {
		t.Fatal(err)
	}
	network.Crash("s1")
	// The client still believes s1 is primary; the request must follow the
	// primary change and succeed at s2.
	res, err := client.Request([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "ok" {
		t.Fatalf("result %q", res)
	}
	if client.Primary() != "s2" {
		t.Fatalf("client believes primary is %s", client.Primary())
	}
	deadline := time.Now().Add(5 * time.Second)
	for sms[1].value() != "two" {
		if time.Now().After(deadline) {
			t.Fatalf("state %q", sms[1].value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientStartingAtBackup: a client pointed at a backup is redirected.
func TestClientStartingAtBackup(t *testing.T) {
	reps, _, _, _ := buildPassive(t, 3)
	byName := map[string]*Passive{"s1": reps[0], "s2": reps[1], "s3": reps[2]}
	client := NewClient(byName, "s3", 2*time.Millisecond)
	if _, err := client.Request([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if client.Primary() != "s1" {
		t.Fatalf("client landed on %s", client.Primary())
	}
}
