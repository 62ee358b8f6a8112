package chaostest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// clientStats collects one chaos client's acked ops and violations.
type clientStats struct {
	mu    sync.Mutex
	acked []string
	fails []string
}

func (s *clientStats) ack(op string) {
	s.mu.Lock()
	s.acked = append(s.acked, op)
	s.mu.Unlock()
}

func (s *clientStats) fail(format string, args ...any) {
	s.mu.Lock()
	if len(s.fails) < 20 {
		s.fails = append(s.fails, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

// runClient issues unique writes and interleaved reads at all three levels
// until stop closes, checking read-your-writes, exact counts and per-shard
// index monotonicity inline. Ops are paced (open loop): closed-loop clients
// drive the substrate to utilization 1, which on a slow machine turns every
// queue into standing latency and fails operations on delay alone.
func runClient(c *cluster, cl *service.ShardedClient, ci int, stop <-chan struct{}, st *clientStats) {
	pace := 2 * time.Millisecond
	if raceEnabled {
		pace = 50 * time.Millisecond
	}
	prev := make([]uint64, c.shards)
	for n := 1; ; n++ {
		select {
		case <-stop:
			return
		case <-time.After(pace):
		}
		op := opName(ci, n)
		res, err := cl.Call([]byte(op))
		if err != nil {
			if errors.Is(err, service.ErrClosed) {
				return
			}
			st.fail("write %s: %v", op, err)
			continue
		}
		if string(res) != "ok:"+op {
			st.fail("write %s: result %q", op, res)
		}
		st.ack(op)

		// Monotonic commit-index tokens: the per-shard vector never travels
		// backwards within a session.
		idx := cl.Indexes()
		for k := range idx {
			if idx[k] < prev[k] {
				st.fail("shard %d index token went backwards: %d -> %d", k, prev[k], idx[k])
			}
			prev[k] = idx[k]
		}

		// Interleaved reads. Every chaos op is unique, so its count is
		// exactly 1 once applied.
		switch n % 5 {
		case 0: // read-your-writes at the default Monotonic level
			got, err := cl.Read([]byte(op))
			if err != nil {
				if errors.Is(err, service.ErrClosed) {
					return
				}
				st.fail("monotonic read %s: %v", op, err)
			} else if string(got) != "1" {
				st.fail("monotonic read-your-writes violation: %s -> %q", op, got)
			}
		case 2: // linearizable: the acked write must be reflected
			got, err := cl.ReadAt([]byte(op), service.ReadLinearizable)
			if err != nil {
				if errors.Is(err, service.ErrClosed) {
					return
				}
				st.fail("linearizable read %s: %v", op, err)
			} else if string(got) != "1" {
				st.fail("linearizable read violation: %s -> %q", op, got)
			}
		case 4: // local: may be stale (0) but never duplicated (>1)
			got, err := cl.ReadAt([]byte(op), service.ReadLocal)
			if err != nil && !errors.Is(err, service.ErrClosed) {
				st.fail("local read %s: %v", op, err)
			} else if err == nil && string(got) != "0" && string(got) != "1" {
				st.fail("local read of unique op %s -> %q (duplicate application?)", op, got)
			}
		}
	}
}

// markerFor crafts an op that ShardOf routes to shard k.
func markerFor(shards, k, round int) string {
	for n := 0; ; n++ {
		op := fmt.Sprintf("marker-%d-%d-%d", round, k, n)
		if service.ShardOf([]byte(op), shards) == k {
			return op
		}
	}
}

func envInt(name string, def int64) int64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

// TestChaosRecovery is the acceptance test of the recovery subsystem: a
// seeded schedule of ≥ 20 kill/restart/rejoin cycles over a 4-shard memnet
// cluster — core crash/restarts (state preserved, healed by channel
// retransmission), full wipe/rejoins of the edge node (state transferred by
// snapshot + catch-up cursor), and gateway replacements (sessions
// re-attach) — under concurrent sharded clients reading at all three
// levels. Afterwards: zero exactly-once or read-level violations,
// byte-identical state digests at every replica including the rejoined
// follower, and a linearizable read answered by the rejoined replica
// reflecting every pre-rejoin acked write.
func TestChaosRecovery(t *testing.T) {
	seed := envInt("CHAOS_SEED", 7)
	cycles := int(envInt("CHAOS_CYCLES", 20))
	if testing.Short() {
		cycles = min(cycles, 6)
	}
	const shards = 4
	t.Logf("chaos: seed=%d cycles=%d shards=%d — reproduce with CHAOS_SEED=%d CHAOS_CYCLES=%d",
		seed, cycles, shards, seed, cycles)
	rng := rand.New(rand.NewSource(seed))
	c := buildCluster(t, shards, seed)

	// Concurrent sharded clients; the last one also dials the edge
	// follower's gateway, so reads keep exercising the catch-up replica.
	// Under the race detector the offered load is halved: on small CI
	// machines the detector's per-op cost turns full load into standing
	// queues (bufferbloat latency), which fails pulls and reads on latency
	// alone without exercising anything new.
	nClients := 3
	if raceEnabled {
		nClients = 2
	}
	stats := make([]*clientStats, nClients)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		stats[ci] = &clientStats{}
		cl := c.newShardedClient(c.addrList(ci == nClients-1), 30*time.Second, false)
		wg.Add(1)
		go func(ci int, cl *service.ShardedClient) {
			defer wg.Done()
			runClient(c, cl, ci, stop, stats[ci])
		}(ci, cl)
	}

	// The seeded fault schedule.
	wipes := 0
	for cycle := 0; cycle < cycles; cycle++ {
		switch pick := rng.Intn(10); {
		case pick < 4: // crash/restart a core (state preserved)
			i := rng.Intn(len(c.ids))
			d := time.Duration(40+rng.Intn(100)) * raceScale * time.Millisecond
			c.killRestartCore(i, d)
		case pick < 7: // wipe the edge node and rejoin it from nothing
			wipes++
			c.wipeEdge()
			time.Sleep(time.Duration(rng.Intn(60)) * raceScale * time.Millisecond)
			c.rejoinEdge(20 * time.Second)
		default: // replace a core's gateway mid-life
			c.bounceGateway(rng.Intn(len(c.ids)))
		}
		time.Sleep(time.Duration(30+rng.Intn(90)) * raceScale * time.Millisecond)
	}

	// Final forced wipe/rejoin with pre-rejoin markers: one acked write per
	// shard BEFORE the edge is destroyed, to be read back through the
	// rejoined replica afterwards.
	markers := make([]string, shards)
	mcl := c.newShardedClient(c.addrList(false), 30*time.Second, false)
	for k := 0; k < shards; k++ {
		markers[k] = markerFor(shards, k, cycles)
		if _, err := mcl.Call([]byte(markers[k])); err != nil {
			t.Fatalf("marker write shard %d: %v", k, err)
		}
	}
	wipes++
	c.wipeEdge()
	c.rejoinEdge(20 * time.Second)
	t.Logf("chaos: %d cycles done (%d edge wipe/rejoins, final incarnation %d)", cycles, wipes, c.edgeInc)

	// Stop traffic, then audit.
	close(stop)
	wg.Wait()
	c.checkGroupCommit()

	var acked []string
	for ci, st := range stats {
		st.mu.Lock()
		acked = append(acked, st.acked...)
		for _, f := range st.fails {
			t.Errorf("client %d: %s", ci, f)
		}
		st.mu.Unlock()
	}
	if len(acked) == 0 {
		t.Fatal("no op was ever acknowledged")
	}
	t.Logf("chaos: %d acked ops", len(acked))

	// The rejoined replica answers linearizable reads reflecting every
	// pre-rejoin acked write — through its own gateway (read-index barrier
	// at the follower), not by redirecting the client elsewhere.
	edgeCl := c.newShardedClient([]string{c.addrs[c.edgeID]}, 30*time.Second, true)
	before := c.edge.gw.Stats().Reads
	for k, op := range markers {
		got, err := edgeCl.ReadAt([]byte(op), service.ReadLinearizable)
		if err != nil {
			t.Fatalf("linearizable read of marker %q at rejoined replica: %v", op, err)
		}
		if string(got) != "1" {
			t.Errorf("shard %d: linearizable read at rejoined replica: marker %q -> %q, want 1", k, op, got)
		}
		if got, err := edgeCl.Read([]byte(op)); err != nil || string(got) != "1" {
			t.Errorf("shard %d: monotonic read at rejoined replica: marker %q -> %q (%v)", k, op, got, err)
		}
	}
	if after := c.edge.gw.Stats().Reads; after <= before {
		t.Errorf("rejoined replica's gateway served no reads (before %d, after %d)", before, after)
	}

	// Quiesce and compare: identical commit indexes, then byte-identical
	// state digests at every core and at the rejoined follower, and the
	// exactly-once audit over every acked op.
	targets := c.converge(30 * time.Second)
	t.Logf("chaos: converged commit indexes per shard: %v", targets)
	c.checkDigests()
	c.auditExactlyOnce(append(acked, markers...))
}

// TestFailoverLagReconverges watches a sharded failover purely through the
// telemetry registry: every replica exports gcs_replication_commit_index
// under its (node, shard) scope, lag is max-min over the live cores, and
// the test requires the lag to RISE while one core is crash-stopped (its
// gauge freezes while the survivors commit) and to RE-CONVERGE to zero —
// at every shard — once the core is healed and traffic stops. This is the
// observability acceptance check: a dashboard reading only the registry
// sees the outage and the recovery.
func TestFailoverLagReconverges(t *testing.T) {
	const shards = 2
	c := buildCluster(t, shards, 23)
	cl := c.newShardedClient(c.addrList(false), 30*time.Second, false)

	// Baseline traffic so every shard has a non-zero index.
	var acked []string
	for n := 1; n <= 20; n++ {
		op := opName(5, n)
		if _, err := cl.Call([]byte(op)); err != nil {
			t.Fatalf("write %s: %v", op, err)
		}
		acked = append(acked, op)
	}

	// Background open-loop writers keep committing through the outage.
	stop := make(chan struct{})
	st := &clientStats{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runClient(c, cl, 6, stop, st)
	}()

	// Crash r1 — initial primary of shard 0 — with state preserved, long
	// enough for failover to elect a new primary and commit past it. The
	// sampler reads lag ONLY through the registry.
	var maxLag [shards]uint64
	sample := func() {
		for k := 0; k < shards; k++ {
			if lag := c.registryLag(k); lag > maxLag[k] {
				maxLag[k] = lag
			}
		}
	}
	c.network.Crash(c.ids[0])
	outage := time.After(400 * raceScale * time.Millisecond)
sampling:
	for {
		select {
		case <-outage:
			break sampling
		case <-time.After(5 * raceScale * time.Millisecond):
			sample()
		}
	}
	c.network.Restart(c.ids[0])

	var rose bool
	for k, lag := range maxLag {
		t.Logf("shard %d: max commit-index lag observed through registry during outage: %d", k, lag)
		if lag > 0 {
			rose = true
		}
	}
	if !rose {
		t.Error("no shard's commit-index lag rose during the outage — the registry never saw it")
	}

	// Heal: stop traffic, require convergence through BOTH views (converge
	// asserts registry lag 0 per shard), then the usual state audit.
	close(stop)
	wg.Wait()
	st.mu.Lock()
	acked = append(acked, st.acked...)
	for _, f := range st.fails {
		t.Errorf("background client: %s", f)
	}
	st.mu.Unlock()
	targets := c.converge(30 * time.Second)
	t.Logf("converged per-shard commit indexes: %v", targets)
	for k := 0; k < shards; k++ {
		if lag := c.registryLag(k); lag != 0 {
			t.Errorf("shard %d: registry lag %d after convergence", k, lag)
		}
	}
	c.checkDigests()
	c.auditExactlyOnce(acked)
}

// TestCoreWipeRejoinAsFollower is the same-identity crash-recovery: a FULL
// member is destroyed (stack, state, channel seqs — everything but its ID)
// and rejoins as a read-serving follower under the old ID. This exercises
// the incarnation handshake against peers that still hold channel state
// about the previous life, and proves the rejoined replica reaches full
// read parity: its linearizable and monotonic reads reflect all pre-wipe
// acked writes and its state digest matches the survivors byte for byte.
func TestCoreWipeRejoinAsFollower(t *testing.T) {
	const shards = 2
	c := buildCluster(t, shards, 11)
	cl := c.newShardedClient(c.addrList(false), 30*time.Second, false)

	var acked []string
	for n := 1; n <= 30; n++ {
		op := opName(9, n)
		if _, err := cl.Call([]byte(op)); err != nil {
			t.Fatalf("write %s: %v", op, err)
		}
		acked = append(acked, op)
	}

	// Destroy r3 completely; the survivors (r1, r2) keep the quorum.
	c.wipeCore(2)

	// Writes keep flowing while r3 is gone (its shards fail over if it was
	// primary anywhere).
	for n := 31; n <= 40; n++ {
		op := opName(9, n)
		if _, err := cl.Call([]byte(op)); err != nil {
			t.Fatalf("write %s during outage: %v", op, err)
		}
		acked = append(acked, op)
	}

	// r3 rises again — same ID, fresh incarnation, zero state — as a
	// follower fed by snapshot + catch-up cursor from the survivors.
	c.rejoinCoreAsFollower(2, 1, 20*time.Second)

	// A client pinned to the rejoined node: linearizable AND monotonic
	// reads of pre-wipe and post-wipe acked writes all reflect the writes.
	pinned := c.newShardedClient([]string{c.addrs["r3"]}, 30*time.Second, true)
	for _, op := range []string{acked[0], acked[len(acked)-1]} {
		if got, err := pinned.ReadAt([]byte(op), service.ReadLinearizable); err != nil || string(got) != "1" {
			t.Fatalf("linearizable read %q at rejoined r3: %q, %v", op, got, err)
		}
		if got, err := pinned.Read([]byte(op)); err != nil || string(got) != "1" {
			t.Fatalf("monotonic read %q at rejoined r3: %q, %v", op, got, err)
		}
	}

	c.converge(20 * time.Second)
	c.checkDigests()
	c.auditExactlyOnce(acked)
}
