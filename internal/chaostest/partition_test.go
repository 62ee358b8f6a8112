package chaostest

// Partition tolerance scenarios: network splits (symmetric, one-way and
// flapping) injected mid-load, with the availability contract audited on
// both sides of each split. A quorumless primary must fail FAST — fresh
// writes bounce with a retryable DEGRADED answer within the watchdog bound
// instead of parking until the client's OpTimeout — while the majority side
// keeps serving writes after failover. After heal, every acked op must be
// applied exactly once, read-your-writes must hold across the partition
// boundary, and all replicas must re-converge to byte-identical digests.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/transport"
)

// waitFor polls cond until it holds, failing the test after d. Built on
// time.After only, so the sim/chaos wallclock ban stays intact.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(d)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timeout waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestPartitionQuorumlessPrimaryFailsFast is the deterministic
// isolated-primary scenario with clients on BOTH sides of the split.
//
// Client A stays attached to the gateway fronting the isolated primary
// (memnet client streams cross partitions, which is exactly the deployment
// shape the watchdog exists for: the replica tier is cut, the edge tier is
// not). Client B uses the majority side. During the split:
//
//   - a write admitted before the watchdog trips stays pending (its retries
//     join the in-flight op) and must NOT be acknowledged,
//   - a fresh write after the trip is answered DEGRADED within the
//     fail-fast bound — far below the gateway's RequestTimeout and the
//     client's OpTimeout — and counted apart from plain unavailability,
//   - every write on the majority side succeeds once failover elects a new
//     primary there, and linearizable read-your-writes holds mid-split.
//
// After heal both stuck writes complete, the degraded flag clears, client
// A reads its own writes back through the demoted primary, and the final
// audits require exactly-once application and byte-identical digests.
func TestPartitionQuorumlessPrimaryFailsFast(t *testing.T) {
	const shards = 1
	c := buildCluster(t, shards, 31)

	// Find shard 0's primary core.
	pi := -1
	waitFor(t, 10*time.Second, "initial primary election", func() bool {
		for i, n := range c.cores {
			if n.reps[0].Primary() == n.id {
				pi = i
				return true
			}
		}
		return false
	})
	primary := c.cores[pi]
	rep := primary.reps[0]
	var majority []proc.ID
	var majAddrs []string
	for _, id := range c.ids {
		if id != primary.id {
			majority = append(majority, id)
			majAddrs = append(majAddrs, c.addrs[id])
		}
	}
	majority = append(majority, c.edgeID) // the learner follows the quorum side
	t.Logf("partition: isolating primary %s from %v", primary.id, majority)

	clA := c.newShardedClient([]string{c.addrs[primary.id]}, 30*time.Second, true)
	clB := c.newShardedClient(majAddrs, 30*time.Second, false)

	const preA = "pre-split-A"
	if _, err := clA.Call([]byte(preA)); err != nil {
		t.Fatalf("pre-split write: %v", err)
	}

	c.network.Partition([]proc.ID{primary.id}, majority)

	// The doomed write: admitted before the trip, so its broadcast sticks in
	// flight and every retry joins that op instead of hitting the admission
	// gate. It must resolve only after heal — never during the split.
	const doomedOp = "doomed-A"
	doomed := make(chan error, 1)
	go func() {
		_, err := clA.Call([]byte(doomedOp))
		doomed <- err
	}()
	waitFor(t, 15*time.Second, "watchdog trip at the quorumless primary", rep.Degraded)
	if rep.DegradedTrips() == 0 {
		t.Fatal("replica reports Degraded() but zero trips")
	}

	// Fresh work after the trip must bounce with DEGRADED within the
	// fail-fast bound: ~watchdog stall + one round trip, which is far below
	// the 3s-scaled gateway RequestTimeout and the 30s client OpTimeout.
	// A separate session carries it: the doomed write's session worker is
	// (correctly) head-of-line blocked pipelining that session's writes in
	// FIFO order, so the instant-bounce contract is per fresh session.
	clA2 := c.newShardedClient([]string{c.addrs[primary.id]}, 30*time.Second, true)
	const freshOp = "fresh-A"
	fresh := make(chan error, 1)
	go func() {
		_, err := clA2.Call([]byte(freshOp))
		fresh <- err
	}()
	bound := time.After(1500 * raceScale * time.Millisecond)
	for clA2.Stats().DegradedAnswers == 0 {
		select {
		case <-bound:
			t.Fatalf("no DEGRADED answer within the fail-fast bound (client stats %+v)", clA2.Stats())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if got := primary.gw.Stats().Degraded; got == 0 {
		t.Error("isolated primary's gateway counted no DEGRADED answers")
	}

	// Availability on the majority side: every write succeeds mid-split
	// (shard 0 fails over off the isolated primary), and linearizable
	// read-your-writes holds there while the split is up.
	var ackedB []string
	for n := 1; n <= 15; n++ {
		op := opName(2, n)
		if _, err := clB.Call([]byte(op)); err != nil {
			t.Fatalf("majority-side write %s during partition: %v", op, err)
		}
		ackedB = append(ackedB, op)
	}
	last := ackedB[len(ackedB)-1]
	if got, err := clB.ReadAt([]byte(last), service.ReadLinearizable); err != nil || string(got) != "1" {
		t.Fatalf("linearizable read-your-writes on majority side mid-split: %q, %v", got, err)
	}

	// No write may have been acknowledged on the quorumless side.
	select {
	case err := <-doomed:
		t.Fatalf("quorumless side acknowledged the doomed write mid-split (err=%v)", err)
	case err := <-fresh:
		t.Fatalf("quorumless side acknowledged the fresh write mid-split (err=%v)", err)
	default:
	}

	c.network.Heal()
	for name, ch := range map[string]chan error{doomedOp: doomed, freshOp: fresh} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s after heal: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never completed after heal", name)
		}
	}
	waitFor(t, 10*time.Second, "degraded flag clearing after heal", func() bool {
		return !rep.Degraded()
	})

	// Read-your-writes across the heal, through the demoted primary's own
	// gateway (both clients are sticky there), each session reading back
	// its own writes at the Monotonic level.
	for cl, ops := range map[*service.ShardedClient][]string{
		clA:  {preA, doomedOp},
		clA2: {freshOp},
	} {
		for _, op := range ops {
			if got, err := cl.Read([]byte(op)); err != nil || string(got) != "1" {
				t.Errorf("read-your-writes across heal for %q: %q, %v", op, got, err)
			}
		}
	}

	acked := append([]string{preA, doomedOp, freshOp}, ackedB...)
	c.converge(30 * time.Second)
	c.checkDigests()
	c.auditExactlyOnce(acked)
}

// TestPartitionChaos drives a seeded schedule of network faults under
// concurrent client load: symmetric minority splits, one-way link cuts
// (a node that can hear but not speak, and vice versa) and flapping
// outbound blackholes driven by the fault layer's scheduler. Each cycle
// heals before the next blow. Afterwards: zero exactly-once or read-level
// violations among the acked ops, all replicas byte-identical.
func TestPartitionChaos(t *testing.T) {
	seed := envInt("CHAOS_SEED", 7)
	cycles := int(envInt("CHAOS_CYCLES", 12))
	if testing.Short() {
		cycles = min(cycles, 4)
	}
	const shards = 2
	t.Logf("partition chaos: seed=%d cycles=%d shards=%d — reproduce with CHAOS_SEED=%d CHAOS_CYCLES=%d",
		seed, cycles, shards, seed, cycles)
	rng := rand.New(rand.NewSource(seed))
	c := buildCluster(t, shards, seed)

	nClients := 2
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

	flapped := false
	for cycle := 0; cycle < cycles; cycle++ {
		hold := time.Duration(150+rng.Intn(250)) * raceScale * time.Millisecond
		switch rng.Intn(3) {
		case 0:
			// Symmetric minority split: one core against the rest. The
			// majority keeps quorum, so load keeps committing mid-split.
			i := rng.Intn(len(c.ids))
			var rest []proc.ID
			for _, id := range c.ids {
				if id != c.ids[i] {
					rest = append(rest, id)
				}
			}
			rest = append(rest, c.edgeID)
			c.network.Partition([]proc.ID{c.ids[i]}, rest)
			time.Sleep(hold)
			c.network.Heal()
		case 1:
			// One-way link cut: i's packets to j vanish while j's to i keep
			// flowing — asymmetric suspicion, ack starvation, retransmit
			// storms. The channel layer must ride it out and re-converge.
			i := rng.Intn(len(c.ids))
			j := (i + 1 + rng.Intn(len(c.ids)-1)) % len(c.ids)
			c.network.CutLinkOneWay(c.ids[i], c.ids[j])
			time.Sleep(hold)
			c.network.HealLinkOneWay(c.ids[i], c.ids[j]) // Heal lifts partitions, not link cuts
		case 2:
			// Flapping partition: one core's outbound goes mute/loud on a
			// fast period via the fault layer's scheduler — the cruellest
			// variant, since suspicion and recovery chase each other.
			flapped = true
			f := c.faultOf(c.ids[rng.Intn(len(c.ids))])
			period := time.Duration(40+rng.Intn(40)) * raceScale * time.Millisecond
			stopSched := f.RunSchedule([]transport.FaultStep{
				{After: period, Apply: func(ft *transport.FaultTransport) {
					ft.SetDefault(transport.FaultRule{Blackhole: true})
				}},
				{After: period, Apply: func(ft *transport.FaultTransport) {
					ft.ClearDefault()
				}},
			}, true)
			time.Sleep(2 * hold)
			stopSched()
			f.Clear()
		}
		// Let retransmission and failover mend things before the next blow.
		time.Sleep(time.Duration(100+rng.Intn(150)) * raceScale * time.Millisecond)
	}
	c.network.Heal()

	close(stop)
	wg.Wait()

	var acked []string
	failed := false
	for ci, st := range stats {
		st.mu.Lock()
		acked = append(acked, st.acked...)
		for _, f := range st.fails {
			t.Errorf("client %d: %s", ci, f)
			failed = true
		}
		st.mu.Unlock()
	}
	if failed {
		// A write that timed out is a stall that may still be on: show the
		// channels now, before convergence gets a chance to clear it.
		for k := 0; k < shards; k++ {
			c.dumpCoreChannels(k)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no op was ever acknowledged")
	}
	if flapped {
		var blackholed uint64
		for _, n := range c.cores {
			blackholed += n.fault.Stats().Blackholed
		}
		if blackholed == 0 {
			t.Error("flap cycles ran but the fault layer blackholed nothing")
		}
	}
	var trips uint64
	for _, n := range c.cores {
		for _, rep := range n.reps {
			trips += rep.DegradedTrips()
		}
	}
	t.Logf("partition chaos: %d acked ops, %d watchdog trips across the cluster", len(acked), trips)

	c.converge(30 * time.Second)
	c.checkDigests()
	c.auditExactlyOnce(acked)
	c.checkGroupCommit()
}
