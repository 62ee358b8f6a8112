package chaostest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// Power-loss chaos: the durability acceptance tests. A durable cluster
// (file engines everywhere) is killed WHOLE — every core and the edge at
// once, engines closed without flushing — restarted from its data
// directories, and audited: every acked write survives and is readable at
// Linearizable, state digests are byte-identical, nothing applies twice.

// runPLClient hammers unique writes (with occasional reads) until stop
// closes, tolerating errors — mid-blackout EVERYTHING fails, and that is
// fine. What is never fine: a successful response with the wrong value,
// or a successful read observing an acked write as absent.
func runPLClient(c *cluster, cl *service.ShardedClient, ci int, stop <-chan struct{}, st *clientStats) {
	pace := 2 * time.Millisecond
	if raceEnabled {
		pace = 25 * time.Millisecond
	}
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
			continue // blackout: losing the UNACKED op is the contract
		}
		if string(res) != "ok:"+op {
			st.fail("write %s: result %q", op, res)
		}
		st.ack(op)
		if n%4 == 2 {
			got, err := cl.Read([]byte(op))
			if err == nil && string(got) != "1" {
				st.fail("monotonic read-your-writes violation on %s -> %q", op, got)
			}
		}
	}
}

// garbleWALTail appends 1–64 junk bytes to the newest WAL segment under
// dir — the torn tail of a record whose write was mid-flight when power
// died. It never rewrites earlier (fsynced) bytes, so no acked data is
// touched; open-time recovery must cut the junk and count a torn tail.
func garbleWALTail(t *testing.T, rng *rand.Rand, dir string) bool {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		return false
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 1+rng.Intn(64))
	rng.Read(junk)
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestPowerLossDurability is the acceptance test of the storage engine: a
// seeded schedule of whole-cluster power cuts over a durable 4-shard
// cluster under concurrent sharded-client load. Each cycle kills every
// core and the edge mid-load (unsynced buffers lost, sometimes with a
// torn WAL tail on top), restarts the world from the data directories,
// and requires the restart to replay locally, align over the sync wire,
// and serve linearizable reads of every previously acked write.
func TestPowerLossDurability(t *testing.T) {
	seed := envInt("CHAOS_SEED", 7)
	cycles := int(envInt("CHAOS_CYCLES", 3))
	if testing.Short() {
		cycles = min(cycles, 1)
	}
	const shards = 4
	t.Logf("powerloss: seed=%d cycles=%d shards=%d — reproduce with CHAOS_SEED=%d CHAOS_CYCLES=%d",
		seed, cycles, shards, seed, cycles)
	rng := rand.New(rand.NewSource(seed))
	c := buildDurableCluster(t, shards, seed)

	nClients := 3
	if raceEnabled {
		nClients = 2
	}
	loadFor := func() time.Duration {
		return time.Duration(200+rng.Intn(200)) * raceScale * time.Millisecond
	}

	var acked []string
	torn := 0
	var tornSeen uint64
	for cycle := 0; cycle < cycles; cycle++ {
		// Fresh sessions each life; op timeout short enough that calls
		// in flight at the blackout fail without stalling the harness.
		stats := make([]*clientStats, nClients)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for ci := 0; ci < nClients; ci++ {
			stats[ci] = &clientStats{}
			cl := c.newShardedClient(c.addrList(ci == nClients-1), raceScale*time.Second, false)
			wg.Add(1)
			go func(ci int, cl *service.ShardedClient) {
				defer wg.Done()
				defer cl.Close()
				runPLClient(c, cl, cycle*nClients+ci, stop, stats[ci])
			}(ci, cl)
		}
		time.Sleep(loadFor())

		// Before the first cut: the delivery path is fsyncing, and says so
		// through the registry (one sync per commit window — satellite
		// telemetry check; a fresh post-restart life may legitimately show
		// zero syncs until its first update delivery).
		if cycle == 0 {
			if v, ok := c.reg.Value("gcs_storage_fsyncs_total",
				telemetry.L("node", "r1"), telemetry.L("shard", "0")); !ok || v <= 0 {
				t.Errorf("gcs_storage_fsyncs_total not exported or zero under load (ok=%v v=%v)", ok, v)
			}
		}

		// The primaries that took this life's load wrote through group
		// commit; the next life replays from disk and takes no writes.
		c.checkGroupCommit()

		// SIGKILL the world mid-load.
		c.powerLoss()
		close(stop)
		wg.Wait()
		cycleAcked := 0
		for ci, st := range stats {
			st.mu.Lock()
			acked = append(acked, st.acked...)
			cycleAcked += len(st.acked)
			for _, f := range st.fails {
				t.Errorf("cycle %d client %d: %s", cycle, ci, f)
			}
			st.mu.Unlock()
		}
		if cycleAcked == 0 {
			t.Fatalf("cycle %d: no op was ever acknowledged before the power cut", cycle)
		}

		// Sometimes power died mid-write: tear one random core WAL's tail.
		if rng.Intn(2) == 0 {
			id := c.ids[rng.Intn(len(c.ids))]
			if garbleWALTail(t, rng, c.shardDir(id, rng.Intn(shards))) {
				torn++
			}
		}

		// The world rises from disk.
		c.restartFromDisk()
		replayedRecs, replayedSnaps := uint64(0), uint64(0)
		for _, n := range c.cores {
			for _, eng := range n.engs {
				tornSeen += eng.Stats().TornTails // this life's open-time recovery
			}
			for _, rs := range n.replays {
				replayedRecs += rs.Records
				if rs.SnapshotIndex > 0 {
					replayedSnaps++
				}
			}
		}
		if replayedRecs == 0 && replayedSnaps == 0 {
			t.Fatalf("cycle %d: restart replayed nothing from disk", cycle)
		}
		t.Logf("powerloss cycle %d: %d acked ops, restart replayed %d WAL records / %d snapshots across cores",
			cycle, cycleAcked, replayedRecs, replayedSnaps)
	}

	// Torn tails were cut and counted by open-time recovery (Kill can also
	// tear a frame naturally when the buffer flushed mid-record, so >=).
	if uint64(torn) > tornSeen {
		t.Errorf("garbled %d WAL tails but engines recovered only %d torn tails", torn, tornSeen)
	}

	// Every acked write is readable at Linearizable after the final
	// restart — sampled through a fresh client (the exactly-once audit
	// below covers ALL acked ops at every replica).
	if len(acked) == 0 {
		t.Fatal("no op was ever acknowledged")
	}
	readN := min(len(acked), 100)
	if raceEnabled {
		readN = min(len(acked), 30)
	}
	cl := c.newShardedClient(c.addrList(false), 30*time.Second, false)
	for i := 0; i < readN; i++ {
		op := acked[rng.Intn(len(acked))]
		got, err := cl.ReadAt([]byte(op), service.ReadLinearizable)
		if err != nil {
			t.Fatalf("linearizable read of acked %q after restart: %v", op, err)
		}
		if string(got) != "1" {
			t.Errorf("acked write %q lost across power cut: linearizable read -> %q", op, got)
		}
	}

	targets := c.converge(30 * time.Second)
	t.Logf("powerloss: %d acked ops total, %d torn tails recovered, converged per-shard indexes %v",
		len(acked), tornSeen, targets)
	c.checkDigests()
	c.auditExactlyOnce(acked)
}

// TestDurableEdgeRestartDeltaOnly is the single-node restart acceptance: a
// durable follower that lost power replays its OWN disk and pulls only
// the delta it missed over the sync wire — no snapshot transfer — proven
// by the replay vs sync counters on both sides of the boundary.
func TestDurableEdgeRestartDeltaOnly(t *testing.T) {
	const shards = 2
	c := buildDurableCluster(t, shards, 19)
	cl := c.newShardedClient(c.addrList(false), 30*time.Second, false)

	// Two write phases around a convergence point: the edge's FIRST catch-up
	// typically arrives as one snapshot (empty WAL), so the second phase is
	// what lands in its WAL as entry pulls — the tail the restart replays.
	var acked []string
	for n := 1; n <= 30; n++ {
		op := opName(3, n)
		if _, err := cl.Call([]byte(op)); err != nil {
			t.Fatalf("write %s: %v", op, err)
		}
		acked = append(acked, op)
	}
	c.converge(20 * time.Second)
	for n := 31; n <= 60; n++ {
		op := opName(3, n)
		if _, err := cl.Call([]byte(op)); err != nil {
			t.Fatalf("write %s: %v", op, err)
		}
		acked = append(acked, op)
	}
	c.converge(20 * time.Second) // edge caught up (and synced) before the cut
	for k := 0; k < shards; k++ {
		if st := c.edge.engs[k].Stats(); st.Appends == 0 {
			t.Fatalf("shard %d: edge WAL empty before the cut (%+v) — test premise broken", k, st)
		}
	}

	// Power cut at the edge alone; the cores keep serving.
	c.powerLossEdge()

	// The delta the edge will have to pull from a donor.
	for n := 61; n <= 80; n++ {
		op := opName(3, n)
		if _, err := cl.Call([]byte(op)); err != nil {
			t.Fatalf("write %s during edge outage: %v", op, err)
		}
		acked = append(acked, op)
	}

	c.rejoinEdge(20 * time.Second)
	for k := 0; k < shards; k++ {
		rs := c.edge.replays[k]
		if rs.Records == 0 && rs.SnapshotIndex == 0 {
			t.Errorf("shard %d: edge restart replayed nothing from its own disk (%+v)", k, rs)
		}
		st := c.edge.syncers[k].Stats()
		if st.Snapshots != 0 {
			t.Errorf("shard %d: edge restart fell back to a snapshot transfer (%+v)", k, st)
		}
		// Registry view of the same proof: bytes replayed locally, entries
		// (not snapshots) over the wire.
		scopeL := []telemetry.Label{telemetry.L("node", string(c.edgeID)), telemetry.L("shard", fmt.Sprint(k))}
		if v, ok := c.reg.Value("gcs_storage_replayed_records_total", scopeL...); !ok || v <= 0 {
			t.Errorf("shard %d: gcs_storage_replayed_records_total not exported or zero (ok=%v v=%v)", k, ok, v)
		}
		if v, ok := c.reg.Value("gcs_sync_snapshots_total", scopeL...); !ok || v != 0 {
			t.Errorf("shard %d: gcs_sync_snapshots_total = %v after primed restart, want 0", k, v)
		}
	}

	// Full read parity at the restarted follower: linearizable + monotonic
	// reads of pre-cut and during-outage acked writes.
	pinned := c.newShardedClient([]string{c.addrs[c.edgeID]}, 30*time.Second, true)
	for _, op := range []string{acked[0], acked[59], acked[len(acked)-1]} {
		if got, err := pinned.ReadAt([]byte(op), service.ReadLinearizable); err != nil || string(got) != "1" {
			t.Fatalf("linearizable read %q at restarted edge: %q, %v", op, got, err)
		}
		if got, err := pinned.Read([]byte(op)); err != nil || string(got) != "1" {
			t.Fatalf("monotonic read %q at restarted edge: %q, %v", op, got, err)
		}
	}

	c.converge(20 * time.Second)
	c.checkDigests()
	c.auditExactlyOnce(acked)
}
