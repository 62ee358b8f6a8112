package service

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/transport"
)

// shardedCluster is an n-node group running S independent replicated groups
// (shards) on the same node set, every node's shards sharing ONE physical
// memnet endpoint through a GroupMux, with a sharded gateway per node.
type shardedCluster struct {
	network *transport.Network
	ids     []proc.ID
	muxes   []*transport.GroupMux
	nodes   [][]*core.Node           // [node][shard]
	reps    [][]*replication.Passive // [node][shard]
	sms     [][]*ledgerSM            // [node][shard]
	gws     []*Gateway
	addrs   map[proc.ID]string
	shards  int
}

// rotated returns ids rotated left by k — shard k's replica list, spreading
// initial primaries across the node set.
func rotated(ids []proc.ID, k int) []proc.ID {
	k = k % len(ids)
	out := make([]proc.ID, 0, len(ids))
	out = append(out, ids[k:]...)
	out = append(out, ids[:k]...)
	return out
}

func buildSharded(t *testing.T, n, shards int, tweakGW func(*GatewayConfig)) *shardedCluster {
	t.Helper()
	c := &shardedCluster{
		network: transport.NewNetwork(transport.WithDelay(0, 2*time.Millisecond), transport.WithSeed(11)),
		addrs:   make(map[proc.ID]string),
		shards:  shards,
	}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, proc.ID(fmt.Sprintf("s%d", i+1)))
	}
	for _, id := range c.ids {
		c.addrs[id] = string(id)
	}
	for _, id := range c.ids {
		mux := transport.NewGroupMux(c.network.Endpoint(id), shards)
		c.muxes = append(c.muxes, mux)
		var nodeStacks []*core.Node
		var nodeReps []*replication.Passive
		var nodeSMs []*ledgerSM
		for k := 0; k < shards; k++ {
			sm := newLedgerSM()
			rep := replication.NewPassive(sm, rotated(c.ids, k))
			node, err := core.NewNode(mux.Group(k), core.Config{
				Self: id, Universe: c.ids, Relation: replication.PassiveRelation(),
			}, rep.DeliverFunc())
			if err != nil {
				t.Fatal(err)
			}
			rep.Bind(node)
			t.Cleanup(rep.StopBatching)
			nodeStacks = append(nodeStacks, node)
			nodeReps = append(nodeReps, rep)
			nodeSMs = append(nodeSMs, sm)
		}
		c.nodes = append(c.nodes, nodeStacks)
		c.reps = append(c.reps, nodeReps)
		c.sms = append(c.sms, nodeSMs)
	}
	for _, stacks := range c.nodes {
		for _, nd := range stacks {
			nd.Start()
		}
	}
	for i, id := range c.ids {
		cfg := GatewayConfig{Self: id, Addrs: c.addrs}
		for k := 0; k < shards; k++ {
			cfg.Shards = append(cfg.Shards, Shard{
				Replica: c.reps[i][k],
				Read:    c.sms[i][k].read,
			})
		}
		if tweakGW != nil {
			tweakGW(&cfg)
		}
		gw := NewGateway(cfg)
		l, err := c.network.ListenStream(id)
		if err != nil {
			t.Fatal(err)
		}
		gw.Serve(l)
		c.gws = append(c.gws, gw)
	}
	t.Cleanup(func() {
		for _, gw := range c.gws {
			gw.Close()
		}
		for _, stacks := range c.nodes {
			for _, nd := range stacks {
				nd.Stop()
			}
		}
		for _, mux := range c.muxes {
			mux.Close()
		}
		c.network.Shutdown()
	})
	return c
}

func (c *shardedCluster) startFailover(t *testing.T, timeout time.Duration) {
	t.Helper()
	for _, nodeReps := range c.reps {
		for _, r := range nodeReps {
			r.StartFailover(timeout)
		}
	}
	t.Cleanup(func() {
		for _, nodeReps := range c.reps {
			for _, r := range nodeReps {
				r.StopFailover()
			}
		}
	})
}

func (c *shardedCluster) addrList() []string {
	out := make([]string, 0, len(c.ids))
	for _, id := range c.ids {
		out = append(out, c.addrs[id])
	}
	return out
}

func (c *shardedCluster) newClient(t *testing.T, tweak func(*ShardedClientConfig)) *ShardedClient {
	t.Helper()
	cfg := ShardedClientConfig{
		ClientConfig: ClientConfig{
			Addrs: c.addrList(),
			Dial: func(addr string) (transport.StreamConn, error) {
				return c.network.DialStream(proc.ID(addr))
			},
			RetryBackoff: 2 * time.Millisecond,
			OpTimeout:    30 * time.Second,
		},
		Shards: c.shards,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	cl, err := NewShardedClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// opForShard crafts an op string that ShardOf routes to the wanted shard.
func opForShard(shards, shard, i int) string {
	for n := 0; ; n++ {
		op := fmt.Sprintf("sh%d-op%d-%d", shard, i, n)
		if ShardOf([]byte(op), shards) == shard {
			return op
		}
	}
}

// shardPrimaryIdx returns which node currently fronts shard k, as seen by
// the first surviving node's replica.
func (c *shardedCluster) shardPrimary(node, k int) proc.ID {
	return c.reps[node][k].Primary()
}

// countAt sums op applications for shard k at node i.
func (c *shardedCluster) countAt(node, k int, op string) int {
	return c.sms[node][k].count(op)
}

// TestShardOfDeterministic: the shard map is stable and total.
func TestShardOfDeterministic(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		seen := make(map[int]int)
		for i := 0; i < 512; i++ {
			key := []byte(fmt.Sprintf("key-%d", i))
			s1 := ShardOf(key, shards)
			s2 := ShardOf(key, shards)
			if s1 != s2 {
				t.Fatalf("ShardOf not deterministic for %q", key)
			}
			if s1 < 0 || s1 >= shards {
				t.Fatalf("ShardOf out of range: %d of %d", s1, shards)
			}
			seen[s1]++
		}
		if shards > 1 && len(seen) != shards {
			t.Fatalf("%d shards: only %d populated over 512 keys", shards, len(seen))
		}
	}
}

// TestShardedWriteAndRead: writes spread across shards land exactly once on
// their shard's replicas (and ONLY that shard), and reads route identically.
func TestShardedWriteAndRead(t *testing.T) {
	const shards = 3
	c := buildSharded(t, 3, shards, nil)
	client := c.newClient(t, nil)

	ops := make(map[int][]string) // shard -> ops
	for k := 0; k < shards; k++ {
		for i := 0; i < 5; i++ {
			op := opForShard(shards, k, i)
			ops[k] = append(ops[k], op)
			res, err := client.Call([]byte(op))
			if err != nil {
				t.Fatalf("op %s: %v", op, err)
			}
			if string(res) != "ok:"+op {
				t.Fatalf("op %s: result %q", op, res)
			}
		}
	}

	// Reads (monotonic default) observe each write on its shard.
	for k := 0; k < shards; k++ {
		for _, op := range ops[k] {
			got, err := client.Read([]byte(op))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "1" {
				t.Fatalf("read %s: %q, want 1 application", op, got)
			}
		}
	}

	// Every replica of shard k converges on exactly one application of
	// shard k's ops and ZERO applications of other shards' ops.
	deadline := time.Now().Add(20 * time.Second)
	for node := 0; node < 3; node++ {
		for k := 0; k < shards; k++ {
			for _, op := range ops[k] {
				for c.countAt(node, k, op) != 1 {
					if time.Now().After(deadline) {
						t.Fatalf("node %d shard %d: op %s applied %d times",
							node, k, op, c.countAt(node, k, op))
					}
					time.Sleep(2 * time.Millisecond)
				}
				for j := 0; j < shards; j++ {
					if j != k && c.countAt(node, j, op) != 0 {
						t.Fatalf("op %s leaked into shard %d", op, j)
					}
				}
			}
		}
	}
}

// TestShardedPrimariesSpread: with rotated replica lists the initial
// primaries differ per shard while sharing the node set — the configuration
// that makes partial failover (one shard fails over, others undisturbed)
// possible at all.
func TestShardedPrimariesSpread(t *testing.T) {
	c := buildSharded(t, 3, 3, nil)
	want := []proc.ID{"s1", "s2", "s3"}
	for k := 0; k < 3; k++ {
		if got := c.shardPrimary(0, k); got != want[k] {
			t.Fatalf("shard %d primary %q, want %q", k, got, want[k])
		}
	}
}

// TestShardedFailoverIsolated is the acceptance test of per-shard
// correctness under partial failover: killing ONE shard's primary (a node
// that is a mere backup for the other shards) must
//
//   - keep that shard's sessions exactly-once across its failover (acked
//     writes applied exactly once at every survivor, retries deduplicated);
//   - keep Monotonic reads read-your-writes on that shard afterwards;
//   - leave the OTHER shards' primaries in place and their writes flowing
//     throughout.
func TestShardedFailoverIsolated(t *testing.T) {
	const shards = 3
	c := buildSharded(t, 3, shards, nil)
	c.startFailover(t, 60*time.Millisecond)
	client := c.newClient(t, func(cfg *ShardedClientConfig) {
		cfg.OpTimeout = 60 * time.Second
	})

	// Warm every shard: one acked write each, seeding monotonic tokens.
	warm := make([]string, shards)
	for k := 0; k < shards; k++ {
		warm[k] = opForShard(shards, k, 1000)
		if _, err := client.Call([]byte(warm[k])); err != nil {
			t.Fatalf("warm shard %d: %v", k, err)
		}
	}

	// Kill shard 0's primary (s1) — a backup for shards 1 and 2.
	c.network.Crash("s1")

	// The other shards keep committing while shard 0 has no primary yet.
	for k := 1; k < shards; k++ {
		op := opForShard(shards, k, 2000)
		if _, err := client.Call([]byte(op)); err != nil {
			t.Fatalf("shard %d write during shard-0 outage: %v", k, err)
		}
		// Their primaries never moved: s1 was only a backup there.
		if got := c.shardPrimary(1, k); got != c.ids[k] {
			t.Fatalf("shard %d primary moved to %q during shard-0 outage", k, got)
		}
	}

	// A shard-0 write issued during the outage succeeds after failover,
	// exactly once.
	op0 := opForShard(shards, 0, 3000)
	if _, err := client.Call([]byte(op0)); err != nil {
		t.Fatalf("shard 0 write across failover: %v", err)
	}

	// Read-your-writes on shard 0 via the default Monotonic level: both the
	// pre-crash warm write and the cross-failover write are visible.
	for _, op := range []string{warm[0], op0} {
		got, err := client.Read([]byte(op))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "1" {
			t.Fatalf("monotonic read of %q after failover: %q, want 1", op, got)
		}
	}

	// Shard 0 failed over away from s1; the survivors agree.
	deadline := time.Now().Add(20 * time.Second)
	for c.shardPrimary(1, 0) == "s1" || c.shardPrimary(2, 0) == "s1" {
		if time.Now().After(deadline) {
			t.Fatal("shard 0 never failed over")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Exactly-once everywhere that survived: no op applied twice on any
	// shard of any surviving node (s2=index 1, s3=index 2).
	for _, node := range []int{1, 2} {
		for k := 0; k < shards; k++ {
			if dups := c.sms[node][k].duplicatedOps(); len(dups) > 0 {
				t.Fatalf("node %d shard %d duplicated: %v", node, k, dups)
			}
		}
		for c.countAt(node, 0, op0) != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("node %d shard 0: op %s applied %d times", node, op0, c.countAt(node, 0, op0))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestShardedClientShardMismatch: a client configured with MORE shards
// than the gateways serve must fail fast with a diagnostic error — not
// reconnect forever against silent closes, and not serve the subset of
// shards that happen to exist (its whole shard MAP is wrong). Shard
// counts are deployment-wide configuration; a mismatch can never heal.
func TestShardedClientShardMismatch(t *testing.T) {
	c := buildSharded(t, 3, 2, nil) // gateways serve 2 shards
	client := c.newClient(t, func(cfg *ShardedClientConfig) {
		cfg.Shards = 4 // client believes 4
		cfg.OpTimeout = 10 * time.Second
	})

	// Every shard index fails fast — including ones the gateways DO serve:
	// routing by a 4-shard map against a 2-shard deployment would put keys
	// on the wrong groups even when the index is in range.
	for _, shard := range []int{1, 3} {
		op := opForShard(4, shard, 1)
		start := time.Now()
		_, err := client.Call([]byte(op))
		if err == nil {
			t.Fatalf("shard-%d write succeeded despite count mismatch", shard)
		}
		if !strings.Contains(err.Error(), "shard") {
			t.Fatalf("error %q does not name the shard mismatch", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("mismatch took %v to surface (should fail fast, not time out)", elapsed)
		}
	}
}

// TestShardedClientFewerShards: the OTHER direction of the mismatch — a
// client assuming FEWER shards than the deployment serves. Every shard
// index it uses exists at the gateways, so without the ShardCount
// handshake check it would silently route keys by the wrong map (hashing
// mod 2 instead of mod 3) and read back other groups' state; it must fail
// fast instead.
func TestShardedClientFewerShards(t *testing.T) {
	c := buildSharded(t, 3, 3, nil) // gateways serve 3 shards
	client := c.newClient(t, func(cfg *ShardedClientConfig) {
		cfg.Shards = 2 // client believes 2
		cfg.OpTimeout = 10 * time.Second
	})
	start := time.Now()
	_, err := client.Call([]byte("any-key"))
	if err == nil {
		t.Fatal("write with mismatched shard count succeeded")
	}
	if !strings.Contains(err.Error(), "assumes 2 shard(s)") {
		t.Fatalf("error %q does not name the count mismatch", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mismatch took %v to surface", elapsed)
	}
}

// TestShardedBatching: the sharded write path composes with group-commit
// batching — every shard runs its own batcher.
func TestShardedBatching(t *testing.T) {
	const shards = 2
	c := buildSharded(t, 3, shards, func(cfg *GatewayConfig) { cfg.Batching = true })
	client := c.newClient(t, nil)

	const per = 20
	errs := make(chan error, shards*per)
	for k := 0; k < shards; k++ {
		for i := 0; i < per; i++ {
			go func(k, i int) {
				_, err := client.Call([]byte(opForShard(shards, k, i)))
				errs <- err
			}(k, i)
		}
	}
	for i := 0; i < shards*per; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for node := 0; node < 3; node++ {
		for k := 0; k < shards; k++ {
			if dups := c.sms[node][k].duplicatedOps(); len(dups) > 0 {
				t.Fatalf("node %d shard %d duplicated: %v", node, k, dups)
			}
		}
	}
}
