package gcs_test

// Benchmarks, one per experiment row of EXPERIMENTS.md. The full parameter
// sweeps (conflict ratio, failure-detection timeouts, view-change
// timelines) live in cmd/gcsbench; these testing.B benchmarks capture the
// per-operation costs on a fast simulated network so `go test -bench=.`
// reproduces the paper's qualitative comparisons directly.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gcs "repro"
	"repro/internal/core"
	"repro/internal/gbcast"
	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/trad"
	"repro/internal/transport"
)

func benchNetOpts() []gcs.NetOption {
	return []gcs.NetOption{gcs.WithDelay(50*time.Microsecond, 200*time.Microsecond), gcs.WithSeed(1)}
}

// benchCluster builds an n-node new-architecture cluster whose node 0
// signals deliveries of its own payloads on the returned channel.
func benchCluster(b *testing.B, n int, rel *gcs.Relation) (*gcs.Cluster, chan uint64) {
	b.Helper()
	delivered := make(chan uint64, 1024)
	opts := []gcs.ClusterOption{
		gcs.WithNetOptions(benchNetOpts()...),
		gcs.WithDeliver(func(self gcs.ID, d gcs.Delivery) {
			if self == "p0" && d.Origin == "p0" {
				if p, ok := d.Body.(sim.Payload); ok {
					delivered <- p.Seq
				}
			}
		}),
	}
	if rel != nil {
		opts = append(opts, gcs.WithRelation(rel))
	}
	c, err := gcs.NewCluster(n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Stop)
	return c, delivered
}

func awaitSeq(b *testing.B, ch chan uint64, want uint64) {
	b.Helper()
	for {
		select {
		case got := <-ch:
			if got == want {
				return
			}
		case <-time.After(30 * time.Second):
			b.Fatalf("timeout waiting for seq %d", want)
		}
	}
}

// allOrderedRelation is the degenerate "everything conflicts" relation:
// generic broadcast behaves exactly as atomic broadcast, with no epoch
// boundary machinery.
func allOrderedRelation() *gcs.Relation {
	return gcs.NewRelationBuilder().Conflict(gcs.ClassAbcast, gcs.ClassAbcast).Build()
}

// E4 — new architecture atomic broadcast (Figures 6/9), per-op latency.
func BenchmarkNewArchAbcast(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, delivered := benchCluster(b, n, allOrderedRelation())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(i + 1)
				if err := c.Nodes[0].Abcast(sim.NewPayload(seq, 64)); err != nil {
					b.Fatal(err)
				}
				awaitSeq(b, delivered, seq)
			}
		})
	}
}

// E4b — atomic broadcast through a *mixed* relation (the default rbcast/
// abcast table): each ordered delivery additionally runs the epoch boundary
// that orders it against potential fast traffic. This is the price of
// same-view delivery, paid only by ordered messages.
func BenchmarkNewArchAbcastMixedRelation(b *testing.B) {
	c, delivered := benchCluster(b, 3, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		if err := c.Nodes[0].Abcast(sim.NewPayload(seq, 64)); err != nil {
			b.Fatal(err)
		}
		awaitSeq(b, delivered, seq)
	}
}

// E9 (degenerate case) — generic broadcast fast path: reliable broadcast
// plus one ack round; no consensus, no sequencer.
func BenchmarkNewArchRbcastFast(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c, delivered := benchCluster(b, n, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(i + 1)
				if err := c.Nodes[0].Rbcast(sim.NewPayload(seq, 64)); err != nil {
					b.Fatal(err)
				}
				awaitSeq(b, delivered, seq)
			}
		})
	}
}

// tradBench builds a traditional cluster in the given mode.
func tradBench(b *testing.B, n int, mode trad.Mode) ([]*trad.Node, chan uint64) {
	b.Helper()
	network := transport.NewNetwork(
		transport.WithDelay(50*time.Microsecond, 200*time.Microsecond),
		transport.WithSeed(1))
	ids := make([]proc.ID, n)
	for i := range ids {
		ids[i] = proc.ID(fmt.Sprintf("p%d", i))
	}
	delivered := make(chan uint64, 1024)
	var nodes []*trad.Node
	for _, id := range ids {
		self := id
		nd, err := trad.NewNode(network.Endpoint(id), trad.Config{
			Self: id, Universe: ids, Mode: mode,
			SuspicionTimeout: 2 * time.Second, // no failures in this bench
		}, func(d trad.Delivery) {
			// Collect at p1, a plain member (p0 is the sequencer/initial
			// token holder; measuring there would hide the ordering hop).
			if self == "p1" && d.Origin == "p1" {
				if p, ok := d.Body.(sim.Payload); ok {
					delivered <- p.Seq
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		network.Shutdown()
	})
	return nodes, delivered
}

// E1 — traditional fixed-sequencer atomic broadcast (Isis/Phoenix).
func BenchmarkTradSequencer(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nodes, delivered := tradBench(b, n, trad.ModeSequencer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(i + 1)
				if err := nodes[1].Broadcast(sim.NewPayload(seq, 64)); err != nil {
					b.Fatal(err)
				}
				awaitSeq(b, delivered, seq)
			}
		})
	}
}

// E2 — traditional token-ring atomic broadcast (RMP/Totem).
func BenchmarkTradTokenRing(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nodes, delivered := tradBench(b, n, trad.ModeTokenRing)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := uint64(i + 1)
				if err := nodes[1].Broadcast(sim.NewPayload(seq, 64)); err != nil {
					b.Fatal(err)
				}
				awaitSeq(b, delivered, seq)
			}
		})
	}
}

// bankBench wires three bank replicas under the given conflict relation.
func bankBench(b *testing.B, rel *gbcast.Relation) ([]*replication.Bank, []*core.Node) {
	b.Helper()
	network := transport.NewNetwork(
		transport.WithDelay(50*time.Microsecond, 200*time.Microsecond),
		transport.WithSeed(1))
	ids := proc.IDs("s1", "s2", "s3")
	banks := make([]*replication.Bank, 3)
	var nodes []*core.Node
	for i, id := range ids {
		banks[i] = replication.NewBank()
		nd, err := core.NewNode(network.Endpoint(id), core.Config{
			Self: id, Universe: ids, Relation: rel,
		}, banks[i].DeliverFunc())
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	for i, bank := range banks {
		bank.Bind(nodes[i])
	}
	for _, nd := range nodes {
		nd.Start()
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		network.Shutdown()
	})
	return banks, nodes
}

func runBankDeposits(b *testing.B, rel *gbcast.Relation) {
	banks, _ := bankBench(b, rel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := banks[0].Deposit("acct", 1); err != nil {
			b.Fatal(err)
		}
		// Wait for local application (deposit visible at the submitter).
		for banks[0].Balance("acct") < int64(i+1) {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// E9 — Section 4.2 headline: identical deposit workload, generic broadcast
// relation (commutative deposits: fast path) ...
func BenchmarkBankDepositGeneric(b *testing.B) {
	runBankDeposits(b, replication.BankRelation())
}

// ... versus the traditional-equivalent relation where deposits conflict
// with everything and must pay for atomic broadcast.
func BenchmarkBankDepositAllOrdered(b *testing.B) {
	runBankDeposits(b, replication.BankAllOrderedRelation())
}

// E9 mixed workload: 10% withdrawals among deposits under the generic
// relation — the thrifty implementation invokes atomic broadcast only for
// the conflicting minority.
func BenchmarkBankMixed10pct(b *testing.B) {
	banks, _ := bankBench(b, replication.BankRelation())
	var deposited int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 == 9 {
			if err := banks[0].Withdraw("acct", 1); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := banks[0].Deposit("acct", 1); err != nil {
				b.Fatal(err)
			}
			deposited++
			for banks[0].Balance("acct") < deposited-int64(i/10)-1 {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
}

// E5 — Figure 8 primary change: one full failover round trip (the ordered
// class forces an epoch boundary through atomic broadcast).
func BenchmarkFig8PrimaryChange(b *testing.B) {
	network := transport.NewNetwork(
		transport.WithDelay(50*time.Microsecond, 200*time.Microsecond),
		transport.WithSeed(1))
	ids := proc.IDs("s1", "s2", "s3")
	reps := make([]*replication.Passive, 3)
	type noopSM struct{}
	var nodes []*core.Node
	for i, id := range ids {
		reps[i] = replication.NewPassive(noopPassive{}, ids)
		nd, err := core.NewNode(network.Endpoint(id), core.Config{
			Self: id, Universe: ids, Relation: replication.PassiveRelation(),
		}, reps[i].DeliverFunc())
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	_ = noopSM{}
	for i, r := range reps {
		r.Bind(nodes[i])
	}
	for _, nd := range nodes {
		nd.Start()
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		network.Shutdown()
	})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := reps[1].Primary()
		if err := reps[1].RequestPrimaryChange(old); err != nil {
			b.Fatal(err)
		}
		want := uint64(i + 1)
		for reps[1].Epoch() < want {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

type noopPassive struct{}

func (noopPassive) Execute(op []byte) ([]byte, []byte) { return op, op }
func (noopPassive) ApplyUpdate([]byte)                 {}

// E12 microbenchmark — per-op cost of the ordered write path: sessioned
// writes against a 3-replica passive group, whose group-commit batcher
// coalesces the concurrent writes of RunParallel's workers into one
// g-broadcast per commit window.
func BenchmarkSessionWriteBatched(b *testing.B) {
	network := transport.NewNetwork(
		transport.WithDelay(50*time.Microsecond, 200*time.Microsecond),
		transport.WithSeed(1))
	ids := proc.IDs("s1", "s2", "s3")
	reps := make([]*replication.Passive, 3)
	var nodes []*core.Node
	for i, id := range ids {
		reps[i] = replication.NewPassive(noopPassive{}, ids)
		nd, err := core.NewNode(network.Endpoint(id), core.Config{
			Self: id, Universe: ids, Relation: replication.PassiveRelation(),
		}, reps[i].DeliverFunc())
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	for i, r := range reps {
		r.Bind(nodes[i])
	}
	for _, nd := range nodes {
		nd.Start()
	}
	b.Cleanup(func() {
		for i, nd := range nodes {
			reps[i].StopBatching()
			nd.Stop()
		}
		network.Shutdown()
	})

	payload := []byte("payload-64-bytes-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	var session atomic.Uint64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := fmt.Sprintf("bench-%d", session.Add(1))
		var seq uint64
		for pb.Next() {
			seq++
			if _, err := reps[0].RequestSession(sess, seq, seq-1, payload, 30*time.Second); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// Substrate microbenchmarks.

// codecCase is one value the codec benchmarks encode and its frame.
type codecCase struct {
	name  string
	v     any
	frame []byte
}

// codecCases covers both encodings: gob for application payloads of three
// sizes (batching multiplies payload sizes), and the binary frames the
// group-communication core sends most — a reliable-channel data frame
// carrying a fast-path generic-broadcast message with a 64-byte body, and a
// consensus-decided batch of 8 such bodies. The binary frames are written
// out byte by byte: their types are unexported.
func codecCases(b *testing.B) []codecCase {
	b.Helper()
	body := bytes.Repeat([]byte{0xab}, 64)
	data := slices.Concat(
		[]byte{0x00, 0x10, 0x01, 0x01, 0x00, 0x07}, []byte("gb.data"), // rchannel wire: kind, seq, ack, proto
		[]byte{0x30, 0x02}, []byte("p1"), []byte{0x01}, // rbcast message: origin, seq
		[]byte{0x40, 0x06}, []byte("update"), // gbcast fast message: class
		[]byte{0x02, 64}, body, []byte{0x00, 0x00}) // []byte body; wire: incarnations
	batch := []byte{0x00, 0x39, 8} // abcast batch of 8 items
	for i := 0; i < 8; i++ {
		batch = slices.Concat(batch, []byte{0x02, 'p', byte('0' + i%3), byte(100 + i), 0x02, 64}, body)
	}
	var cases []codecCase
	for _, size := range []int{64, 1024, 16384} {
		p := sim.NewPayload(1, size)
		frame, err := msg.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, codecCase{fmt.Sprintf("size=%d", size), p, frame})
	}
	for _, c := range []codecCase{{name: "frame=rchannel-data", frame: data}, {name: "frame=abcast-batch8", frame: batch}} {
		v, err := msg.Decode(c.frame)
		if err != nil {
			b.Fatalf("%s: %v", c.name, err)
		}
		c.v = v
		cases = append(cases, c)
	}
	return cases
}

// BenchmarkMsgCodec measures the pooled codec hot path that every message
// of every layer pays.
func BenchmarkMsgCodec(b *testing.B) {
	for _, c := range codecCases(b) {
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := msg.Encode(c.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encodeTransient/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, release, err := msg.EncodeTransient(c.v)
				if err != nil {
					b.Fatal(err)
				}
				release()
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := msg.Decode(c.frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMsgDecode guards the pooled decode side: the full inbound frame
// lifecycle — borrow a pooled frame buffer (as the transports' read paths
// do), copy the wire bytes in, decode, recycle. Steady state must not
// allocate for the frame buffer itself. gob's per-message decoder dominates
// the gob cases; the binary frames allocate only what they decode.
func BenchmarkMsgDecode(b *testing.B) {
	for _, c := range codecCases(b) {
		b.Run("pooledFrame/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame := transport.GetFrame(len(c.frame))
				copy(frame, c.frame)
				if _, err := msg.Decode(frame); err != nil {
					b.Fatal(err)
				}
				transport.PutFrame(frame)
			}
		})
	}
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	p := sim.NewPayload(1, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := msg.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := msg.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemnetRoundTrip(b *testing.B) {
	network := transport.NewNetwork(transport.WithSeed(1))
	a := network.Endpoint("a")
	c := network.Endpoint("c")
	b.Cleanup(network.Shutdown)
	payload := make([]byte, 128)
	var wg sync.WaitGroup
	wg.Add(1)
	var received atomic.Uint64
	go func() {
		defer wg.Done()
		for range c.Receive() {
			received.Add(1)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send("c", payload)
		for received.Load() < uint64(i+1) {
			time.Sleep(5 * time.Microsecond)
		}
	}
	b.StopTimer()
	network.Shutdown()
	wg.Wait()
}
