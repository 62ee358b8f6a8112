package replication

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/msg/msgtest"
	"repro/internal/proc"
	"repro/internal/transport"
)

// TestCodecBinding pins the binary encoding of each g-broadcast payload and
// checks seeded values against their gob round trip.
func TestCodecBinding(t *testing.T) {
	// Update batches with 0, 1 and 3 entries; a negative TS is one zigzag byte.
	msgtest.Golden(t, pUpdateBatch{Epoch: 2, Client: "s1", ReqID: 7, TS: -3}, "00 50 02 02 7331 07 00 05")
	msgtest.Golden(t, pUpdateBatch{Epoch: 1, Client: "p1", ReqID: 1, TS: 64, Entries: []pBatchEntry{
		{Update: []byte("set"), Result: []byte("ok"), Session: "c", Seq: 300, Ack: 299},
	}}, "00 50 01 02 7031 01 01  03 736574 02 6f6b 01 63 ac02 ab02  8001")
	msgtest.Golden(t, pUpdateBatch{TS: -1, Entries: []pBatchEntry{
		{Update: []byte{1}},
		{Result: []byte{2, 3}, Session: "s"},
		{Seq: 1, Ack: 1},
	}}, "00 50 00 00 00 03  01 01 00 00 00 00  00 02 0203 01 73 00 00  00 00 00 01 01  01")
	msgtest.Golden(t, pLeaderLease{Epoch: 3, Holder: "s2", TTLns: 1000, TS: -5}, "00 51 03 02 7332 d00f 09")
	msgtest.Golden(t, pLease{Epoch: 1, Tick: true, Sessions: []string{"a", "bc"}}, "00 52 01 01 02 01 61 02 6263")
	msgtest.Golden(t, pLease{}, "00 52 00 00 00")
	msgtest.Golden(t, pBarrier{Epoch: 4, Client: "s1", ReqID: 9, TS: -1}, "00 53 04 02 7331 09 01")
	msgtest.Golden(t, pChange{Old: "s1"}, "00 54 02 7331")
	msgtest.Golden(t, pChange{}, "00 54 00")

	// Counts beyond the bytes that remain are refused before anything is
	// allocated for them.
	for _, frame := range [][]byte{
		{0x00, tagUpdateBatch, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		{0x00, tagLease, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		if v, err := msg.Decode(frame); err == nil {
			t.Fatalf("% x decoded to %#v", frame, v)
		}
	}

	rng := rand.New(rand.NewPCG(54, 2))
	for i := 0; i < 200; i++ {
		msgtest.RoundTrip(t, seededBatch(rng, rng.IntN(6)))
		msgtest.RoundTrip(t, pLeaderLease{Epoch: msgtest.Uint(rng), Holder: proc.ID(msgtest.String(rng)),
			TTLns: seededInt(rng), TS: seededInt(rng)})
		l := pLease{Epoch: msgtest.Uint(rng), Tick: rng.IntN(2) == 1}
		for j := rng.IntN(4); j > 0; j-- {
			l.Sessions = append(l.Sessions, msgtest.String(rng))
		}
		msgtest.RoundTrip(t, l)
		msgtest.RoundTrip(t, pBarrier{Epoch: msgtest.Uint(rng), Client: proc.ID(msgtest.String(rng)),
			ReqID: msgtest.Uint(rng), TS: seededInt(rng)})
		msgtest.RoundTrip(t, pChange{Old: proc.ID(msgtest.String(rng))})
	}
}

// seededInt returns a seeded int64 of either sign, spread over every width.
func seededInt(rng *rand.Rand) int64 {
	x := int64(msgtest.Uint(rng))
	if rng.IntN(2) == 0 {
		return -x
	}
	return x
}

// seededBytes returns nil, empty or a short seeded slice.
func seededBytes(rng *rand.Rand) []byte {
	switch rng.IntN(3) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	return []byte(msgtest.String(rng) + "x")
}

func seededBatch(rng *rand.Rand, n int) pUpdateBatch {
	u := pUpdateBatch{Epoch: msgtest.Uint(rng), Client: proc.ID(msgtest.String(rng)),
		ReqID: msgtest.Uint(rng), TS: seededInt(rng)}
	for i := 0; i < n; i++ {
		u.Entries = append(u.Entries, pBatchEntry{Update: seededBytes(rng), Result: seededBytes(rng),
			Session: msgtest.String(rng), Seq: msgtest.Uint(rng), Ack: msgtest.Uint(rng)})
	}
	return u
}

// writeSatBatch is a commit window as write_sat ships it: 19 entries (the
// benchmark's replication.ops_per_batch there), each a 64-byte update with
// a short result under one client session.
func writeSatBatch() pUpdateBatch {
	u := pUpdateBatch{Epoch: 1, Client: "r1", ReqID: 4711, TS: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()}
	for i := 0; i < 19; i++ {
		u.Entries = append(u.Entries, pBatchEntry{
			Update:  bytes.Repeat([]byte{byte(i)}, 64),
			Result:  []byte("ok"),
			Session: "client-0001",
			Seq:     uint64(1000 + i),
			Ack:     999,
		})
	}
	return u
}

// TestUpdateBatchAllocBudget: decoding a 19-entry update batch costs the
// boxed value, the entry slice and one allocation per non-empty byte
// slice, where a nested gob stream cost several hundred. Strings cost
// nothing once interned; the intern table is a process-wide bounded cache,
// so a string it evicted between the two warm-up decodes is counted.
func TestUpdateBatchAllocBudget(t *testing.T) {
	u := writeSatBatch()
	frame, err := msg.Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() pUpdateBatch {
		v, err := msg.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		return v.(pUpdateBatch)
	}
	a, b := decode(), decode()
	budget := 2 + 2*len(u.Entries)
	if unsafe.StringData(string(a.Client)) != unsafe.StringData(string(b.Client)) {
		budget++
	}
	for i := range a.Entries {
		if unsafe.StringData(a.Entries[i].Session) != unsafe.StringData(b.Entries[i].Session) {
			budget++
		}
	}
	allocs := testing.AllocsPerRun(200, func() { decode() })
	if allocs > float64(budget) {
		t.Fatalf("19-entry batch decode costs %.1f allocs, budget %d", allocs, budget)
	}
	t.Logf("19-entry batch: %.1f allocs per decode (budget %d), %d bytes", allocs, budget, len(frame))
}

// FuzzReplicationPayloads: Decode never panics on a mutated payload frame,
// everything it accepts re-encodes, and every accepted frame under one of
// this package's tags re-encodes to the same bytes (none of these types
// nests a gob stream, so their encoding is canonical).
func FuzzReplicationPayloads(f *testing.F) {
	for _, v := range []any{
		// Small seeds: the fuzzer minimizes every new input it finds
		// interesting, and a long one stalls it for seconds each time.
		pUpdateBatch{Epoch: 1, Client: "p1", ReqID: 1, TS: -1, Entries: []pBatchEntry{
			{Update: []byte("set"), Result: []byte("ok"), Session: "c", Seq: 300, Ack: 299},
			{Update: []byte{1}, Seq: 1},
		}},
		pLeaderLease{Epoch: 3, Holder: "s2", TTLns: 1000, TS: -5},
		pLease{Epoch: 1, Tick: true, Sessions: []string{"a", "bc"}},
		pBarrier{Epoch: 4, Client: "s1", ReqID: 9, TS: -1},
		pChange{Old: "s1"},
	} {
		frame, err := msg.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := msg.Decode(data)
		if err != nil {
			return
		}
		out, err := msg.Encode(v)
		if err != nil {
			t.Fatalf("accepted % x but cannot re-encode %#v: %v", data, v, err)
		}
		if data[0] == 0x00 && data[1] >= tagUpdateBatch && data[1] <= tagChange && !bytes.Equal(out, data) {
			t.Fatalf("accepted % x as %#v, which re-encodes to % x", data, v, out)
		}
	})
}

// TestWireShape: every payload replication g-broadcasts is a binary frame
// under its own tag whose type has no interface field, so nothing in it can
// nest a gob stream; the records that stay gob (a LogRec holding a batch,
// the replay-only pUpdate) still do.
func TestWireShape(t *testing.T) {
	// One value of every type Passive hands to Node.Gbcast, with its tag.
	for _, c := range []struct {
		v   any
		tag byte
	}{
		{writeSatBatch(), tagUpdateBatch},
		{pLeaderLease{Epoch: 1, Holder: "s1", TTLns: 1, TS: 1}, tagLeaderLease},
		{pLease{Epoch: 1, Tick: true, Sessions: []string{"c"}}, tagLease},
		{pBarrier{Epoch: 1, Client: "s1", ReqID: 1, TS: 1}, tagBarrier},
		{pChange{Old: "s1"}, tagChange},
	} {
		frame, err := msg.Encode(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if frame[0] != 0x00 || frame[1] != c.tag {
			t.Fatalf("%T encodes as % x..., want 00 %02x", c.v, frame[:2], c.tag)
		}
		if path := interfaceField(reflect.TypeOf(c.v), reflect.TypeOf(c.v).Name()); path != "" {
			t.Fatalf("%s is an interface: a value there would nest as gob", path)
		}
	}
	for _, v := range []any{LogRec{End: 19, Body: writeSatBatch()}, pUpdate{Epoch: 1, Update: []byte("u")}} {
		frame, err := msg.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if frame[0] == 0x00 {
			t.Fatalf("%T encodes as a binary frame; its stored bytes must stay gob", v)
		}
		got, err := msg.Decode(frame)
		if err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("%T decodes to %#v (%v), want %#v", v, got, err, v)
		}
	}
}

// interfaceField returns the path of the first interface-typed field
// reachable from t, or "".
func interfaceField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Interface:
		return path
	case reflect.Slice, reflect.Array, reflect.Pointer:
		return interfaceField(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				if p := interfaceField(f.Type, path+"."+f.Name); p != "" {
					return p
				}
			}
		}
	}
	return ""
}

// tapTransport records a copy of every frame its endpoint sends.
type tapTransport struct {
	transport.Transport
	mu     *sync.Mutex
	frames *[][]byte
}

func (t tapTransport) Send(to proc.ID, data []byte) {
	t.mu.Lock()
	*t.frames = append(*t.frames, bytes.Clone(data))
	t.mu.Unlock()
	t.Transport.Send(to, data)
}

// TestWireCarriesNoReplicationGob drives every kind of g-broadcast payload
// through a live three-replica group — sessioned and unsessioned writes, a
// read barrier, session-lease ticks, leader-lease renewals and a primary
// change — and checks every frame the nodes sent: each is a binary frame,
// and none holds a gob stream naming a replication type (gob names the
// concrete type of every interface value it encodes).
func TestWireCarriesNoReplicationGob(t *testing.T) {
	var mu sync.Mutex
	var frames [][]byte
	network := transport.NewNetwork(transport.WithDelay(0, time.Millisecond), transport.WithSeed(54))
	ids := proc.IDs("s1", "s2", "s3")
	reps := make([]*Passive, len(ids))
	var nodes []*core.Node
	for i, id := range ids {
		reps[i] = NewPassive(&regSM{}, ids)
		nd, err := core.NewNode(tapTransport{network.Endpoint(id), &mu, &frames},
			core.Config{Self: id, Universe: ids, Relation: PassiveRelation()}, reps[i].DeliverFunc())
		if err != nil {
			t.Fatal(err)
		}
		reps[i].Bind(nd)
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	t.Cleanup(func() {
		for i, nd := range nodes {
			reps[i].StopBatching()
			nd.Stop()
		}
		network.Shutdown()
	})

	primary := reps[0]
	primary.EnableLeaderLease(LeaderLeaseConfig{TTL: time.Second})
	defer primary.DisableLeaderLease()
	if _, err := primary.Request([]byte("plain")); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := primary.RequestSession("c1", seq, seq-1, []byte(fmt.Sprint("v", seq)), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.LeaseTick([]string{"c1"}); err != nil {
		t.Fatal(err)
	}
	if err := reps[1].LeaseTick([]string{"c1"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "a leader-lease grant", func() bool { return primary.LeaderLeaseStats().Grants >= 1 })
	primary.DisableLeaderLease()
	if _, err := reps[1].ReadBarrier(10*time.Second, nil); err == nil {
		t.Fatal("a backup confirmed a read barrier")
	}
	if _, err := primary.ReadBarrier(10*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if primary.ReadBarrierStats().Broadcasts == 0 {
		t.Fatal("the read was served without a barrier broadcast")
	}
	if err := reps[2].RequestPrimaryChange("s1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the primary change everywhere", func() bool {
		for _, r := range reps {
			if r.Epoch() != 1 {
				return false
			}
		}
		return true
	})
	idx := primary.CommitIndex()
	waitFor(t, 10*time.Second, "equal commit indexes", func() bool {
		return reps[1].CommitIndex() == idx && reps[2].CommitIndex() == idx
	})

	mu.Lock()
	defer mu.Unlock()
	if len(frames) == 0 {
		t.Fatal("no frames captured")
	}
	typeName := []byte(reflect.TypeOf(pChange{}).PkgPath() + ".")
	for _, f := range frames {
		if len(f) == 0 || f[0] != 0x00 {
			t.Fatalf("a %d-byte frame is not binary: % x", len(f), f[:min(len(f), 32)])
		}
		if i := bytes.Index(f, typeName); i >= 0 {
			end := min(len(f), i+len(typeName)+16)
			t.Fatalf("a frame nests a gob stream naming %q", f[i:end])
		}
	}
	t.Logf("%d frames, all binary, commit index %d", len(frames), idx)
}
