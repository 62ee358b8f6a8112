package replication

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/transport"
)

// snapKV is a tiny deterministic state machine with snapshot support: ops
// "set <k> <v>" write a register; snapshots are a canonical sorted dump.
type snapKV struct {
	mu   sync.Mutex
	data map[string]string
}

func newSnapKV() *snapKV { return &snapKV{data: make(map[string]string)} }

func (r *snapKV) Execute(op []byte) ([]byte, []byte) { return []byte("ok"), op }

func (r *snapKV) ApplyUpdate(update []byte) {
	f := strings.Fields(string(update))
	if len(f) == 3 && f[0] == "set" {
		r.mu.Lock()
		r.data[f[1]] = f[2]
		r.mu.Unlock()
	}
}

func (r *snapKV) snapshot() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.data))
	for k := range r.data {
		keys = append(keys, k)
	}
	// Deterministic order.
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k + "=" + r.data[k] + "\n")
	}
	return []byte(b.String())
}

func (r *snapKV) restore(data []byte) {
	m := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, "="); ok {
			m[k] = v
		}
	}
	r.mu.Lock()
	r.data = m
	r.mu.Unlock()
}

func (r *snapKV) snapshotter() Snapshotter {
	return Snapshotter{Snapshot: r.snapshot, Restore: r.restore}
}

func (r *snapKV) get(k string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.data[k]
}

// driveUpdates feeds n sessioned updates directly through a detached
// replica's delivery path (no network), as the totally ordered stream
// would.
func driveUpdates(p *Passive, session string, n int) {
	for i := 1; i <= n; i++ {
		p.deliverMu.Lock()
		p.applyDelivered(pUpdateBatch{
			Epoch: 0, Client: "x", ReqID: uint64(i),
			Entries: []pBatchEntry{{
				Update: []byte(fmt.Sprintf("set k%d v%d", i, i)),
				Result: []byte("ok"), Session: session, Seq: uint64(i),
			}},
		})
		p.deliverMu.Unlock()
	}
}

// TestSnapshotRoundTrip: a snapshot captured at one replica installs at a
// fresh follower, reproducing commit index, epoch, dedup table and
// application state — and the digests agree byte for byte.
func TestSnapshotRoundTrip(t *testing.T) {
	smA := newSnapKV()
	a := NewFollower(smA, "a") // detached replica driven by hand
	a.SetSnapshotter(smA.snapshotter())
	driveUpdates(a, "sess", 10)
	a.deliverMu.Lock()
	a.applyDelivered(pChange{Old: ""}) // counted no-op rotation
	a.deliverMu.Unlock()

	if got := a.CommitIndex(); got != 11 {
		t.Fatalf("commit index %d, want 11", got)
	}

	snap := a.EncodeSnapshot()
	smB := newSnapKV()
	b := NewFollower(smB, "b")
	b.SetSnapshotter(smB.snapshotter())
	if err := b.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := b.CommitIndex(); got != 11 {
		t.Fatalf("installed commit index %d, want 11", got)
	}
	if got := smB.get("k7"); got != "v7" {
		t.Fatalf("restored app state k7=%q, want v7", got)
	}
	// Dedup table travelled: replaying an already-snapshotted update at the
	// follower is suppressed as a duplicate.
	before := smB.get("k3")
	b.deliverMu.Lock()
	b.applyDelivered(pUpdateBatch{Client: "x", ReqID: 99, Entries: []pBatchEntry{{
		Update: []byte("set k3 OTHER"), Result: []byte("ok"), Session: "sess", Seq: 3,
	}}})
	b.deliverMu.Unlock()
	if got := smB.get("k3"); got != before {
		t.Fatalf("replayed duplicate mutated state: k3=%q", got)
	}
	if d := b.Duplicates(); d != 1 {
		t.Fatalf("duplicates %d, want 1", d)
	}
	if string(a.StateDigest()) == string(b.StateDigest()) {
		// Digests include the commit index; the dup replay advanced b's.
		t.Fatal("digests equal despite b having advanced past a")
	}
}

// TestSnapshotVersioned: a snapshot from an unknown version is refused.
func TestSnapshotVersioned(t *testing.T) {
	a := NewFollower(newSnapKV(), "a")
	data, err := encodeSnapshotWithVersion(a, 99)
	if err != nil {
		t.Fatal(err)
	}
	b := NewFollower(newSnapKV(), "b")
	if err := b.InstallSnapshot(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unversioned install error = %v, want version mismatch", err)
	}
}

// TestLogCatchUp: SyncSince serves the delivered suffix after a cursor;
// replaying it at a follower reproduces the donor state exactly, and a
// cursor behind the retained window demands a snapshot.
func TestLogCatchUp(t *testing.T) {
	smA := newSnapKV()
	a := NewFollower(smA, "a")
	a.SetSnapshotter(smA.snapshotter())
	a.SetLogCap(8)
	driveUpdates(a, "s", 30)

	// Follower at cursor 26: within the window (log holds ≥ 8 operations).
	entries, ok := a.SyncSince(26, 100)
	if !ok {
		t.Fatalf("SyncSince(26) demanded a snapshot; want entries")
	}
	if len(entries) != 4 {
		t.Fatalf("SyncSince(26) returned %d entries, want 4", len(entries))
	}

	// A cursor before the window must force a snapshot.
	if _, ok := a.SyncSince(2, 100); ok {
		t.Fatal("SyncSince(2) served entries past the trimmed window")
	}

	// Snapshot at 26 + entries (26, 30] reproduce the donor.
	smB := newSnapKV()
	b := NewFollower(smB, "b")
	b.SetSnapshotter(smB.snapshotter())
	// Build the follower by snapshot at the current index minus the tail:
	// install a full snapshot first, then replay the tail idempotently.
	if err := b.InstallSnapshot(a.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	b.ApplySyncEntries(26, entries) // all ≤ current index: skipped
	if got, want := b.CommitIndex(), a.CommitIndex(); got != want {
		t.Fatalf("follower index %d, want %d", got, want)
	}
	if string(a.StateDigest()) != string(b.StateDigest()) {
		t.Fatal("digest mismatch after catch-up")
	}
}

// TestLogBounded: the retained log stays below 2× its cap in operations,
// never under the cap once trimmed, and trims from the front.
func TestLogBounded(t *testing.T) {
	a := NewFollower(newSnapKV(), "a")
	a.SetLogCap(16)
	driveUpdates(a, "s", 500)
	a.mu.Lock()
	n, base, ops := len(a.log), a.logBase, a.commitIdx-a.logBase
	a.mu.Unlock()
	if ops < 16 || ops >= 32 || uint64(n) > ops {
		t.Fatalf("log holds %d records covering %d operations with cap 16", n, ops)
	}
	if base == 0 {
		t.Fatal("log never trimmed")
	}
}

// TestLogCapCountsOperations: the retained log is bounded in operations —
// a batch of k entries counts k, any other command 1 — every trim leaves
// [cap, 2·cap) of them, replicas fed the same sequence trim at the same
// index, and a pull below the retained window is answered with a snapshot.
func TestLogCapCountsOperations(t *testing.T) {
	const logCap = 8
	var reps []*Passive
	for _, id := range proc.IDs("a", "b", "c") {
		sm := newSnapKV()
		p := NewFollower(sm, id)
		p.SetSnapshotter(sm.snapshotter())
		p.SetLogCap(logCap)
		reps = append(reps, p)
	}
	rng := rand.New(rand.NewPCG(54, 1))
	trims := 0
	for step := 1; step <= 400; step++ {
		var cmd any = pChange{} // a no-op rotation: one operation
		ops := uint64(1)
		if rng.IntN(5) > 0 {
			k := 1 + rng.IntN(logCap)
			b := pUpdateBatch{Client: "x", ReqID: uint64(step)}
			for i := 0; i < k; i++ {
				b.Entries = append(b.Entries, pBatchEntry{Update: []byte(fmt.Sprintf("set k%d v%d", i, step))})
			}
			cmd, ops = b, uint64(k)
		}
		var base uint64
		for i, p := range reps {
			p.mu.Lock()
			before := p.logBase
			p.mu.Unlock()
			p.deliverMu.Lock()
			p.applyDelivered(cmd)
			p.deliverMu.Unlock()

			p.mu.Lock()
			retained, last := p.commitIdx-p.logBase, p.log[len(p.log)-1]
			prev := p.logBase
			if len(p.log) > 1 {
				prev = p.log[len(p.log)-2].End
			}
			if p.logBase != before && i == 0 {
				trims++
			}
			if p.logBase != before && (retained < logCap || retained >= 2*logCap) {
				t.Fatalf("step %d, %s: trim to %d leaves %d operations, want [%d, %d)",
					step, p.self, p.logBase, retained, logCap, 2*logCap)
			}
			if retained >= 2*logCap {
				t.Fatalf("step %d, %s: %d operations retained with cap %d", step, p.self, retained, logCap)
			}
			if last.End != p.commitIdx || last.End-prev != ops {
				t.Fatalf("step %d, %s: a %d-operation command counted %d", step, p.self, ops, last.End-prev)
			}
			if i == 0 {
				base = p.logBase
			} else if p.logBase != base {
				t.Fatalf("step %d: %s trimmed to %d, %s to %d", step, p.self, p.logBase, reps[0].self, base)
			}
			p.mu.Unlock()
		}
	}
	if trims < 10 {
		t.Fatalf("only %d trims in 400 commands", trims)
	}

	// Catch-up pulls against the first replica: a cursor at the window's
	// base gets every retained record, one below it a snapshot.
	donor := reps[0]
	network := transport.NewNetwork(transport.WithSeed(54))
	defer network.Shutdown()
	dep := rchannel.New(network.Endpoint("a"), rchannel.WithRTO(10*time.Millisecond))
	fep := rchannel.New(network.Endpoint("f"), rchannel.WithRTO(10*time.Millisecond))
	got := make(chan sState, 1)
	fep.Handle(SyncProto, func(_ proc.ID, body any) {
		if m, ok := body.(sState); ok {
			got <- m
		}
	})
	dep.Start()
	fep.Start()
	defer dep.Stop()
	defer fep.Stop()
	pull := func(from uint64) sState {
		t.Helper()
		servePull(dep, donor, "f", sPull{ReqID: from, From: from}, 512)
		select {
		case m := <-got:
			return m
		case <-time.After(10 * time.Second):
			t.Fatalf("no answer to a pull from %d", from)
			return sState{}
		}
	}
	donor.mu.Lock()
	base, records, idx := donor.logBase, len(donor.log), donor.commitIdx
	donor.mu.Unlock()
	if m := pull(base); m.Snapshot != nil || len(m.Entries) != records || m.Entries[len(m.Entries)-1].End != idx {
		t.Fatalf("pull from the window's base %d: snapshot %v, %d of %d records", base, m.Snapshot != nil, len(m.Entries), records)
	}
	if m := pull(base - 1); m.Snapshot == nil || m.Entries != nil {
		t.Fatalf("pull from %d, below the window's base %d, got %d records and no snapshot", base-1, base, len(m.Entries))
	}
}

// TestFollowerRejectsWrites: a follower answers ErrNotPrimary (with a
// usable hint) instead of executing writes or barriers.
func TestFollowerRejectsWrites(t *testing.T) {
	a := NewFollower(newSnapKV(), "a")
	if _, err := a.RequestSession("s", 1, 0, []byte("set k v"), time.Second); err == nil {
		t.Fatal("follower accepted a write")
	}
	if _, err := a.Request([]byte("set k v")); err == nil {
		t.Fatal("follower accepted an unsessioned write")
	}
	if _, err := a.ReadBarrier(time.Second, nil); err == nil {
		t.Fatal("follower confirmed a barrier without a proxy")
	}
}

// encodeSnapshotWithVersion builds a snapshot with a forced version field.
func encodeSnapshotWithVersion(p *Passive, v uint32) ([]byte, error) {
	data := p.EncodeSnapshot()
	dec, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	dec.Version = v
	return encodeSnapshot(dec)
}

func TestStateDigestDeterministic(t *testing.T) {
	mk := func() *Passive {
		sm := newSnapKV()
		p := NewFollower(sm, "a")
		p.SetSnapshotter(sm.snapshotter())
		driveUpdates(p, "s", 5)
		return p
	}
	a, b := mk(), mk()
	if string(a.StateDigest()) != string(b.StateDigest()) {
		t.Fatal("identical histories produced different digests")
	}
	if got := a.CommitIndex(); got != 5 {
		t.Fatalf("index %d", got)
	}
}
