package replication

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/storage"
	"repro/internal/transport"
)

func openFileEngine(t *testing.T, dir string) *storage.File {
	t.Helper()
	e, err := storage.Open(dir, storage.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// durableReplica builds a detached replica over a file engine in dir,
// replaying whatever the engine holds.
func durableReplica(t *testing.T, dir string, self proc.ID, compact int64) (*Passive, *snapKV, *storage.File, ReplayStats) {
	t.Helper()
	sm := newSnapKV()
	p := NewFollower(sm, self)
	p.SetSnapshotter(sm.snapshotter())
	eng := openFileEngine(t, dir)
	p.SetStorage(StorageConfig{Engine: eng, CompactBytes: compact})
	rs, err := p.ReplayStorage()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return p, sm, eng, rs
}

// TestStorageDurableRoundTrip: deliveries hit the WAL before their ack
// point, CloseStorage seals with a snapshot, and a fresh process rebuilds
// byte-identical state from disk alone.
func TestStorageDurableRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	a, _, eng, _ := durableReplica(t, dir, "a", -1)
	driveUpdates(a, "sess", 40)
	a.deliverMu.Lock()
	a.applyDelivered(pChange{Old: ""}) // ordered-class record rides along
	a.deliverMu.Unlock()

	if st := eng.Stats(); st.Appends != 41 || st.Syncs < 40 {
		t.Fatalf("engine accounting: %+v (want 41 appends, >=40 syncs)", st)
	}
	digest := a.StateDigest()
	if err := a.CloseStorage(); err != nil {
		t.Fatal(err)
	}

	b, smB, _, rs := durableReplica(t, dir, "a", -1)
	if rs.SnapshotIndex != 41 {
		t.Fatalf("replayed snapshot index %d, want 41 (CloseStorage seals with a snapshot)", rs.SnapshotIndex)
	}
	if got := b.CommitIndex(); got != 41 {
		t.Fatalf("commit index after replay %d, want 41", got)
	}
	if got := smB.get("k17"); got != "v17" {
		t.Fatalf("app state after replay k17=%q", got)
	}
	if !bytes.Equal(b.StateDigest(), digest) {
		t.Fatal("digest after disk replay differs from pre-shutdown digest")
	}
}

// TestStorageKillKeepsAckedWrites: a power loss (Kill: no flush) preserves
// everything a client was acked — each update delivery synced before its
// waiter could wake.
func TestStorageKillKeepsAckedWrites(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	a, _, eng, _ := durableReplica(t, dir, "a", -1)
	driveUpdates(a, "sess", 25)
	eng.Kill()

	b, smB, _, rs := durableReplica(t, dir, "a", -1)
	if rs.Records != 25 || rs.SnapshotIndex != 0 {
		t.Fatalf("replay after kill: %+v (want 25 records, no snapshot)", rs)
	}
	if got := b.CommitIndex(); got != 25 {
		t.Fatalf("commit index %d, want 25", got)
	}
	if got := smB.get("k25"); got != "v25" {
		t.Fatalf("k25=%q after kill-replay", got)
	}
	// The dedup table replayed too: re-delivering an old update is a dup.
	b.deliverMu.Lock()
	b.applyDelivered(pUpdateBatch{Epoch: 0, Client: "x", ReqID: 99, Entries: []pBatchEntry{{
		Update: []byte("set k3 EVIL"), Result: []byte("ok"), Session: "sess", Seq: 3,
	}}})
	b.deliverMu.Unlock()
	if got := smB.get("k3"); got != "v3" {
		t.Fatalf("exactly-once lost across restart: k3=%q", got)
	}
}

// legacyWAL is a WAL tail from before every write rode group commit, when a
// write could travel alone as a per-operation pUpdate: a new session, an ack
// that prunes its first seq, an ordered-class record, a duplicate, an
// unsessioned write, and a second session acking ahead of its records. The
// first record names the replaying replica ("a") as its originator.
func legacyWAL() []any {
	return []any{
		pUpdate{Client: "a", ReqID: 1, Update: []byte("set k1 v1"), Result: []byte("r1"), Session: "s1", Seq: 1, TS: 100},
		pUpdate{Client: "a", ReqID: 2, Update: []byte("set k2 v2"), Result: []byte("r2"), Session: "s1", Seq: 2, Ack: 1, TS: 200},
		pChange{Old: ""},
		pUpdate{Client: "x", ReqID: 3, Update: []byte("set k2 EVIL"), Result: []byte("r2x"), Session: "s1", Seq: 2, Ack: 1, TS: 300},
		pUpdate{Client: "x", ReqID: 4, Update: []byte("set k3 v3"), Result: []byte("r3"), TS: 400},
		pUpdate{Client: "x", ReqID: 5, Update: []byte("set k4 v4"), Result: []byte("r4"), Session: "s2", Seq: 7, Ack: 5, TS: 350},
	}
}

// legacyState is the replicated state after applying legacyWAL (commit
// index, dedup table, application state, commit timestamp), as recorded
// from the per-operation apply path that wrote such records.
const legacyState = `replication.pSnapshot{Version:0x1, Index:0x6, Epoch:0x0, ViewSeq:0x0, Members:[]proc.ID(nil), LeaseClock:0x0, Sessions:[]replication.pSessionSnap{replication.pSessionSnap{ID:"s1", Pruned:0x1, Deadline:0x4, Seqs:[]uint64{0x2}, Results:[][]uint8{[]uint8{0x72, 0x32}}}, replication.pSessionSnap{ID:"s2", Pruned:0x5, Deadline:0x4, Seqs:[]uint64{0x7}, Results:[][]uint8{[]uint8{0x72, 0x34}}}}, App:[]uint8{0x6b, 0x31, 0x3d, 0x76, 0x31, 0xa, 0x6b, 0x32, 0x3d, 0x76, 0x32, 0xa, 0x6b, 0x33, 0x3d, 0x76, 0x33, 0xa, 0x6b, 0x34, 0x3d, 0x76, 0x34, 0xa}, StateTS:400}`

// TestStorageReplaysPerOperationRecords: a WAL holding per-operation
// pUpdate records replays, as one-entry batches, to exactly the session
// table, commit index and state the per-operation apply path produced.
func TestStorageReplaysPerOperationRecords(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	eng := openFileEngine(t, dir)
	for i, body := range legacyWAL() {
		end := uint64(i + 1)
		data, err := msg.Encode(LogRec{End: end, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Append(storage.Record{Index: end, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	p, _, _, rs := durableReplica(t, dir, "a", -1)
	if rs.Records != 6 || rs.Ops != 6 {
		t.Fatalf("replay: %+v (want 6 records, 6 ops)", rs)
	}
	if got := p.CommitIndex(); got != 6 {
		t.Fatalf("commit index %d, want 6", got)
	}
	if applied, ignored, _ := p.Counters(); applied != 4 || ignored != 0 {
		t.Fatalf("applied=%d ignored=%d, want 4 and 0", applied, ignored)
	}
	if d := p.Duplicates(); d != 1 {
		t.Fatalf("duplicates %d, want 1", d)
	}
	snap, err := decodeSnapshot(p.StateDigest())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%#v", snap); got != legacyState {
		t.Fatalf("state after replay\n%s\nwant\n%s", got, legacyState)
	}
}

// TestStorageBatchOneFsyncPerWindow: a delivered batch is one WAL record
// and ONE engine sync, regardless of its entry count — the group-commit
// fsync amortisation.
func TestStorageBatchOneFsyncPerWindow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	a, sm, eng, _ := durableReplica(t, dir, "a", -1)
	const batches, per = 8, 16
	seq := uint64(0)
	for i := 0; i < batches; i++ {
		entries := make([]pBatchEntry, per)
		for j := range entries {
			seq++
			entries[j] = pBatchEntry{
				Update: []byte(fmt.Sprintf("set k%d v%d", seq, seq)),
				Result: []byte("ok"), Session: "sess", Seq: seq,
			}
		}
		a.deliverMu.Lock()
		a.applyDelivered(pUpdateBatch{Epoch: 0, Client: "x", ReqID: uint64(i + 1), Entries: entries})
		a.deliverMu.Unlock()
	}
	st := eng.Stats()
	if st.Appends != batches {
		t.Fatalf("appends %d, want %d (one record per batch)", st.Appends, batches)
	}
	if st.Syncs != batches {
		t.Fatalf("syncs %d, want %d (one fsync per commit window)", st.Syncs, batches)
	}
	if got := a.CommitIndex(); got != batches*per {
		t.Fatalf("commit index %d, want %d", got, batches*per)
	}
	if got := sm.get("k100"); got != "v100" {
		t.Fatalf("k100=%q", got)
	}

	// And the batch record replays to the same place.
	eng.Kill()
	b, _, _, rs := durableReplica(t, dir, "a", -1)
	if b.CommitIndex() != batches*per || rs.Ops != batches*per {
		t.Fatalf("batch replay: index %d, replayed ops %d", b.CommitIndex(), rs.Ops)
	}
}

// TestStorageCompaction: once the WAL outgrows CompactBytes, a background
// snapshot retires covered segments; restart replays snapshot + tail.
func TestStorageCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r1")
	sm := newSnapKV()
	a := NewFollower(sm, "a")
	a.SetSnapshotter(sm.snapshotter())
	eng, err := storage.Open(dir, storage.Config{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a.SetStorage(StorageConfig{Engine: eng, CompactBytes: 16 << 10})
	if _, err := a.ReplayStorage(); err != nil {
		t.Fatal(err)
	}
	driveUpdates(a, "sess", 600) // ~60 KiB of records: several compactions
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := a.StorageStats()
		if st.SnapshotIndex > 0 && st.Truncated > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := a.CloseStorage(); err != nil {
		t.Fatal(err)
	}
	b, smB, _, rs := durableReplica(t, dir, "a", -1)
	if rs.SnapshotIndex == 0 {
		t.Fatal("restart did not replay from the compaction snapshot")
	}
	if got := b.CommitIndex(); got != 600 {
		t.Fatalf("commit index %d, want 600", got)
	}
	if got := smB.get("k600"); got != "v600" {
		t.Fatalf("k600=%q", got)
	}
}

// TestRecoveryAlignsRestartedGroup: three replicas come back from disk at
// DIFFERENT indices (each lost a different suffix) and the Recovery round
// pulls only the missing deltas — no snapshot transfer — until all agree.
func TestRecoveryAlignsRestartedGroup(t *testing.T) {
	base := t.TempDir()
	ids := proc.IDs("r1", "r2", "r3")
	heights := map[proc.ID]int{"r1": 30, "r2": 25, "r3": 20}

	// Phase 1: each replica persists a different prefix of the same totally
	// ordered history, then dies without flushing.
	for _, id := range ids {
		p, _, eng, _ := durableReplica(t, filepath.Join(base, string(id)), id, -1)
		driveUpdates(p, "sess", heights[id])
		eng.Kill()
	}

	// Phase 2: rebuild from disk, wire real endpoints, run recovery.
	network := transport.NewNetwork(transport.WithDelay(0, time.Millisecond), transport.WithSeed(11))
	defer network.Shutdown()
	reps := make(map[proc.ID]*Passive)
	recs := make(map[proc.ID]*Recovery)
	for _, id := range ids {
		p, _, _, rs := durableReplica(t, filepath.Join(base, string(id)), id, -1)
		if int(rs.Records) != heights[id] {
			t.Fatalf("%s replayed %d records, want %d", id, rs.Records, heights[id])
		}
		ep := rchannel.New(network.Endpoint(id), rchannel.WithRTO(10*time.Millisecond))
		recs[id] = NewRecovery(ep, p, ids, SyncConfig{})
		ep.Start()
		reps[id] = p
	}
	done := make(chan error, len(ids))
	for _, id := range ids {
		go func(r *Recovery) { done <- r.Run(5 * time.Second) }(recs[id])
	}
	for range ids {
		if err := <-done; err != nil {
			t.Fatalf("recovery: %v", err)
		}
	}

	want := reps["r1"].StateDigest()
	for _, id := range ids {
		if got := reps[id].CommitIndex(); got != 30 {
			t.Fatalf("%s at index %d after recovery, want 30", id, got)
		}
		if !bytes.Equal(reps[id].StateDigest(), want) {
			t.Fatalf("%s digest differs after recovery", id)
		}
	}
	// Delta-only: the laggards adopted entries, nobody needed a snapshot.
	st2, st3 := recs["r2"].Stats(), recs["r3"].Stats()
	if st2.Entries == 0 || st3.Entries == 0 {
		t.Fatalf("laggards pulled no entries: r2=%+v r3=%+v", st2, st3)
	}
	if st2.Snapshots != 0 || st3.Snapshots != 0 {
		t.Fatalf("recovery fell back to snapshots: r2=%+v r3=%+v", st2, st3)
	}
	// And the adopted delta was persisted: kill r3 again, replay alone.
	if err := reps["r3"].CloseStorage(); err != nil {
		t.Fatal(err)
	}
	p3, _, _, _ := durableReplica(t, filepath.Join(base, "r3"), "r3", -1)
	if got := p3.CommitIndex(); got != 30 {
		t.Fatalf("r3 rereplay at %d, want 30 (recovered delta not persisted)", got)
	}
	if !bytes.Equal(p3.StateDigest(), want) {
		t.Fatal("r3 digest differs after second replay")
	}
}
