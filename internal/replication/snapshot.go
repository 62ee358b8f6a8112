package replication

// Crash recovery and mid-life join: versioned replica snapshots plus a
// bounded log of delivered commands, indexed by the commit index.
//
// A replica's authoritative state is a pure function of the totally ordered
// command sequence (passive.go): the application state machine, the
// (session, seq) dedup table, the lease clock, the epoch/replica view and
// the commit index all advance only at delivery points, identically at
// every replica. That makes two artifacts sufficient for a fresh process to
// become a replica without replaying history from the beginning:
//
//   - a SNAPSHOT: the full replica state captured atomically at a delivery
//     boundary (between two delivered commands), tagged with the commit
//     index it stands at; and
//   - the LOG: the suffix of delivered commands after some index, replayed
//     through the very same delivery handlers that produced the donor's
//     state — so snapshot(S) + log(S..N] at one replica reconstructs the
//     state of every replica at index N, bit for bit.
//
// The snapshot is versioned (snapshotVersion) so a newer node refuses an
// unintelligible older/newer format instead of silently diverging. Capture
// runs either on the stack's delivery goroutine itself (the membership join
// path calls the Snapshotter hook while applying the ordered join — a fixed
// point of the total order, Section 4.3's state transfer) or from any other
// goroutine, in which case deliverMu excludes in-flight deliveries, which
// is the same boundary.
//
// The log is a ring of the most recent delivered commands (LogRec.Body is
// the wire message exactly as delivered). A joiner within the retained
// window catches up by pulling entries (sync.go); one further behind gets a
// fresh snapshot. Replay is exact because staleness (epoch tags), dedup
// decisions and lease expiry are all recomputed from replicated state that
// itself evolves through the replayed sequence.

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/msg"
	"repro/internal/proc"
)

// snapshotVersion is the wire version of pSnapshot. InstallSnapshot rejects
// any other version.
const snapshotVersion = 1

// DefaultLogCap bounds the retained delivered-command log in operations: a
// batch of k entries counts k, every other command counts 1, so the log's
// memory follows the operations it covers, not how many of them each commit
// window happened to coalesce. Joiners further behind than the window
// receive a snapshot.
const DefaultLogCap = 1024

// Snapshotter supplies and restores the application state machine's state
// for snapshots. Snapshot must be deterministic (identical state encodes to
// identical bytes) — cross-replica equality checks compare its output — and
// both run at a delivery boundary, so they may read/write the state machine
// without racing ApplyUpdate.
//
// Restore must additionally swap the state ATOMICALLY with respect to
// concurrent lock-free readers: the gateway's read paths (Local, the
// Monotonic fast path, lease and bounded-staleness reads) call the
// application's read hook with NO replica lock held, concurrently with a
// snapshot install. A Restore that mutates in place could expose a reader to
// a torn mix of old and new state — and, because installSnapshotLocked
// advances the commit index only AFTER Restore returns, an in-place partial
// restore could even be observed under an index the reader already checked.
// Build the new state aside and publish it with one atomic pointer/reference
// swap (as every in-tree state machine does).
type Snapshotter struct {
	Snapshot func() []byte
	Restore  func([]byte)
}

// LogRec is one delivered command of the totally ordered sequence. End is
// the replica's commit index after applying it (a batch advances the index
// by its entry count, every other command by one).
type LogRec struct {
	End  uint64
	Body any
}

// pSnapshot is the wire form of a replica snapshot.
type pSnapshot struct {
	Version    uint32
	Index      uint64 // commit index the snapshot stands at
	Epoch      uint64
	ViewSeq    uint64
	Members    []proc.ID // replica list; head is the primary
	LeaseClock uint64
	Sessions   []pSessionSnap // sorted by ID for deterministic encoding
	App        []byte         // application state via the Snapshotter hook
	// StateTS is the donor's applied-state commit timestamp (unix nanos) at
	// capture, so an installed snapshot seeds the receiver's freshness stamp
	// for bounded-staleness reads (leaderlease.go).
	StateTS int64
}

// pSessionSnap is one session's slice of the replicated dedup table.
type pSessionSnap struct {
	ID       string
	Pruned   uint64
	Deadline uint64
	Seqs     []uint64 // sorted; Results aligned
	Results  [][]byte
}

func init() {
	msg.Register(pSnapshot{})
	msg.Register(pSessionSnap{})
	msg.Register(LogRec{})
	msg.Register([]LogRec{})
}

// SetSnapshotter installs the application state hooks. Call before the
// node starts delivering (or before the follower's syncer starts).
func (p *Passive) SetSnapshotter(s Snapshotter) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snap = s
}

// SetLogCap bounds the delivered-command log to n operations (see
// DefaultLogCap; 0 disables the log: every joiner gets a snapshot). Call
// before the node starts.
func (p *Passive) SetLogCap(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.logCap = n
}

// NewFollower creates a catch-up replica: it holds the full replica state
// and serves reads at backup parity, but participates in no broadcast — its
// delivery stream is the log pulled from donor replicas (sync.go) instead
// of a node. Writes answer ErrNotPrimary with the current primary so
// gateways redirect; linearizable reads are served through the read-index
// barrier proxy once a Syncer is attached.
func NewFollower(sm PassiveStateMachine, self proc.ID) *Passive {
	p := NewPassive(sm, nil)
	p.self = self
	p.follower = true
	return p
}

// Follower reports whether this replica is a catch-up follower.
func (p *Passive) Follower() bool { return p.follower }

// Self returns the replica's process identity.
func (p *Passive) Self() proc.ID { return p.self }

// logAppendLocked records one delivered command ending at the current
// commit index; p.mu must be held and the command's state changes applied.
func (p *Passive) logAppendLocked(body any) {
	if p.store != nil && !p.storeReplay {
		// Stage for the durable engine (drained by persistDelivered at the
		// delivery's persist point, outside p.mu). Disk replay is excluded:
		// those records came FROM the engine.
		p.storeStaged = append(p.storeStaged, LogRec{End: p.commitIdx, Body: body})
	}
	if p.logCap <= 0 {
		p.logBase = p.commitIdx
		return
	}
	p.log = append(p.log, LogRec{End: p.commitIdx, Body: body})
	// The log covers (logBase, commitIdx], so the operations it retains are
	// the difference. Amortised trim: once they reach 2×cap, drop in one
	// copy every oldest record whose removal still leaves at least cap. The
	// trim points are a function of the command sequence alone, so every
	// replica that delivered the same sequence trims at the same index.
	if keep := uint64(p.logCap); p.commitIdx-p.logBase >= 2*keep {
		drop := sort.Search(len(p.log), func(i int) bool { return p.log[i].End > p.commitIdx-keep })
		if drop > 0 {
			p.logBase = p.log[drop-1].End
			p.log = append(p.log[:0:0], p.log[drop:]...)
		}
	}
}

// SyncSince returns up to max delivered commands covering (from, commitIdx],
// oldest first. ok=false means from precedes the retained window and the
// caller needs a snapshot instead.
func (p *Passive) SyncSince(from uint64, max int) (entries []LogRec, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < p.logBase {
		return nil, false
	}
	i := sort.Search(len(p.log), func(i int) bool { return p.log[i].End > from })
	j := len(p.log)
	if max > 0 && j-i > max {
		j = i + max
	}
	return slices.Clone(p.log[i:j]), true
}

// EncodeSnapshot captures the replica's full state at a delivery boundary
// and encodes it as a versioned snapshot. It is safe from any goroutine
// (deliveries are excluded for the duration) and in particular from the
// membership Snapshotter hook, which runs on the delivery goroutine at the
// ordered join's position in the total order.
func (p *Passive) EncodeSnapshot() []byte {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	_, data := p.captureSnapshotLocked()
	return data
}

// captureSnapshotLocked is EncodeSnapshot's body for callers already at a
// delivery boundary (deliverMu held): the storage compaction goroutine and
// CloseStorage also need the capture index for SaveSnapshot/TruncateBefore.
func (p *Passive) captureSnapshotLocked() (uint64, []byte) {
	p.mu.Lock()
	s := pSnapshot{
		Version:    snapshotVersion,
		Index:      p.commitIdx,
		Epoch:      p.epoch,
		ViewSeq:    p.replicas.Seq,
		Members:    slices.Clone(p.replicas.Members),
		LeaseClock: p.leaseClock,
		StateTS:    p.stateStamp.Load(),
	}
	ids := make([]string, 0, len(p.sessions))
	for id := range p.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := p.sessions[id]
		ss := pSessionSnap{ID: id, Pruned: rec.pruned, Deadline: rec.deadline}
		seqs := make([]uint64, 0, len(rec.results))
		for seq := range rec.results {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		for _, seq := range seqs {
			ss.Seqs = append(ss.Seqs, seq)
			ss.Results = append(ss.Results, rec.results[seq])
		}
		s.Sessions = append(s.Sessions, ss)
	}
	snapFn := p.snap.Snapshot
	p.mu.Unlock()

	if snapFn != nil {
		s.App = snapFn()
	}
	data, err := encodeSnapshot(s)
	if err != nil {
		// Only registration/encoding bugs can fail here; diverging replica
		// state would be worse than stopping.
		panic(fmt.Sprintf("replication: encode snapshot: %v", err))
	}
	if m := p.metrics.Load(); m != nil {
		m.snapEncoded.Inc()
		m.snapBytesOut.Add(uint64(len(data)))
	}
	return s.Index, data
}

func encodeSnapshot(s pSnapshot) ([]byte, error) {
	return msg.Encode(s)
}

func decodeSnapshot(data []byte) (pSnapshot, error) {
	v, err := msg.Decode(data)
	if err != nil {
		return pSnapshot{}, fmt.Errorf("replication: decode snapshot: %w", err)
	}
	s, ok := v.(pSnapshot)
	if !ok {
		return pSnapshot{}, fmt.Errorf("replication: unexpected snapshot type %T", v)
	}
	return s, nil
}

// InstallSnapshot replaces the replica's state with a snapshot captured at
// another replica's delivery boundary. Snapshots BEHIND the current commit
// index are ignored (nil error): the install paths — membership state
// transfer and the syncer's pull — may race, and the log has already
// covered anything older. An equal-index snapshot re-installs identical
// state (two replicas at one index hold the same state by construction),
// which lets a fresh follower adopt the view even before any command
// exists. The application state is restored through the Snapshotter hook.
func (p *Passive) InstallSnapshot(data []byte) error {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	idx, installed, err := p.installSnapshotLocked(data)
	if err != nil {
		return err
	}
	// Persist an ADOPTED snapshot so a restart replays from it instead of
	// transferring it again; WAL segments it covers are retired. Ignored
	// (behind-index) snapshots persist nothing, and disk replay is excluded
	// — its snapshot came FROM the engine.
	if installed && p.store != nil && !p.storeReplay {
		//gcsvet:ignore lockhold -- adopt must be atomic wrt deliveries; a delivery interleaved with install would fork the state
		if err := p.store.SaveSnapshot(idx, data); err != nil {
			return fmt.Errorf("replication: persist snapshot: %w", err)
		}
		if err := p.store.TruncateBefore(idx); err != nil {
			return fmt.Errorf("replication: truncate wal: %w", err)
		}
	}
	return nil
}

// installSnapshotLocked is InstallSnapshot's body for callers already
// holding deliverMu (ReplayStorage installs the engine's own snapshot). It
// reports the snapshot's index and whether it was adopted (false: behind
// the current commit index, ignored).
func (p *Passive) installSnapshotLocked(data []byte) (uint64, bool, error) {
	m := p.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	s, err := decodeSnapshot(data)
	if err != nil {
		return 0, false, err
	}
	if s.Version != snapshotVersion {
		return 0, false, fmt.Errorf("replication: snapshot version %d (want %d)", s.Version, snapshotVersion)
	}

	p.mu.Lock()
	if s.Index < p.commitIdx {
		p.mu.Unlock()
		return s.Index, false, nil
	}
	p.epoch = s.Epoch
	p.replicas = proc.View{Seq: s.ViewSeq, Members: slices.Clone(s.Members)}
	p.leaseClock = s.LeaseClock
	p.sessions = make(map[string]*sessionRecord, len(s.Sessions))
	for _, ss := range s.Sessions {
		rec := &sessionRecord{
			results:  make(map[uint64][]byte, len(ss.Seqs)),
			pruned:   ss.Pruned,
			deadline: ss.Deadline,
		}
		for i, seq := range ss.Seqs {
			rec.results[seq] = ss.Results[i]
		}
		p.sessions[ss.ID] = rec
	}
	// The retained log restarts empty at the snapshot's index: the
	// operations it counts (commitIdx - logBase) are zero once the index
	// advances below.
	p.log = nil
	p.logBase = s.Index
	restore := p.snap.Restore
	p.mu.Unlock()

	if restore != nil {
		restore(s.App)
	}

	// Only after the application state is in place: the commit index stands
	// for applied state (a monotonic reader woken here reads lock-free).
	p.mu.Lock()
	p.advanceCommitLocked(s.Index - p.commitIdx)
	p.mu.Unlock()
	// The snapshot replaced this replica's world: adopt the donor's
	// freshness stamp and conservatively forget any leadership lease (the
	// handoff gate survives, so lease reads resume only via a fresh grant).
	p.bumpStamp(s.StateTS)
	p.clearLeaseOnInstall()
	if m != nil {
		m.snapInstalled.Inc()
		m.snapBytesIn.Add(uint64(len(data)))
		m.snapshotInstall.Observe(time.Since(start))
	}
	return s.Index, true, nil
}

// ApplySyncEntries replays pulled log entries covering (from, ...] through
// the normal delivery handlers. Entries at or behind the current index are
// skipped; a gap (the replica's state moved past `from` through a racing
// snapshot install) aborts the batch silently — the next pull realigns.
func (p *Passive) ApplySyncEntries(from uint64, entries []LogRec) {
	p.deliverMu.Lock()
	defer p.deliverMu.Unlock()
	if p.store != nil && !p.storeReplay {
		// Bulk replay: suppress the per-entry fsync the update handlers would
		// force (nobody is acked off replayed entries) and close the batch
		// with one sync — the fsync-per-window contract applied to catch-up.
		p.storeBulk = true
		defer func() {
			p.storeBulk = false
			p.persistDelivered(true)
		}()
	}
	prevEnd := from
	for _, rec := range entries {
		start := prevEnd
		prevEnd = rec.End
		p.mu.Lock()
		cur := p.commitIdx
		p.mu.Unlock()
		if rec.End <= cur {
			continue
		}
		if start != cur {
			return // raced with a snapshot install; realign on the next pull
		}
		p.applyDelivered(rec.Body)
		p.mu.Lock()
		got := p.commitIdx
		p.mu.Unlock()
		if got != rec.End {
			// The replayed command did not advance the index as it did at
			// the donor: replicated-state divergence, fail loudly (the same
			// policy as an undecodable abcast batch).
			panic(fmt.Sprintf("replication: sync desync: entry ends at %d, commit index %d", rec.End, got))
		}
	}
}

// StateDigest returns a canonical encoding of the replica's replicated
// state (commit index, epoch, view, lease clock, dedup table, application
// snapshot). Two replicas at the same commit index return identical bytes;
// the chaos harness compares digests across replicas for byte-identical
// convergence. Per-replica counters (applied/ignored/duplicates) are
// deliberately excluded: a mid-life joiner never saw the skipped prefix.
func (p *Passive) StateDigest() []byte {
	return p.EncodeSnapshot()
}
