package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvdemo"
	"repro/internal/proc"
	"repro/internal/rchannel"
	"repro/internal/replication"
	"repro/internal/transport"
)

// ---- E15: recovery time vs state size ------------------------------------
//
// How long does a fresh follower take to become a read-serving replica of a
// running group, as a function of the state it must install? A 3-node group
// is pre-loaded with N keys (64-byte values) through the batched write
// path; then a follower with empty state joins via the state-transfer
// protocol (snapshot + catch-up cursor) and we measure the wall time from
// its first pull to "installed": snapshot received, applied, and caught up
// to a donor's commit index. The snapshot's wire size is reported alongside
// so the bytes-vs-time relation is visible. Without state transfer the same
// join would replay the entire command history — N ordered commands plus
// their acks — instead of len(snapshot) bytes.

// recoveryRecord is the JSON shape of one E15 row.
type recoveryRecord struct {
	Experiment    string  `json:"experiment"`
	Keys          int     `json:"keys"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	CommitIndex   uint64  `json:"commit_index"`
	InstallMS     float64 `json:"install_ms"` // first pull -> caught up
	PopulateS     float64 `json:"populate_s"` // load phase (context only)
}

func experimentRecovery() error {
	fmt.Println("== E15: follower recovery time vs state size ==")
	fmt.Println("3-node group + joining follower; snapshot state transfer + catch-up cursor")
	fmt.Println()
	fmt.Printf("%8s  %14s  %12s  %12s\n", "keys", "snapshot", "commitIdx", "install")
	for _, keys := range []int{256, 1024, 4096, 16384} {
		rec, err := runRecovery(keys)
		if err != nil {
			return err
		}
		fmt.Printf("%8d  %12dB  %12d  %9.1fms\n",
			rec.Keys, rec.SnapshotBytes, rec.CommitIndex, rec.InstallMS)
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	fmt.Println()
	return nil
}

func runRecovery(keys int) (recoveryRecord, error) {
	network := transport.NewNetwork(transport.WithDelay(50*time.Microsecond, 200*time.Microsecond), transport.WithSeed(15))
	defer network.Shutdown()
	ids := proc.IDs("s1", "s2", "s3")

	var (
		reps   []*replication.Passive
		nodes  []*core.Node
		stores []*kvdemo.Store
	)
	for _, id := range ids {
		store := kvdemo.New()
		rep := replication.NewPassive(store, ids)
		rep.SetSnapshotter(replication.Snapshotter{Snapshot: store.Snapshot, Restore: store.Restore})
		node, err := core.NewNode(network.Endpoint(id), core.Config{
			Self: id, Universe: ids, Relation: replication.PassiveRelation(),
			Snapshot: rep.EncodeSnapshot,
			Restore:  func(b []byte) { _ = rep.InstallSnapshot(b) },
		}, rep.DeliverFunc())
		if err != nil {
			return recoveryRecord{}, err
		}
		rep.Bind(node)
		replication.ServeSync(node.Endpoint(), rep, replication.SyncConfig{Join: node.Join})
		reps = append(reps, rep)
		nodes = append(nodes, node)
		stores = append(stores, store)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()

	// Load phase: N keys through the batched write path at the primary.
	primary := reps[0]
	defer primary.StopBatching()
	value := strings.Repeat("v", 64)
	start := time.Now()
	const writers = 32
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < keys; i += writers {
				op := fmt.Sprintf("put key%06d %s", i, value)
				if _, err := primary.RequestSession(fmt.Sprintf("loader%d", w), uint64(i/writers+1), 0, []byte(op), 30*time.Second); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return recoveryRecord{}, err
	default:
	}
	populate := time.Since(start)
	snapshotBytes := len(primary.EncodeSnapshot())

	// Join phase: a fresh follower pulls the snapshot and catches up.
	store := kvdemo.New()
	follower := replication.NewFollower(store, "f1")
	follower.SetSnapshotter(replication.Snapshotter{Snapshot: store.Snapshot, Restore: store.Restore})
	ep := rchannel.New(network.Endpoint("f1"), rchannel.WithRTO(20*time.Millisecond), rchannel.WithIncarnation(1))
	syncer := replication.NewSyncer(follower, ep, replication.SyncerConfig{
		Donors:   ids,
		Interval: time.Millisecond,
		Timeout:  2 * time.Second,
		Announce: true,
	})
	joinStart := time.Now()
	ep.Start()
	syncer.Start()
	defer func() {
		syncer.Stop()
		ep.Stop()
	}()
	select {
	case <-syncer.Installed():
	case <-time.After(60 * time.Second):
		return recoveryRecord{}, fmt.Errorf("follower never installed (%d keys)", keys)
	}
	install := time.Since(joinStart)

	// Sanity: the follower really holds the state.
	if got := store.Get("key000000"); got != value {
		return recoveryRecord{}, fmt.Errorf("follower state wrong: key000000=%q", got)
	}

	return recoveryRecord{
		Experiment:    "recovery",
		Keys:          keys,
		SnapshotBytes: snapshotBytes,
		CommitIndex:   follower.CommitIndex(),
		InstallMS:     float64(install.Microseconds()) / 1e3,
		PopulateS:     populate.Seconds(),
	}, nil
}
