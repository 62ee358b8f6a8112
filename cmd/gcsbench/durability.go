package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// ---- E17: durability tax ---------------------------------------------------
//
// What durable-before-ack costs on the batched write path. Three engines run
// the identical closed-loop workload of E12 (batching on):
//
//   - none    the pre-storage baseline: no engine attached, acks are
//             volatile (whole-cluster power loss forgets them)
//   - memory  the in-process engine: the full storage code path (encode,
//             append, sync accounting) without a medium — isolates the
//             logging overhead from the fsync itself
//   - file    the segmented-WAL file engine: every commit window is fsynced
//             at each replica before its acks release
//
// The durability tax is the file row's ops/s against the none row of the
// same sessions count. Because the WAL sync rides the group-commit batcher —
// one record, one fsync per commit window regardless of the ops it carries —
// the tax amortizes as sessions grow: fsyncs_per_window ≈ 1 is the proof,
// printed per row, and the acceptance bar is file within 2× of the volatile
// baseline at 64 batched sessions. fsync_p99_us prices one sync on the
// runner's medium for context.

// durabilityRecord is the JSON shape of one measurement row.
type durabilityRecord struct {
	Experiment      string  `json:"experiment"`
	Engine          string  `json:"engine"` // none | memory | file
	Sessions        int     `json:"sessions"`
	DurationS       float64 `json:"duration_s"`
	Ops             uint64  `json:"ops"`
	OpsPerSec       float64 `json:"ops_per_s"`
	MeanUS          float64 `json:"mean_us"`
	P99US           float64 `json:"p99_us"`
	Batches         uint64  `json:"batches"`           // commit windows at the primary
	Fsyncs          uint64  `json:"fsyncs"`            // engine syncs at the primary
	FsyncsPerWindow float64 `json:"fsyncs_per_window"` // ≈1 when amortization works
	FsyncP99US      float64 `json:"fsync_p99_us"`      // one sync on this medium (file only)
	WALBytes        int64   `json:"wal_bytes"`         // primary WAL footprint at run end
	DurableTaxPct   float64 `json:"durable_tax_pct"`   // ops/s loss vs none at same sessions
}

func experimentDurability() error {
	fmt.Println("== E17 — durability tax: fsync-per-commit-window vs volatile acks ==")
	fmt.Println("   batched write path; engine=none is the volatile baseline, file fsyncs every window")
	fmt.Printf("%-8s %-10s %10s %12s %10s %10s %9s %11s %8s\n",
		"engine", "sessions", "ops", "ops/s", "mean", "p99", "fsyncs", "syncs/win", "tax")

	const runFor = 2 * time.Second
	const trials = 3
	for _, sessions := range []int{16, 64} {
		var baseline float64
		for _, engine := range []string{"none", "memory", "file"} {
			// Median-of-N by ops/s: one closed-loop trial is ±10% noisy on
			// the simulated network, and the tax division doubles the noise.
			recs := make([]durabilityRecord, 0, trials)
			for t := 0; t < trials; t++ {
				rec, err := runDurability(engine, sessions, runFor, int64(1700+16*sessions+t))
				if err != nil {
					return err
				}
				recs = append(recs, rec)
			}
			sort.Slice(recs, func(i, j int) bool { return recs[i].OpsPerSec < recs[j].OpsPerSec })
			rec := recs[len(recs)/2]
			if engine == "none" {
				baseline = rec.OpsPerSec
			} else if baseline > 0 {
				rec.DurableTaxPct = (baseline - rec.OpsPerSec) / baseline * 100
			}
			fmt.Printf("%-8s %-10d %10d %12.0f %10v %10v %9d %11.2f %7.1f%%\n",
				rec.Engine, rec.Sessions, rec.Ops, rec.OpsPerSec,
				time.Duration(rec.MeanUS*float64(time.Microsecond)).Round(time.Microsecond),
				time.Duration(rec.P99US*float64(time.Microsecond)).Round(time.Microsecond),
				rec.Fsyncs, rec.FsyncsPerWindow, rec.DurableTaxPct)
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
	}
	return nil
}

// buildDurableHarness is buildSvcHarness (pipelined dispatch) with a storage
// engine attached to every replica before its stack starts — the wiring a
// durable gcsnode performs. mkEngine nil builds the volatile baseline.
func buildDurableHarness(seed int64, mkEngine func(id string) (storage.Engine, error)) (*svcHarness, error) {
	h := &svcHarness{network: newNet(seed)}
	members := ids(3, "s")
	addrs := make(map[proc.ID]string)
	for _, id := range members {
		addrs[id] = string(id)
	}
	for _, id := range members {
		sm := &benchSM{}
		h.sms = append(h.sms, sm)
		rep := replication.NewPassive(sm, members)
		if mkEngine != nil {
			eng, err := mkEngine(string(id))
			if err != nil {
				return nil, err
			}
			rep.SetStorage(replication.StorageConfig{Engine: eng})
			if _, err := rep.ReplayStorage(); err != nil {
				return nil, err
			}
		}
		nd, err := core.NewNode(h.network.Endpoint(id),
			core.Config{Self: id, Universe: members, Relation: replication.PassiveRelation()},
			rep.DeliverFunc())
		if err != nil {
			return nil, err
		}
		rep.Bind(nd)
		h.nodes = append(h.nodes, nd)
		h.reps = append(h.reps, rep)
	}
	for _, nd := range h.nodes {
		nd.Start()
	}
	for i, id := range members {
		gw := service.NewGateway(service.GatewayConfig{
			Self:     id,
			Replica:  h.reps[i],
			Read:     h.sms[i].read,
			Addrs:    addrs,
			Batching: true,
		})
		l, err := h.network.ListenStream(id)
		if err != nil {
			return nil, err
		}
		gw.Serve(l)
		h.gws = append(h.gws, gw)
	}
	return h, nil
}

func runDurability(engine string, sessions int, runFor time.Duration, seed int64) (durabilityRecord, error) {
	var mkEngine func(id string) (storage.Engine, error)
	switch engine {
	case "none":
	case "memory":
		mkEngine = func(string) (storage.Engine, error) { return storage.NewMemory(), nil }
	case "file":
		dir, err := os.MkdirTemp("", "gcsbench-durability-")
		if err != nil {
			return durabilityRecord{}, err
		}
		defer os.RemoveAll(dir)
		mkEngine = func(id string) (storage.Engine, error) {
			return storage.Open(filepath.Join(dir, id), storage.Config{})
		}
	default:
		return durabilityRecord{}, fmt.Errorf("unknown engine %q", engine)
	}
	h, err := buildDurableHarness(seed, mkEngine)
	if err != nil {
		return durabilityRecord{}, err
	}
	defer h.stop()
	// Every run carries the identical instrumentation (the fsync histogram
	// only fills on durable rows), so the engine dimension is the ONLY
	// difference between compared rows.
	reg := telemetry.NewRegistry()
	h.reps[0].RegisterMetrics(reg.Scope(telemetry.L("node", "s0")))
	fsyncHist := reg.Histogram("gcs_storage_fsync_seconds", "", telemetry.L("node", "s0"))
	warm(h.network)

	dial := h.dialer()
	addrList := []string{"s0", "s1", "s2"}

	var (
		wg      sync.WaitGroup
		hist    = telemetry.NewHistogram()
		ops     atomic.Uint64
		stop    = make(chan struct{})
		downErr atomic.Value
	)
	clients := make([]*service.Client, sessions)
	for i := range clients {
		cl, err := service.NewClient(service.ClientConfig{
			Addrs: addrList,
			Dial:  dial,
		})
		if err != nil {
			return durabilityRecord{}, err
		}
		clients[i] = cl
		defer cl.Close()
	}

	start := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *service.Client) {
			defer wg.Done()
			op := benchPayload()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if _, err := cl.Call(op); err != nil {
					downErr.Store(err)
					return
				}
				ops.Add(1)
				hist.Observe(time.Since(t0))
			}
		}(cl)
	}
	time.Sleep(runFor)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := downErr.Load().(error); ok && err != nil {
		return durabilityRecord{}, err
	}

	bst := h.reps[0].BatchStats()
	sst := h.reps[0].StorageStats()
	rec := durabilityRecord{
		Experiment: "durability",
		Engine:     engine,
		Sessions:   sessions,
		DurationS:  elapsed.Seconds(),
		Ops:        ops.Load(),
		OpsPerSec:  float64(ops.Load()) / elapsed.Seconds(),
		MeanUS:     float64(hist.Mean()) / float64(time.Microsecond),
		P99US:      float64(hist.Quantile(0.99)) / float64(time.Microsecond),
		Batches:    bst.Batches,
		Fsyncs:     sst.Syncs,
		FsyncP99US: float64(fsyncHist.Quantile(0.99)) / float64(time.Microsecond),
		WALBytes:   sst.WALBytes,
	}
	if bst.Batches > 0 {
		rec.FsyncsPerWindow = float64(sst.Syncs) / float64(bst.Batches)
	}
	return rec, nil
}
