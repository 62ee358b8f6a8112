package main

import "strings"

// metricDef names one metric of BENCHMARK.json; the drift guard checks the
// two lists against the file. BENCHMARK.json's per_layer entries may carry a
// name, a unit and a direction only, so what the issue also wants fixed per
// metric lives here, where the drift guard can check it: the layer (the
// name's prefix), the workloads that measure it and the end-to-end metrics it
// should move.
type metricDef struct {
	name, unit, better string
	// on: the workloads whose traced run measures the metric in place; there
	// alone it may be non-zero (a traced run must emit every metric, so it
	// reads 0 elsewhere, and the drift guard holds it to that). nil: an
	// isolated probe, run the same way in every traced run.
	on []string
	// moves: the end-to-end metrics it should move, on the workloads of on (a
	// probe: wherever its layer is on the path; README has the table). nil:
	// it moves none — health of the instrument, or a stage measured to show
	// that it lies off the path.
	moves []string
}

// layers are the module names under internal/, plus loadgen for the
// benchmark's own health numbers.
var layers = []string{"loadgen", "service", "replication", "storage", "gbcast", "abcast", "rbcast", "consensus",
	"rchannel", "transport", "msg", "eventq", "fd", "monitoring", "membership", "core"}

func (d metricDef) layer() string {
	layer, _, _ := strings.Cut(d.name, ".")
	return layer
}

var endToEndDefs = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "lat_p50_ms", unit: "ms", better: "lower"},
	{name: "lat_p99_ms", unit: "ms", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "outage_ms", unit: "ms", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// Workload sets of the on column.
var (
	onAll      = []string{"write_sat", "write_durable_rate", "read_mix", "gbcast_mix", "failover"}
	onSteady   = []string{"write_sat", "write_durable_rate", "read_mix", "gbcast_mix"} // all but the crash trials
	onBudget   = []string{"write_sat", "write_durable_rate", "read_mix"}               // the stage budget of a service call
	onService  = []string{"write_sat", "write_durable_rate", "read_mix", "failover"}   // every run with replication and a gateway
	onOpenLoop = []string{"write_durable_rate", "failover"}
	onDurable  = []string{"write_durable_rate"}
	onReads    = []string{"read_mix"}
	onGbcast   = []string{"gbcast_mix"}
	onFailover = []string{"failover"}
)

// Sets of the moves column.
var (
	mvLat     = []string{"lat_p50_ms", "lat_p99_ms"}
	mvP50     = []string{"lat_p50_ms"}
	mvP99     = []string{"lat_p99_ms"}
	mvThru    = []string{"ops_per_s", "lat_p50_ms"}
	mvReads   = []string{"lat_p99_ms", "ops_per_s"}
	mvCost    = []string{"cpu_us_per_op", "allocs_per_op"}
	mvCPU     = []string{"cpu_us_per_op", "ops_per_s"}
	mvCodec   = []string{"cpu_us_per_op", "allocs_per_op", "ops_per_s"}
	mvBursts  = []string{"lat_p99_ms", "ops_per_s"}
	mvOutage  = []string{"outage_ms"}
	mvSetup   = []string{"setup_s"}
	mvNothing = []string(nil)
)

// perLayerDefs lists every per-layer metric, in layer order. A traced run
// emits all of them; one that the workload does not measure reads 0, which
// is itself the prediction — storage.* is 0 wherever storage is off the path.
var perLayerDefs = []metricDef{
	{"loadgen.sched_lag_p99_us", "us", "lower", onOpenLoop, mvNothing},
	{"loadgen.trace_overhead_frac", "frac", "lower", onSteady, mvNothing},
	{"loadgen.budget_residual_frac", "frac", "lower", onService, mvNothing},
	{"loadgen.timer_res_us", "us", "lower", nil, mvNothing},

	{"service.client_to_replica_us_p50", "us", "lower", onBudget, mvP50},
	{"service.replica_to_client_us_p50", "us", "lower", onBudget, mvP50},
	{"service.client_send_us_p50", "us", "lower", onBudget, mvP50},
	{"service.client_recv_us_p50", "us", "lower", onBudget, mvP50},
	{"service.read_path_us_p50", "us", "lower", onReads, mvP50},
	{"service.max_inflight", "count", "higher", onService, mvP99},
	{"service.redirects", "count", "lower", onService, mvP99},
	{"service.timeouts", "count", "lower", onService, mvP99},
	{"service.client_retries", "count", "lower", onService, mvP99},
	{"service.failover_client_ms", "ms", "lower", onFailover, mvOutage},

	{"replication.batch_wait_us_p50", "us", "lower", onBudget, mvLat},
	{"replication.execute_us_p50", "us", "lower", onBudget, mvLat},
	{"replication.order_us_p50", "us", "lower", onBudget, mvLat},
	{"replication.order_us_p99", "us", "lower", onBudget, mvP99},
	{"replication.apply_us_p50", "us", "lower", onBudget, mvLat},
	{"replication.ack_us_p50", "us", "lower", onBudget, mvLat},
	{"replication.ops_per_batch", "count", "higher", onService, mvThru},
	{"replication.window_us", "us", "lower", onService, mvThru},
	{"replication.max_batch", "count", "higher", onService, mvThru},
	{"replication.deliver_busy_frac", "frac", "lower", onService, mvThru},
	{"replication.request_direct_us", "us", "lower", nil, mvP50},
	{"replication.read_gate_us_p50", "us", "lower", onReads, mvReads},
	{"replication.read_gate_us_p99", "us", "lower", onReads, mvReads},
	{"replication.lease_read_frac", "frac", "higher", onReads, mvReads},
	{"replication.lease_fallbacks", "count", "lower", onReads, mvReads},
	{"replication.reads_per_barrier", "count", "higher", onReads, mvReads},
	{"replication.primary_change_ms", "ms", "lower", onFailover, mvOutage},

	{"storage.append_us_p50", "us", "lower", onDurable, mvP50},
	{"storage.sync_us_p50", "us", "lower", onDurable, mvP50},
	{"storage.syncs_per_batch", "count", "lower", onDurable, mvP50},
	{"storage.wal_bytes_per_op", "B", "lower", onDurable, mvP50},
	{"storage.disk_sync_us", "us", "lower", nil, mvNothing},

	{"gbcast.fast_frac", "frac", "higher", onAll, mvThru},
	{"gbcast.boundaries", "count", "lower", onAll, mvThru},
	{"gbcast.fast_deliver_us_p50", "us", "lower", onGbcast, mvThru},
	{"gbcast.ordered_deliver_us_p50", "us", "lower", onGbcast, mvThru},
	{"gbcast.oracle_retries", "count", "lower", onGbcast, mvNothing},
	{"abcast.deliver_us", "us", "lower", nil, mvP50},
	{"rbcast.deliver_us", "us", "lower", nil, mvP50},
	{"consensus.decide_us", "us", "lower", nil, mvP50},
	{"consensus.msgs_per_decision", "count", "lower", nil, mvP50},

	{"rchannel.rtt_us", "us", "lower", nil, mvCost},
	{"rchannel.send_allocs", "count", "lower", nil, mvCost},
	{"rchannel.retransmits", "count", "lower", onAll, mvP99},
	{"rchannel.frames_per_op", "count", "lower", onAll, mvCost},

	{"transport.msgs_per_op", "count", "lower", onAll, mvCPU},
	{"transport.bytes_per_op", "B", "lower", onAll, mvCPU},
	{"transport.dropped", "count", "lower", onAll, mvCPU},
	{"transport.send_ns_p50", "ns", "lower", onAll, mvCPU},
	{"transport.rtt_us", "us", "lower", nil, mvCPU},

	{"msg.decode_ns_per_frame", "ns", "lower", nil, mvCodec},
	{"msg.encode_ns_per_frame", "ns", "lower", nil, mvCodec},
	{"msg.decode_allocs_per_frame", "count", "lower", nil, mvCodec},
	{"msg.encode_allocs_per_frame", "count", "lower", nil, mvCodec},
	{"msg.frame_bytes_mean", "B", "lower", nil, mvCodec},
	{"msg.codec_cpu_frac_est", "frac", "lower", nil, mvCodec},

	{"eventq.pop_ns_backlog1", "ns", "lower", nil, mvBursts},
	{"eventq.pop_ns_backlog4096", "ns", "lower", nil, mvBursts},

	{"fd.detect_ms", "ms", "lower", onFailover, mvOutage},
	{"fd.false_suspicions", "count", "lower", onService, mvP99},
	{"monitoring.exclude_ms", "ms", "lower", onFailover, mvNothing},
	{"membership.view_ms", "ms", "lower", onFailover, mvNothing},
	{"membership.view_changes", "count", "lower", onService, mvP99},
	{"core.start_ms", "ms", "lower", onAll, mvSetup},
}

// perLayer accumulates a traced run's per-layer values.
type perLayer struct {
	values map[string]float64
}

func newPerLayer() *perLayer { return &perLayer{values: make(map[string]float64)} }

func (p *perLayer) set(name string, v float64) { p.values[name] = v }

// emit prints every per-layer metric, unset ones as 0.
func (p *perLayer) emit(rep *report) {
	for _, d := range perLayerDefs {
		rep.emit(d.name, p.values[d.name], d.unit)
	}
	for name := range p.values {
		known := false
		for _, d := range perLayerDefs {
			known = known || d.name == name
		}
		if !known {
			rep.invalid = append(rep.invalid, "per-layer metric "+name+" is not in perLayerDefs")
		}
	}
}

// budget fills the stage metrics from the write and read budgets.
func (p *perLayer) budget(w, r *budget) {
	p.set("loadgen.budget_residual_frac", max(w.residualFrac(), r.residualFrac()))
	if len(w.client) > 0 {
		p.set("service.client_to_replica_us_p50", w.at(0.50, "service.client_send", "service.gateway_in"))
		p.set("service.replica_to_client_us_p50", w.at(0.50, "service.gateway_out", "service.client_recv"))
		p.set("service.client_send_us_p50", w.at(0.50, "service.client_send"))
		p.set("service.client_recv_us_p50", w.at(0.50, "service.client_recv"))
		p.set("replication.batch_wait_us_p50", w.at(0.50, "replication.batch_wait"))
		p.set("replication.execute_us_p50", w.at(0.50, "replication.execute"))
		p.set("replication.order_us_p50", w.at(0.50, "replication.order"))
		p.set("replication.order_us_p99", w.at(0.99, "replication.order"))
		p.set("replication.apply_us_p50", w.at(0.50, "replication.apply"))
		p.set("replication.ack_us_p50", w.at(0.50, "ack self"))
	}
	if len(r.client) > 0 {
		p.set("service.read_path_us_p50", r.at(0.50, "service.client_send", "service.gateway_gate"))
		if len(w.client) == 0 {
			p.set("service.replica_to_client_us_p50", r.at(0.50, "service.gateway_out", "service.client_recv"))
		}
	}
}

// counts fills the metrics that are deltas of public Stats() counters over
// the window, per completed operation where that is the useful base.
func (p *perLayer) counts(a, b counters, ops uint64, secs float64) {
	perOp := func(d uint64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(d) / float64(ops)
	}
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	p.set("transport.msgs_per_op", perOp(b.netSent-a.netSent))
	p.set("transport.bytes_per_op", perOp(b.netBytes-a.netBytes))
	p.set("transport.dropped", float64(b.netDropped-a.netDropped))
	p.set("rchannel.frames_per_op", perOp(b.chAdmitted-a.chAdmitted))
	p.set("rchannel.retransmits", float64(b.chRetransmits-a.chRetransmits))
	fast, ordered := b.gbFast-a.gbFast, b.gbOrdered-a.gbOrdered
	p.set("gbcast.fast_frac", ratio(fast, fast+ordered))
	p.set("gbcast.boundaries", float64(b.gbBoundaries-a.gbBoundaries))

	batches := b.batches - a.batches
	p.set("replication.ops_per_batch", ratio(b.batchOps-a.batchOps, batches))
	if batches > 0 {
		// Exact because one commit window is in flight at a time.
		p.set("replication.window_us", secs*1e6/float64(batches))
	}
	p.set("replication.max_batch", float64(b.maxBatch))
	p.set("replication.deliver_busy_frac", float64(b.deliverNs-a.deliverNs)/(secs*1e9))
	lease, barrierReads := b.leaseReads-a.leaseReads, b.barrierReads-a.barrierReads
	p.set("replication.lease_read_frac", ratio(lease, lease+barrierReads))
	p.set("replication.lease_fallbacks", float64(b.leaseFallbacks-a.leaseFallbacks))
	p.set("replication.reads_per_barrier", ratio(barrierReads, b.barriers-a.barriers))

	p.set("storage.syncs_per_batch", ratio(b.walSyncs-a.walSyncs, batches))
	p.set("storage.wal_bytes_per_op", perOp(b.walBytes-a.walBytes))

	p.set("service.max_inflight", float64(b.gwMaxInflight))
	p.set("service.redirects", float64(b.gwRedirects-a.gwRedirects))
	p.set("service.timeouts", float64(b.gwTimeouts-a.gwTimeouts))
	p.set("service.client_retries", float64(b.clientRetries-a.clientRetries))
}

// traced fills the metrics the decorators timed directly.
func (p *perLayer) traced(tr *tracer) {
	p.set("transport.send_ns_p50", quantile(toFloats(tr.sendNs.samples(), 1), 0.50))
	if gate := toFloats(tr.gateNs.samples(), 1e3); len(gate) > 0 {
		p.set("replication.read_gate_us_p50", quantile(gate, 0.50))
		p.set("replication.read_gate_us_p99", quantile(gate, 0.99))
	}
	var appends, syncs []float64
	tr.mu.Lock()
	for _, spans := range tr.io {
		for _, sp := range spans {
			if sp.sync {
				syncs = append(syncs, float64(sp.end-sp.start)/1e3)
			} else {
				appends = append(appends, float64(sp.end-sp.start)/1e3)
			}
		}
	}
	tr.mu.Unlock()
	p.set("storage.append_us_p50", quantile(appends, 0.50))
	p.set("storage.sync_us_p50", quantile(syncs, 0.50))
}
