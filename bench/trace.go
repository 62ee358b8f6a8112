package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gbcast"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The traced pass measures the layers from OUTSIDE: decorators sit only at
// interfaces the stack already accepts from its caller (transport.Transport,
// service.Replica, replication.PassiveStateMachine and the gateway's read
// function, storage.Engine, core.DeliverFunc, the client's Dialer). Each
// decorator stamps a mark on the operation's record, found through the
// (client, seq) key in the payload. Marks are boundaries, so consecutive
// stages are contiguous by construction and their durations sum to the
// client span exactly.

// Marks of one operation, in the order a write passes them.
const (
	mCallStart = iota // load generator calls Client.Call / ReadAt
	mConnSend         // client hands the encoded request to its stream
	mReqIn            // gateway enters Replica.RequestSession
	mExecIn           // batcher flush starts Execute for this op
	mExecOut          //
	mApplyIn          // the op's ApplyUpdate at the serving replica
	mApplyOut         //
	mReqOut           // RequestSession returns to the gateway
	mReadIn           // gateway's read function (reads only)
	mReadOut          //
	mConnRecv         // client's stream delivers the response frame
	mCallEnd          // Call returns to the load generator
	nMarks
)

type opRec struct {
	t    [nMarks]atomic.Int64
	node atomic.Int32 // replica that served RequestSession, +1
}

// ring collects duration samples from concurrent writers, dropping once full.
type ring struct {
	next atomic.Int64
	buf  []int64
}

func newRing(n int) *ring { return &ring{buf: make([]int64, n)} }

func (r *ring) add(v int64) {
	if i := r.next.Add(1) - 1; i < int64(len(r.buf)) {
		r.buf[i] = v
	}
}

func (r *ring) samples() []int64 {
	n := min(r.next.Load(), int64(len(r.buf)))
	return r.buf[:n]
}

// ioSpan is one storage call at one node.
type ioSpan struct {
	start, end int64
	sync       bool
}

type tracer struct {
	epoch time.Time
	recs  [][]opRec // [client][seq]

	sendNs  *ring           // transport.Send durations
	gateNs  *ring           // Replica.ReadBarrier durations (the linearizable read gate)
	deliver [3]atomic.Int64 // ns spent inside the delivery callback, per node
	change  [3]atomic.Int64 // first primary-change hook time after arm, per node
	armed   atomic.Int64    // change hooks record only after this time (0 = never)

	mu        sync.Mutex
	io        [3][]ioSpan
	frames    [][]byte // raw frames captured at the transport decorator
	frameFrom int64    // capture starts at this time
}

const maxFrames = 4096

// newTracer pre-allocates opsCap operation records per client and rings of
// ringCap samples; operations and samples beyond that are not traced.
func newTracer(clients, opsCap, ringCap int) *tracer {
	t := &tracer{
		epoch:  time.Now(),
		recs:   make([][]opRec, clients),
		sendNs: newRing(ringCap),
		gateNs: newRing(ringCap),
	}
	for i := range t.recs {
		t.recs[i] = make([]opRec, opsCap)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) rec(k opKey) *opRec {
	if int(k.client) >= len(t.recs) || k.seq >= uint64(len(t.recs[k.client])) {
		return nil
	}
	return &t.recs[k.client][k.seq]
}

func (t *tracer) mark(k opKey, m int) {
	if r := t.rec(k); r != nil {
		r.t[m].Store(t.now())
	}
}

// ---- transport.Transport ---------------------------------------------------

type tracedTransport struct {
	transport.Transport
	tr *tracer
}

func (d *tracedTransport) Send(to proc.ID, data []byte) {
	t0 := d.tr.now()
	d.Transport.Send(to, data)
	t1 := d.tr.now()
	d.tr.sendNs.add(t1 - t0)
	d.tr.capture(data, t0)
}

// startCapture opens the frame capture: the window's first maxFrames frames
// are kept for the codec probe.
func (t *tracer) startCapture() {
	t.mu.Lock()
	t.frameFrom = t.now()
	t.mu.Unlock()
}

func (t *tracer) capture(data []byte, now int64) {
	t.mu.Lock()
	if t.frameFrom > 0 && now >= t.frameFrom && len(t.frames) < maxFrames {
		t.frames = append(t.frames, append([]byte(nil), data...))
	}
	t.mu.Unlock()
}

// ---- service.Replica ---------------------------------------------------------

type tracedReplica struct {
	service.Replica
	tr   *tracer
	node int
}

func (d *tracedReplica) RequestSession(session string, seq, ack uint64, op []byte, timeout time.Duration) ([]byte, error) {
	r := (*opRec)(nil)
	if k, ok := keyAt(op); ok {
		if r = d.tr.rec(k); r != nil {
			r.node.Store(int32(d.node) + 1)
			r.t[mReqIn].Store(d.tr.now())
		}
	}
	res, err := d.Replica.RequestSession(session, seq, ack, op, timeout)
	if r != nil {
		r.t[mReqOut].Store(d.tr.now())
	}
	return res, err
}

func (d *tracedReplica) ReadBarrier(timeout time.Duration, abort <-chan struct{}) (uint64, error) {
	t0 := d.tr.now()
	idx, err := d.Replica.ReadBarrier(timeout, abort)
	d.tr.gateNs.add(d.tr.now() - t0)
	return idx, err
}

func (d *tracedReplica) OnPrimaryChange(fn func(primary proc.ID, epoch uint64)) {
	if fn == nil {
		d.Replica.OnPrimaryChange(nil)
		return
	}
	d.Replica.OnPrimaryChange(func(primary proc.ID, epoch uint64) {
		if d.tr.armed.Load() > 0 {
			d.tr.change[d.node].CompareAndSwap(0, d.tr.now())
		}
		fn(primary, epoch)
	})
}

// ---- replication.PassiveStateMachine + the gateway's read function ---------

type tracedSM struct {
	sm   *oracleSM
	tr   *tracer
	node int
}

func (d *tracedSM) Execute(op []byte) ([]byte, []byte) {
	k, ok := keyAt(op)
	if ok {
		d.tr.mark(k, mExecIn)
	}
	res, upd := d.sm.Execute(op)
	if ok {
		d.tr.mark(k, mExecOut)
	}
	return res, upd
}

func (d *tracedSM) ApplyUpdate(update []byte) {
	r := (*opRec)(nil)
	if k, ok := keyAt(update); ok {
		// Every replica applies every update; only the serving replica's
		// apply is on the client's blocking path.
		if r = d.tr.rec(k); r != nil && r.node.Load() != int32(d.node)+1 {
			r = nil
		}
	}
	if r != nil {
		r.t[mApplyIn].Store(d.tr.now())
	}
	d.sm.ApplyUpdate(update)
	if r != nil {
		r.t[mApplyOut].Store(d.tr.now())
	}
}

func (d *tracedSM) read(op []byte) []byte {
	k, ok := keyAt(op)
	if ok {
		d.tr.mark(k, mReadIn)
	}
	out := d.sm.read(op)
	if ok {
		d.tr.mark(k, mReadOut)
	}
	return out
}

var _ replication.PassiveStateMachine = (*tracedSM)(nil)

// ---- storage.Engine ------------------------------------------------------------

type tracedEngine struct {
	storage.Engine
	tr   *tracer
	node int
}

func (d *tracedEngine) span(start int64, sync bool) {
	end := d.tr.now()
	d.tr.mu.Lock()
	d.tr.io[d.node] = append(d.tr.io[d.node], ioSpan{start: start, end: end, sync: sync})
	d.tr.mu.Unlock()
}

func (d *tracedEngine) Append(rec storage.Record) error {
	defer d.span(d.tr.now(), false)
	return d.Engine.Append(rec)
}

func (d *tracedEngine) Sync() error {
	defer d.span(d.tr.now(), true)
	return d.Engine.Sync()
}

// ---- core.DeliverFunc ------------------------------------------------------------

func (t *tracer) deliverFunc(node int, inner core.DeliverFunc) core.DeliverFunc {
	return func(d gbcast.Delivery) {
		t0 := t.now()
		inner(d)
		t.deliver[node].Add(t.now() - t0)
	}
}

// ---- the client's Dialer -------------------------------------------------------

type tracedConn struct {
	transport.StreamConn
	tr *tracer
}

func (c *tracedConn) Send(frame []byte) error {
	if k, ok := findKey(frame); ok {
		c.tr.mark(k, mConnSend)
	}
	return c.StreamConn.Send(frame)
}

func (c *tracedConn) Recv() ([]byte, error) {
	frame, err := c.StreamConn.Recv()
	if err == nil {
		if k, ok := findKey(frame); ok {
			c.tr.mark(k, mConnRecv)
		}
	}
	return frame, err
}

func (t *tracer) dialer(inner service.Dialer) service.Dialer {
	return func(addr string) (transport.StreamConn, error) {
		conn, err := inner(addr)
		if err != nil {
			return nil, err
		}
		return &tracedConn{StreamConn: conn, tr: t}, nil
	}
}

// ---- budget -----------------------------------------------------------------------

// stage is one row of the budget table: a contiguous slice of the client
// span, in microseconds per operation.
type stage struct {
	name    string
	parent  string
	from    int // marks bounding the stage
	to      int
	samples []float64
}

// budget is the per-stage breakdown of the traced operations of one kind.
type budget struct {
	kind   string // "write" or "read"
	client []float64
	stages []*stage
	// storage is the time the serving replica spent in Append/Sync inside the
	// op's ack stage (a child of replication.ack); ackSelf is ack minus it.
	storage []float64
	ackSelf []float64

	bands map[float64][]int // band(q), computed once: each costs two sorts
}

func writeStages() []*stage {
	return []*stage{
		{name: "service.client_send", parent: "service.client_to_replica", from: mCallStart, to: mConnSend},
		{name: "service.gateway_in", parent: "service.client_to_replica", from: mConnSend, to: mReqIn},
		{name: "replication.batch_wait", parent: "client", from: mReqIn, to: mExecIn},
		{name: "replication.execute", parent: "client", from: mExecIn, to: mExecOut},
		{name: "replication.order", parent: "client", from: mExecOut, to: mApplyIn},
		{name: "replication.apply", parent: "client", from: mApplyIn, to: mApplyOut},
		{name: "replication.ack", parent: "client", from: mApplyOut, to: mReqOut},
		{name: "service.gateway_out", parent: "service.replica_to_client", from: mReqOut, to: mConnRecv},
		{name: "service.client_recv", parent: "service.replica_to_client", from: mConnRecv, to: mCallEnd},
	}
}

func readStages() []*stage {
	return []*stage{
		{name: "service.client_send", parent: "service.read_path", from: mCallStart, to: mConnSend},
		{name: "service.gateway_gate", parent: "service.read_path", from: mConnSend, to: mReadIn},
		{name: "service.read_fn", parent: "client", from: mReadIn, to: mReadOut},
		{name: "service.gateway_out", parent: "service.replica_to_client", from: mReadOut, to: mConnRecv},
		{name: "service.client_recv", parent: "service.replica_to_client", from: mConnRecv, to: mCallEnd},
	}
}

// budgets walks the operation records whose whole client span lies inside
// [from, to] and splits them into the write and read budget.
func (t *tracer) budgets(from, to int64) (w, r *budget) {
	w = &budget{kind: "write", stages: writeStages()}
	r = &budget{kind: "read", stages: readStages()}
	t.mu.Lock()
	io := t.io
	t.mu.Unlock()
	for c := range t.recs {
		for s := range t.recs[c] {
			rec := &t.recs[c][s]
			t0, t1 := rec.t[mCallStart].Load(), rec.t[mCallEnd].Load()
			if t0 < from || t1 == 0 || t1 > to {
				continue
			}
			b := w
			if rec.t[mReadIn].Load() != 0 {
				b = r
			}
			if !b.add(rec) {
				continue
			}
			if b == w {
				node := int(rec.node.Load()) - 1
				a0, a1 := rec.t[mApplyOut].Load(), rec.t[mReqOut].Load()
				st := float64(overlap(io[node], a0, a1)) / 1e3
				w.storage = append(w.storage, st)
				w.ackSelf = append(w.ackSelf, float64(a1-a0)/1e3-st)
			}
		}
	}
	return w, r
}

// add appends one operation's stage durations; an operation missing a mark
// or with marks out of order (a retransmitted op) is skipped.
func (b *budget) add(rec *opRec) bool {
	prev := rec.t[b.stages[0].from].Load()
	for _, st := range b.stages {
		at := rec.t[st.to].Load()
		if at == 0 || at < prev {
			return false
		}
		prev = at
	}
	for _, st := range b.stages {
		st.samples = append(st.samples, float64(rec.t[st.to].Load()-rec.t[st.from].Load())/1e3)
	}
	b.client = append(b.client, float64(rec.t[mCallEnd].Load()-rec.t[mCallStart].Load())/1e3)
	return true
}

// overlap sums the parts of the (time-ordered) spans inside [from, to].
func overlap(spans []ioSpan, from, to int64) int64 {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > from })
	var sum int64
	for ; i < len(spans) && spans[i].start < to; i++ {
		sum += min(spans[i].end, to) - max(spans[i].start, from)
	}
	return sum
}

// A stage's marginal median is no use for a budget: medians do not add, and
// the stages of a 3 ms operation have skewed, correlated distributions (the
// marginal p50s here sum to ~80 % of the client p50). The budget therefore
// describes THE MEDIAN OPERATION: the operations whose client span lies in a
// narrow band around the client's p50 (p99 for the tail budget), and each
// stage's mean over that band. Band means add up to the band's mean client
// span, which is the client percentile to within the band's width.
const bandHalfWidth = 0.05

// band selects the operations whose client span lies within the band
// around the q-quantile.
func (b *budget) band(q float64) []int {
	halfWidth := bandWidthFor(q)
	if idx, ok := b.bands[q]; ok {
		return idx
	}
	lo := quantile(b.client, max(q-halfWidth, 0))
	hi := quantile(b.client, min(q+halfWidth, 1))
	var idx []int
	for i, v := range b.client {
		if v >= lo && v <= hi {
			idx = append(idx, i)
		}
	}
	if b.bands == nil {
		b.bands = make(map[float64][]int)
	}
	b.bands[q] = idx
	return idx
}

func meanAt(samples []float64, idx []int) float64 {
	if len(idx) == 0 || len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, i := range idx {
		sum += samples[i]
	}
	return sum / float64(len(idx))
}

// at returns the time the q-quantile operation spent in the named stages
// (summed), in µs.
func (b *budget) at(q float64, names ...string) float64 {
	if len(b.client) == 0 {
		return 0
	}
	idx := b.band(q)
	var sum float64
	for _, n := range names {
		switch n {
		case "storage":
			sum += meanAt(b.storage, idx)
		case "ack self":
			sum += meanAt(b.ackSelf, idx)
		default:
			for _, st := range b.stages {
				if st.name == n {
					sum += meanAt(st.samples, idx)
				}
			}
		}
	}
	return sum
}

// bandWidthFor narrows the band toward the tail so it stays inside [0, 1]
// and symmetric around q.
func bandWidthFor(q float64) float64 {
	return min(bandHalfWidth, (1-q)/2)
}

// residualFrac is |client p50 − Σ stages of the median operation| ÷ client
// p50: the acceptance check that the budget accounts for the client-observed
// latency.
func (b *budget) residualFrac() float64 {
	if len(b.client) == 0 {
		return 0
	}
	client := quantile(b.client, 0.50)
	var sum float64
	idx := b.band(0.50)
	for _, st := range b.stages {
		sum += meanAt(st.samples, idx)
	}
	if client == 0 {
		return 0
	}
	return abs(client-sum) / client
}

// print writes the budget table.
func (b *budget) print(w io.Writer, workload string) {
	if len(b.client) == 0 {
		return
	}
	mid, tail := b.band(0.50), b.band(0.99)
	cmean := mean(b.client)
	fmt.Fprintf(w, "# %s %s budget over %d traced ops (µs): the median op, the p99 op, the mean op\n", workload, b.kind, len(b.client))
	fmt.Fprintf(w, "# %-28s %10s %10s %10s %8s\n", "stage", "p50 op", "p99 op", "mean", "share")
	row := func(name string, samples []float64) (float64, float64, float64) {
		a, z, m := meanAt(samples, mid), meanAt(samples, tail), mean(samples)
		fmt.Fprintf(w, "# %-28s %10.1f %10.1f %10.1f %7.1f%%\n", name, a, z, m, 100*m/cmean)
		return a, z, m
	}
	var sumMid, sumTail, sumMean float64
	for _, st := range b.stages {
		a, z, m := row(st.name, st.samples)
		sumMid, sumTail, sumMean = sumMid+a, sumTail+z, sumMean+m
		if st.name == "replication.ack" && len(b.storage) > 0 {
			row("  storage (child)", b.storage)
			row("  ack self", b.ackSelf)
		}
	}
	cp50, cp99 := quantile(b.client, 0.50), quantile(b.client, 0.99)
	fmt.Fprintf(w, "# %-28s %10.1f %10.1f %10.1f\n", "sum of stages", sumMid, sumTail, sumMean)
	fmt.Fprintf(w, "# %-28s %10.1f %10.1f %10.1f\n", "client span", cp50, cp99, cmean)
	fmt.Fprintf(w, "# %-28s %9.2f%% %9.2f%% %9.2f%%\n", "residual",
		100*(cp50-sumMid)/cp50, 100*(cp99-sumTail)/cp99, 100*(cmean-sumMean)/cmean)
}

// ---- span file ----------------------------------------------------------------------

type spanLine struct {
	Name    string `json:"name"`
	Op      string `json:"op"`
	Parent  string `json:"parent"`
	Node    int    `json:"node"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpanOps bounds the operations written to the span file: the budget is
// computed from every record in memory, the file is for reading a few
// thousand waterfalls, not for shipping the whole run.
const maxSpanOps = 4000

// writeSpans writes the spans of the first maxSpanOps traced operations in
// [from, to], and the storage spans of the same interval, as JSON lines.
func (t *tracer) writeSpans(dir, workload string, from, to int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	ops := 0
	var last int64
	for s := 0; len(t.recs) > 0 && s < len(t.recs[0]) && ops < maxSpanOps; s++ {
		for c := range t.recs {
			rec := &t.recs[c][s]
			t0, t1 := rec.t[mCallStart].Load(), rec.t[mCallEnd].Load()
			if t0 < from || t1 == 0 || t1 > to {
				continue
			}
			ops++
			last = max(last, t1)
			op := fmt.Sprintf("%d/%d", c, s)
			node := int(rec.node.Load()) - 1
			_ = enc.Encode(spanLine{Name: "client", Op: op, Node: -1, StartNs: t0, EndNs: t1})
			stages := writeStages()
			if rec.t[mReadIn].Load() != 0 {
				stages = readStages()
			}
			for _, st := range stages {
				a, b := rec.t[st.from].Load(), rec.t[st.to].Load()
				if a == 0 || b == 0 {
					continue
				}
				_ = enc.Encode(spanLine{Name: st.name, Op: op, Parent: st.parent, Node: node, StartNs: a, EndNs: b})
			}
		}
	}
	t.mu.Lock()
	for node, spans := range t.io {
		for _, sp := range spans {
			if sp.start < from || sp.end > last {
				continue
			}
			name := "storage.append"
			if sp.sync {
				name = "storage.sync"
			}
			_ = enc.Encode(spanLine{Name: name, Parent: "replication.ack", Node: node, StartNs: sp.start, EndNs: sp.end})
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
