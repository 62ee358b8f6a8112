package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/replication"
	"repro/internal/transport"
)

// ledgerSM is a passive state machine that records every applied update, so
// duplicated or lost applications are directly observable. Execute echoes
// the op; reads return the application count of an op payload.
type ledgerSM struct {
	mu      sync.Mutex
	applies []string
	counts  map[string]int
}

func newLedgerSM() *ledgerSM {
	return &ledgerSM{counts: make(map[string]int)}
}

func (l *ledgerSM) Execute(op []byte) ([]byte, []byte) {
	return []byte("ok:" + string(op)), op
}

func (l *ledgerSM) ApplyUpdate(update []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applies = append(l.applies, string(update))
	l.counts[string(update)]++
}

func (l *ledgerSM) read(op []byte) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return []byte(fmt.Sprintf("%d", l.counts[string(op)]))
}

func (l *ledgerSM) count(op string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[op]
}

func (l *ledgerSM) applied() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.applies)
}

// duplicatedOps returns ops applied more than once (must always be empty).
func (l *ledgerSM) duplicatedOps() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var dups []string
	for op, n := range l.counts {
		if n > 1 {
			dups = append(dups, fmt.Sprintf("%s x%d", op, n))
		}
	}
	return dups
}

// svcCluster is a 3-node group with a gateway embedded in every node, all
// over one simulated network.
type svcCluster struct {
	network *transport.Network
	ids     []proc.ID
	nodes   []*core.Node
	reps    []*replication.Passive
	sms     []*ledgerSM
	gws     []*Gateway
	addrs   map[proc.ID]string
}

func buildService(t *testing.T, n int, tweakGW func(*GatewayConfig)) *svcCluster {
	t.Helper()
	c := &svcCluster{
		network: transport.NewNetwork(transport.WithDelay(0, 2*time.Millisecond), transport.WithSeed(7)),
		addrs:   make(map[proc.ID]string),
	}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, proc.ID(fmt.Sprintf("s%d", i+1)))
	}
	for _, id := range c.ids {
		c.addrs[id] = string(id) // memnet stream addresses are the IDs
	}
	for i, id := range c.ids {
		sm := newLedgerSM()
		rep := replication.NewPassive(sm, c.ids)
		node, err := core.NewNode(c.network.Endpoint(id), core.Config{
			Self: id, Universe: c.ids, Relation: replication.PassiveRelation(),
		}, rep.DeliverFunc())
		if err != nil {
			t.Fatal(err)
		}
		rep.Bind(node)
		t.Cleanup(rep.StopBatching)
		c.sms = append(c.sms, sm)
		c.reps = append(c.reps, rep)
		c.nodes = append(c.nodes, node)
		_ = i
	}
	for _, nd := range c.nodes {
		nd.Start()
	}
	for i, id := range c.ids {
		cfg := GatewayConfig{
			Self:    id,
			Replica: c.reps[i],
			Read:    c.sms[i].read,
			Addrs:   c.addrs,
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
		for _, nd := range c.nodes {
			nd.Stop()
		}
		c.network.Shutdown()
	})
	return c
}

func (c *svcCluster) startFailover(t *testing.T, timeout time.Duration) {
	t.Helper()
	for _, r := range c.reps {
		r.StartFailover(timeout)
	}
	t.Cleanup(func() {
		for _, r := range c.reps {
			r.StopFailover()
		}
	})
}

func (c *svcCluster) addrList() []string {
	out := make([]string, 0, len(c.ids))
	for _, id := range c.ids {
		out = append(out, c.addrs[id])
	}
	return out
}

func (c *svcCluster) dialer() Dialer {
	return func(addr string) (transport.StreamConn, error) {
		return c.network.DialStream(proc.ID(addr))
	}
}

func (c *svcCluster) newClient(t *testing.T, tweak func(*ClientConfig)) *Client {
	t.Helper()
	cfg := ClientConfig{
		Addrs:        c.addrList(),
		Dial:         c.dialer(),
		RetryBackoff: 2 * time.Millisecond,
		OpTimeout:    30 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	cl, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestServiceWriteAndRead(t *testing.T) {
	c := buildService(t, 3, nil)
	client := c.newClient(t, nil)

	res, err := client.Call([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "ok:hello" {
		t.Fatalf("result %q", res)
	}
	// The write is applied at the primary's replica; a read through the
	// client (served locally at the connected gateway) observes it.
	got, err := client.Read([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "1" {
		t.Fatalf("read %q, want 1 application", got)
	}
	// All replicas converge on exactly one application.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, sm := range c.sms {
			if sm.count("hello") != 1 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %d %d %d",
				c.sms[0].count("hello"), c.sms[1].count("hello"), c.sms[2].count("hello"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServicePipelinedWrites drives many concurrent writes through one
// session and checks they all execute exactly once.
func TestServicePipelinedWrites(t *testing.T) {
	c := buildService(t, 3, nil)
	client := c.newClient(t, func(cfg *ClientConfig) { cfg.MaxInflight = 16 })

	const ops = 60
	var wg sync.WaitGroup
	errs := make([]error, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Call([]byte(fmt.Sprintf("op-%d", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.sms[2].applied() < ops {
		if time.Now().After(deadline) {
			t.Fatalf("backup applied %d of %d", c.sms[2].applied(), ops)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, sm := range c.sms {
		if dups := sm.duplicatedOps(); len(dups) > 0 {
			t.Fatalf("replica %d duplicated: %v", i, dups)
		}
	}
}

// TestServiceRedirect speaks the raw protocol to a backup gateway: a write
// must be answered NOT_PRIMARY with the primary's address as the hint.
func TestServiceRedirect(t *testing.T) {
	c := buildService(t, 3, nil)

	conn, err := c.network.DialStream("s2") // a backup
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(v any) {
		frame, err := encodeFrame(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() any {
		data, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		v, err := decodeFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	send(helloFrame{Session: "raw1"})
	welcome, ok := recv().(welcomeFrame)
	if !ok {
		t.Fatal("no welcome")
	}
	if welcome.IsPrimary {
		t.Fatal("backup claims to be primary")
	}
	if welcome.Primary != "s1" {
		t.Fatalf("welcome hint %q, want s1", welcome.Primary)
	}

	send(reqFrame{Seq: 1, Op: []byte("x")})
	res, ok := recv().(resFrame)
	if !ok {
		t.Fatal("no response")
	}
	if res.Err != errNotPrimary {
		t.Fatalf("err %q, want %q", res.Err, errNotPrimary)
	}
	if res.Redirect != "s1" {
		t.Fatalf("redirect %q, want s1", res.Redirect)
	}

	// Reads are served locally even at a backup.
	send(reqFrame{Seq: 2, Op: []byte("whatever"), Read: true})
	res, ok = recv().(resFrame)
	if !ok || res.Err != "" {
		t.Fatalf("read at backup failed: %+v", res)
	}
}

// TestServiceClientStartsAtBackup gives the client only the backups' view
// first: the connect handshake hint must lead it to the primary.
func TestServiceClientStartsAtBackup(t *testing.T) {
	c := buildService(t, 3, nil)
	client := c.newClient(t, func(cfg *ClientConfig) {
		cfg.Addrs = []string{"s3", "s2", "s1"} // backup first
	})
	if _, err := client.Call([]byte("via-backup")); err != nil {
		t.Fatal(err)
	}
	if client.Primary() != "s1" {
		t.Fatalf("client hint %q, want s1", client.Primary())
	}
}

// TestServiceBackpressure blasts writes at a gateway with a tiny window and
// checks the per-session in-flight bound holds.
func TestServiceBackpressure(t *testing.T) {
	const window = 4
	c := buildService(t, 3, func(cfg *GatewayConfig) { cfg.MaxInflight = window })
	client := c.newClient(t, func(cfg *ClientConfig) { cfg.MaxInflight = 64 })

	const ops = 80
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Call([]byte(fmt.Sprintf("bp-%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := c.gws[0].Stats().MaxInflight; got > window {
		t.Fatalf("observed %d in-flight writes, limit %d", got, window)
	}
	if c.gws[0].Stats().Writes == 0 {
		t.Fatal("no writes reached the primary gateway")
	}
}

// TestServiceDemotionPush: a primary change while a client is attached to
// the old primary must push a NOT_PRIMARY redirect; the client follows it
// and subsequent writes succeed at the new primary.
func TestServiceDemotionPush(t *testing.T) {
	c := buildService(t, 3, nil)
	client := c.newClient(t, nil)

	if _, err := client.Call([]byte("before-change")); err != nil {
		t.Fatal(err)
	}
	if client.Primary() != "s1" {
		t.Fatalf("hint %q", client.Primary())
	}
	// s2 forces a primary change (no crash: s1 is merely demoted).
	if err := c.reps[1].RequestPrimaryChange("s1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.reps[0].Primary() != "s2" {
		if time.Now().After(deadline) {
			t.Fatal("no primary change")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The next write lands at s2 (directly or after one redirect hop).
	if _, err := client.Call([]byte("after-change")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for c.sms[1].count("after-change") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("write did not reach the new primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := client.Primary(); got != "s2" {
		t.Fatalf("client hint %q after demotion, want s2", got)
	}
	for i, sm := range c.sms {
		if dups := sm.duplicatedOps(); len(dups) > 0 {
			t.Fatalf("replica %d duplicated: %v", i, dups)
		}
	}
}

// TestServiceSessionResume: a new client process reusing the session ID
// resumes the dedup state — a retried op answers from the table.
func TestServiceSessionResume(t *testing.T) {
	c := buildService(t, 3, nil)
	first := c.newClient(t, func(cfg *ClientConfig) { cfg.Session = "resume-me" })
	res, err := first.Call([]byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	// The "restarted" client did not see the ack and retries seq 1.
	second := c.newClient(t, func(cfg *ClientConfig) { cfg.Session = "resume-me" })
	res2, err := second.Call([]byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res2) != string(res) {
		t.Fatalf("resumed session got %q, original %q", res2, res)
	}
	time.Sleep(50 * time.Millisecond) // let any (wrong) duplicate apply
	if n := c.sms[0].count("once"); n != 1 {
		t.Fatalf("op applied %d times", n)
	}
	if !strings.HasPrefix(string(res), "ok:") {
		t.Fatalf("result %q", res)
	}
}
