package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gbcast"
	"repro/internal/membership"
	"repro/internal/proc"
	"repro/internal/transport"
)

func TestNewNodeValidation(t *testing.T) {
	network := transport.NewNetwork()
	defer network.Shutdown()

	// Self not in universe.
	if _, err := NewNode(network.Endpoint("x"), Config{
		Self: "x", Universe: proc.IDs("a", "b"),
	}, nil); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("expected universe error, got %v", err)
	}

	// Config self disagreeing with the transport endpoint.
	if _, err := NewNode(network.Endpoint("a"), Config{
		Self: "b", Universe: proc.IDs("a", "b"),
	}, nil); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("expected transport mismatch error, got %v", err)
	}

	// Initial view member outside the universe.
	if _, err := NewNode(network.Endpoint("c"), Config{
		Self: "c", Universe: proc.IDs("c"), InitialView: proc.IDs("c", "zz"),
	}, nil); err == nil || !strings.Contains(err.Error(), "initial view") {
		t.Fatalf("expected initial view error, got %v", err)
	}

	// A universe larger than generic broadcast's ack bitmask.
	big := make([]proc.ID, gbcast.MaxMembers+1)
	for i := range big {
		big[i] = proc.ID(fmt.Sprintf("m%d", i))
	}
	if _, err := NewNode(network.Endpoint("m0"), Config{Universe: big}, nil); err == nil ||
		!strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("expected universe size error, got %v", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Self: "a", Universe: proc.IDs("a", "b", "c")}
	cfg.applyDefaults()
	if cfg.RTO == 0 || cfg.HeartbeatEvery == 0 || cfg.SuspicionTimeout == 0 || cfg.ExclusionTimeout == 0 {
		t.Fatal("timing defaults not applied")
	}
	if cfg.SuspicionTimeout >= cfg.ExclusionTimeout {
		t.Fatal("the consensus timeout must be far below the exclusion timeout")
	}
	if len(cfg.InitialView) != 3 {
		t.Fatalf("initial view default: %v", cfg.InitialView)
	}
	if cfg.Relation == nil || !cfg.Relation.Known(gbcast.ClassRbcast) {
		t.Fatal("relation default missing")
	}
	if cfg.Monitoring.Threshold != 1 {
		t.Fatalf("monitoring default: %+v", cfg.Monitoring)
	}
}

func TestSelfDefaultsFromTransport(t *testing.T) {
	network := transport.NewNetwork()
	defer network.Shutdown()
	nd, err := NewNode(network.Endpoint("a"), Config{Universe: proc.IDs("a")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Self() != "a" {
		t.Fatalf("self %q", nd.Self())
	}
}

func TestStartStopIdempotent(t *testing.T) {
	network := transport.NewNetwork()
	defer network.Shutdown()
	nd, err := NewNode(network.Endpoint("a"), Config{Self: "a", Universe: proc.IDs("a")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	nd.Start() // no-op
	nd.Stop()
	nd.Stop() // no-op
}

func TestUnknownClassRejected(t *testing.T) {
	network := transport.NewNetwork()
	defer network.Shutdown()
	nd, err := NewNode(network.Endpoint("a"), Config{Self: "a", Universe: proc.IDs("a")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd.Start()
	defer nd.Stop()
	if err := nd.Gbcast("made-up", struct{}{}); err == nil {
		t.Fatal("unknown class accepted")
	}
	// The internal membership class is wired in automatically.
	if !nd.View().Contains("a") {
		t.Fatal("initial view broken")
	}
}

func TestMembershipClassNotDeliveredToApp(t *testing.T) {
	network := transport.NewNetwork(transport.WithDelay(0, time.Millisecond))
	members := proc.IDs("a", "b", "c")
	got := make(chan gbcast.Delivery, 64)
	var nodes []*Node
	for _, id := range members {
		nd, err := NewNode(network.Endpoint(id), Config{Self: id, Universe: members},
			func(d gbcast.Delivery) { got <- d })
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		network.Shutdown()
	}()

	if err := nodes[0].Remove("c"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].View().Contains("c") {
		if time.Now().After(deadline) {
			t.Fatal("view change not applied")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case d := <-got:
		if d.Class == membership.Class {
			t.Fatalf("membership operation leaked to the application: %+v", d)
		}
	default:
	}
}
