package dataplane

import (
	"strings"
	"sync"
	"testing"

	"heimdall/internal/netmodel"
	"heimdall/internal/telemetry"
)

// blockWebNet is threeRouterNet with tcp/80 to h2 denied at r3, so the
// same host pair yields different dispositions per (proto, dstPort).
func blockWebNet() *netmodel.Network {
	n := threeRouterNet()
	r3 := n.Device("r3")
	acl := r3.ACL("BLOCK-WEB", true)
	acl.InsertEntry(netmodel.ACLEntry{Seq: 10, Action: netmodel.Deny, Proto: netmodel.TCP,
		Dst: pfx("10.2.0.10/32"), DstPort: 80})
	acl.InsertEntry(netmodel.ACLEntry{Seq: 20, Action: netmodel.Permit, Proto: netmodel.AnyProto})
	r3.Interface("Gi0/0").ACLIn = "BLOCK-WEB"
	r3.Interface("Gi0/2").ACLIn = "BLOCK-WEB"
	return n
}

func TestFlowCacheKeyDistinguishesProtoAndPort(t *testing.T) {
	s := Compute(blockWebNet())

	web, err := s.Reach("h1", "h2", netmodel.TCP, 80)
	if err != nil {
		t.Fatal(err)
	}
	ssh, _ := s.Reach("h1", "h2", netmodel.TCP, 22)
	icmp, _ := s.Reach("h1", "h2", netmodel.ICMP, 0)
	if web.Delivered() {
		t.Fatalf("tcp/80 should be dropped: %s", web)
	}
	if !ssh.Delivered() || !icmp.Delivered() {
		t.Fatalf("tcp/22 and icmp should pass: %s / %s", ssh, icmp)
	}
	if hits, misses := s.FlowCacheStats(); hits != 0 || misses != 3 {
		t.Fatalf("three distinct flows should all miss: hits=%d misses=%d", hits, misses)
	}

	// Re-asking for each flow serves the memoized trace: same pointer,
	// no new miss.
	web2, _ := s.Reach("h1", "h2", netmodel.TCP, 80)
	ssh2, _ := s.Reach("h1", "h2", netmodel.TCP, 22)
	if web2 != web || ssh2 != ssh {
		t.Fatal("repeat Reach should return the memoized trace")
	}
	if hits, misses := s.FlowCacheStats(); hits != 2 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", hits, misses)
	}
}

func TestFlowCacheCachesErrors(t *testing.T) {
	s := Compute(threeRouterNet())
	for i := 0; i < 2; i++ {
		if _, err := s.Reach("nope", "h2", netmodel.ICMP, 0); err == nil {
			t.Fatal("unknown host should error")
		}
	}
	if hits, misses := s.FlowCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("errors should be memoized too: hits=%d misses=%d", hits, misses)
	}
}

func TestFlowCacheIsPerSnapshot(t *testing.T) {
	n := threeRouterNet()
	s1 := Compute(n)
	tr1, _ := s1.Reach("h1", "h2", netmodel.ICMP, 0)
	if !tr1.Delivered() {
		t.Fatalf("baseline should deliver: %s", tr1)
	}

	// Break the only remaining path and recompute: the fresh snapshot
	// must trace from scratch, not serve the stale delivered trace.
	n.Device("r1").Interface("Gi0/1").Shutdown = true
	n.Device("r1").Interface("Gi0/2").Shutdown = true
	s2 := Compute(n)
	if hits, misses := s2.FlowCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("recomputed snapshot should start empty: hits=%d misses=%d", hits, misses)
	}
	tr2, _ := s2.Reach("h1", "h2", netmodel.ICMP, 0)
	if tr2.Delivered() {
		t.Fatalf("broken network served a stale delivered trace: %s", tr2)
	}
	// The old snapshot still answers from its own (valid-for-it) cache.
	tr1b, _ := s1.Reach("h1", "h2", netmodel.ICMP, 0)
	if tr1b != tr1 {
		t.Fatal("old snapshot should keep its own memoized trace")
	}
}

func TestFlowCacheConcurrentReach(t *testing.T) {
	s := Compute(blockWebNet())
	type probe struct {
		src, dst  string
		proto     netmodel.Protocol
		port      uint16
		delivered bool
	}
	probes := []probe{
		{"h1", "h2", netmodel.TCP, 80, false},
		{"h1", "h2", netmodel.TCP, 22, true},
		{"h1", "h2", netmodel.ICMP, 0, true},
		{"h2", "h1", netmodel.ICMP, 0, true},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := probes[i%len(probes)]
				tr, err := s.Reach(p.src, p.dst, p.proto, p.port)
				if err != nil {
					errs <- err.Error()
					return
				}
				if tr.Delivered() != p.delivered {
					errs <- "wrong disposition for " + tr.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	hits, misses := s.FlowCacheStats()
	if misses != uint64(len(probes)) {
		t.Errorf("misses = %d, want %d (one per distinct flow)", misses, len(probes))
	}
	if hits+misses != 8*50 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 8*50)
	}
}

func TestFlowCacheMeterExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := ComputeWithOptions(blockWebNet(), Options{Meter: reg})
	s.Reach("h1", "h2", netmodel.ICMP, 0)
	s.Reach("h1", "h2", netmodel.ICMP, 0)
	if v := reg.CounterValue("heimdall_dataplane_flowcache_misses_total"); v != 1 {
		t.Errorf("misses counter = %v, want 1", v)
	}
	if v := reg.CounterValue("heimdall_dataplane_flowcache_hits_total"); v != 1 {
		t.Errorf("hits counter = %v, want 1", v)
	}
	if dump := reg.Dump(); !strings.Contains(dump, "heimdall_dataplane_flowcache_hits_total") {
		t.Errorf("exposition missing flowcache series:\n%s", dump)
	}
}

// TestFormatRIBMemoMatchesFresh pins the FormatRIB memo: every device's
// memoized text — first call and repeat — equals an unmemoized rendering
// and the rendering of an independently computed snapshot, including the
// placeholder for a device without a routing table.
func TestFormatRIBMemoMatchesFresh(t *testing.T) {
	n := blockWebNet()
	s, fresh := Compute(n), Compute(n)
	for _, dev := range append(n.DeviceNames(), "no-such-device") {
		for round := 0; round < 2; round++ {
			if got, want := s.FormatRIB(dev), s.formatRIB(dev); got != want {
				t.Fatalf("%s round %d: memoized RIB\n%s\nwant\n%s", dev, round, got, want)
			}
		}
		if got, want := s.FormatRIB(dev), fresh.formatRIB(dev); got != want {
			t.Fatalf("%s: memoized RIB\n%s\ndiffers from a fresh snapshot's\n%s", dev, got, want)
		}
	}
}

// TestFormatRIBConcurrent calls FormatRIB from many goroutines on one
// snapshot, as the twins sharing a base snapshot do; run it under -race.
func TestFormatRIBConcurrent(t *testing.T) {
	n := blockWebNet()
	s := Compute(n)
	devs := n.DeviceNames()
	want := make(map[string]string, len(devs))
	for _, dev := range devs {
		want[dev] = s.formatRIB(dev)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				dev := devs[(g+i)%len(devs)]
				if got := s.FormatRIB(dev); got != want[dev] {
					errs <- dev + ": concurrent FormatRIB diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
