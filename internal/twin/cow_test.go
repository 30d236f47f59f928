package twin

import (
	"reflect"
	"sync"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
)

// render prints every device's configuration, keyed by device.
func render(n *netmodel.Network) map[string]string {
	out := make(map[string]string, len(n.Devices))
	for name, d := range n.Devices {
		out[name] = config.Print(d)
	}
	return out
}

// fullDiff is Changes without the shared-device shortcut: a DiffDevice
// over every device of the base.
func fullDiff(base, emul *netmodel.Network) []config.Change {
	var out []config.Change
	for _, name := range base.DeviceNames() {
		out = append(out, config.DiffDevice(base.Devices[name], emul.Devices[name])...)
	}
	return out
}

// TestTwinCOWIsolation extends TestCloneCOWAliasing to twins: two twins on
// one base, one writing while the other reads, concurrently. The writes
// must never show in the sibling, in the base (neither its device pointers
// nor their content) or in production, and only the written devices may
// stop being shared with the base.
func TestTwinCOWIsolation(t *testing.T) {
	prod := prodNet()
	prodBefore := render(prod)
	base := NewBase(prod)
	baseBefore := render(base.Network())
	basePtrs := make(map[string]*netmodel.Device)
	for name, d := range base.Network().Devices {
		basePtrs[name] = d
	}
	writer, err := New(Config{Ticket: "T-W", Technician: "w", Base: base, Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := New(Config{Ticket: "T-R", Technician: "r", Base: base, Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}

	writes := map[string][]string{
		"r2": {"interface Gi0/1 shutdown", "show ip route"},
		"r3": {"access-list EDGE 10 deny ip any any", "show access-lists"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for dev, lines := range writes {
		wg.Add(1)
		go func(dev string, lines []string) {
			defer wg.Done()
			sess, err := writer.OpenConsole(dev)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 10; i++ {
				for _, line := range lines {
					if _, err := sess.Exec(line); err != nil {
						errs <- err
						return
					}
				}
			}
		}(dev, lines)
	}
	for _, dev := range []string{"r1", "r2", "r3"} {
		wg.Add(1)
		go func(dev string) {
			defer wg.Done()
			sess, err := reader.OpenConsole(dev)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 10; i++ {
				for _, line := range []string{"show running-config", "show ip route", "ping h2"} {
					if _, err := sess.Exec(line); err != nil {
						errs <- err
						return
					}
				}
				_ = reader.Changes()
				_ = base.Snapshot()
			}
		}(dev)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := render(prod); !reflect.DeepEqual(got, prodBefore) {
		t.Fatal("twin write reached production")
	}
	for name, d := range base.Network().Devices {
		if d != basePtrs[name] {
			t.Fatalf("base device %s was replaced", name)
		}
	}
	if got := render(base.Network()); !reflect.DeepEqual(got, baseBefore) {
		t.Fatal("twin write reached the shared base")
	}
	for name, d := range reader.Network().Devices {
		if d != basePtrs[name] {
			t.Fatalf("read-only sibling lost its shared %s", name)
		}
	}
	if ch := reader.Changes(); len(ch) != 0 {
		t.Fatalf("sibling twin reports changes: %v", ch)
	}
	if tr, err := reader.Snapshot().Reach("h1", "h2", netmodel.ICMP, 0); err != nil || !tr.Delivered() {
		t.Fatalf("sibling lost reachability to the writer's shutdown: %v %v", tr, err)
	}
	if tr, err := writer.Snapshot().Reach("h1", "h2", netmodel.ICMP, 0); err != nil || tr.Delivered() {
		t.Fatalf("writer's shutdown not in its own snapshot: %v %v", tr, err)
	}
	for name, d := range writer.Network().Devices {
		_, wrote := writes[name]
		if shared := d == basePtrs[name]; shared == wrote {
			t.Fatalf("writer device %s: shared with base = %v, written = %v", name, shared, wrote)
		}
	}
}

// TestTwinChangesMatchFullScan is the oracle for the copy-on-write diff
// and for snapshots derived from the shared base snapshot: after every
// command of a mixed script, Changes equals a DiffDevice over every
// device, and the twin's snapshot matches a fresh Compute of its network.
// The script mixes writes of every class the twin's scenarios use with
// reads, and writes a device both before and after it has been copied.
func TestTwinChangesMatchFullScan(t *testing.T) {
	base := NewBase(prodNet())
	tw, err := New(Config{Ticket: "T1", Technician: "alice", Base: base, Spec: allowAllSpec()})
	if err != nil {
		t.Fatal(err)
	}
	script := []struct{ dev, line string }{
		{"r1", "access-list EDGE 5 deny tcp any any eq 23"},
		{"r2", "show ip route"},
		{"r2", "interface Gi0/1 shutdown"},
		{"h1", "ping h2"},
		{"r3", "ip route 192.168.0.0 255.255.0.0 10.0.23.1"},
		{"r2", "interface Gi0/1 no shutdown"},
		{"r4", "router ospf passive-interface Gi0/0"},
		{"r1", "show running-config"},
		{"r1", "interface Gi0/0 ip access-group EDGE in"},
		{"r3", "no ip route 192.168.0.0 255.255.0.0 10.0.23.1"},
		{"r1", "no access-list EDGE 5"},
		{"r4", "router ospf no passive-interface Gi0/0"},
		{"h1", "ping h2 tcp 22"},
	}
	sessions := make(map[string]*Session)
	for _, step := range script {
		sess := sessions[step.dev]
		if sess == nil {
			if sess, err = tw.OpenConsole(step.dev); err != nil {
				t.Fatal(err)
			}
			sessions[step.dev] = sess
		}
		if _, err := sess.Exec(step.line); err != nil {
			t.Fatalf("%s: %q: %v", step.dev, step.line, err)
		}
		if got, want := tw.Changes(), fullDiff(base.Network(), tw.Network()); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q: Changes %v, full scan %v", step.line, got, want)
		}
		got, want := tw.Snapshot(), dataplane.Compute(tw.Network())
		for dev := range tw.Network().Devices {
			if g, w := got.FormatRIB(dev), want.FormatRIB(dev); g != w {
				t.Fatalf("after %q: %s RIB diverged from fresh compute:\n%s\nwant:\n%s", step.line, dev, g, w)
			}
		}
		gotTr, gotErr := got.Reach("h1", "h2", netmodel.TCP, 22)
		wantTr, wantErr := want.Reach("h1", "h2", netmodel.TCP, 22)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotTr, wantTr) {
			t.Fatalf("after %q: reachability diverged: (%v, %v) want (%v, %v)", step.line, gotTr, gotErr, wantTr, wantErr)
		}
	}
}
