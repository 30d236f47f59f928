package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/scenarios"
	"heimdall/internal/twin"
)

// TestBaseSliceMatchesProduction pins that computing the presentation
// slice from the sanitized twin base (what StartWork does) gives the same
// slice as computing it from production and a fresh snapshot of it, for
// every built-in scenario issue under every slice strategy.
func TestBaseSliceMatchesProduction(t *testing.T) {
	for _, build := range []func() *scenarios.Scenario{
		scenarios.Enterprise, scenarios.University, scenarios.Provider,
	} {
		scen := build()
		for _, issue := range scen.Issues {
			prod := scen.Network.Clone()
			if err := issue.Fault.Inject(prod); err != nil {
				t.Fatalf("%s/%s: %v", scen.Name, issue.Name, err)
			}
			base := twin.NewBase(prod)
			snap := dataplane.Compute(prod)
			for _, strat := range []twin.SliceStrategy{twin.SliceAll, twin.SliceNeighbors, twin.SliceTaskDriven} {
				suspects := []string{issue.Fault.RootCause}
				got := twin.ComputeSlice(base.Network(), base.Snapshot(), strat, issue.SrcHost, issue.DstHost, suspects)
				want := twin.ComputeSlice(prod, snap, strat, issue.SrcHost, issue.DstHost, suspects)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%s: slice from base %v, from production %v",
						scen.Name, issue.Name, strat, got, want)
				}
			}
		}
	}
}

// startWork files the issue and starts an engagement on it.
func startWork(t *testing.T, sys *System, issue scenarios.Issue, tech string) *Engagement {
	t.Helper()
	eng, err := sys.StartWork(fileIssue(sys, issue).ID, tech)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// requireCurrentBase fails unless the engagement's base is the sanitized
// image of production as it is now.
func requireCurrentBase(t *testing.T, sys *System, eng *Engagement, after string) {
	t.Helper()
	base := eng.Twin.Baseline()
	for name, d := range sys.Production().Devices {
		if ch := config.DiffDevice(config.Sanitize(d), base.Devices[name]); len(ch) != 0 {
			t.Fatalf("after %s: base %s differs from production: %v", after, name, ch)
		}
	}
}

// TestTwinBaseSharedPerProductionVersion pins the base cache's lifecycle:
// engagements started at one production version share a base, and a
// commit, an out-of-band mutation or an emergency write each bump the
// enforcer's version and give the next engagement a fresh base that shows
// the change.
func TestTwinBaseSharedPerProductionVersion(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")

	e1 := startWork(t, sys, issue, "alice")
	e2 := startWork(t, sys, issue, "bob")
	if e1.Twin.Baseline() != e2.Twin.Baseline() {
		t.Fatal("engagements at one production version built separate bases")
	}

	if _, err := e1.RunScript(issue.Script); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Commit(); err != nil {
		t.Fatal(err)
	}
	e3 := startWork(t, sys, issue, "carol")
	if e3.Twin.Baseline() == e1.Twin.Baseline() {
		t.Fatal("commit did not retire the shared base")
	}
	requireCurrentBase(t, sys, e3, "commit")
	if !e2.Drifted() || e3.Drifted() {
		t.Fatalf("drift after commit: old engagement %v, new %v; want true, false", e2.Drifted(), e3.Drifted())
	}

	// Re-inject the fault out of band, rotating a secret on the way.
	dev := issue.Fault.RootCause
	if err := sys.MutateProduction(func(n *netmodel.Network) error {
		n.Devices[dev].Secrets["enable"] = "rotated"
		return issue.Fault.Inject(n)
	}); err != nil {
		t.Fatal(err)
	}
	e4 := startWork(t, sys, issue, "dave")
	if e4.Twin.Baseline() == e3.Twin.Baseline() {
		t.Fatal("MutateProduction did not retire the shared base")
	}
	requireCurrentBase(t, sys, e4, "MutateProduction")
	if got := e4.Twin.Baseline().Devices[dev].Secrets["enable"]; got != "<redacted>" {
		t.Fatalf("fresh base carries secret %q unredacted", got)
	}

	e4.EnableEmergency("netadmin")
	for _, cmd := range issue.Fault.Fix {
		es, err := e4.EmergencyConsole(cmd.Device)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := es.Exec(cmd.Line); err != nil {
			t.Fatalf("emergency %s: %v", cmd.Line, err)
		}
	}
	e5 := startWork(t, sys, issue, "erin")
	if e5.Twin.Baseline() == e4.Twin.Baseline() {
		t.Fatal("emergency write did not retire the shared base")
	}
	requireCurrentBase(t, sys, e5, "emergency write")
	if !e4.Drifted() {
		t.Fatal("engagement opened before the emergency write does not report drift")
	}
}

// TestTwinBaseConcurrentStartWork starts engagements on one system from
// many goroutines at once, each running its issue script (reads and
// writes) in its twin: they must all share one base, and the base must
// still equal a fresh sanitized image of production. Run it under -race:
// the base cache, the base snapshot's once, the shared flow cache and the
// derivations from the shared snapshot all race here.
func TestTwinBaseConcurrentStartWork(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	const n = 8
	engs := make([]*Engagement, n)
	var wg sync.WaitGroup
	for i := range engs {
		tk := fileIssue(sys, issue)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, err := sys.StartWork(tk.ID, fmt.Sprintf("tech-%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := eng.RunScript(issue.Script); err != nil {
				t.Error(err)
				return
			}
			if len(eng.Twin.Changes()) == 0 {
				t.Errorf("tech-%d: script left no changes", i)
			}
			engs[i] = eng
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, eng := range engs[1:] {
		if eng.Twin.Baseline() != engs[0].Twin.Baseline() {
			t.Fatal("concurrent engagements at one production version built separate bases")
		}
	}
	requireCurrentBase(t, sys, engs[0], "concurrent scripts")
}
