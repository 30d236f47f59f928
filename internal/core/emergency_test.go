package core

import (
	"strings"
	"sync"
	"testing"

	"heimdall/internal/audit"
	"heimdall/internal/console"
	"heimdall/internal/dataplane"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
)

func TestEmergencyModeRequiresAuthorization(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EmergencyConsole(issue.Fault.RootCause); err == nil {
		t.Fatal("emergency console without authorization")
	}
	eng.EnableEmergency("netadmin")
	if _, err := eng.EmergencyConsole(issue.Fault.RootCause); err != nil {
		t.Fatal(err)
	}
	// Devices outside the slice stay invisible even in emergencies.
	if _, err := eng.EmergencyConsole("h9"); err == nil {
		t.Fatal("emergency console outside slice")
	}
}

func TestEmergencyFixAppliesDirectlyToProduction(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableEmergency("netadmin")

	sess, err := eng.EmergencyConsole("r3")
	if err != nil {
		t.Fatal(err)
	}
	// Reads execute against live production state.
	out, err := sess.Exec("show ip route")
	if err != nil || !strings.Contains(out, "directly connected") {
		t.Fatalf("show = %q err %v", out, err)
	}
	// The real fix, straight to production.
	for _, cmd := range issue.Fault.Fix {
		if _, err := sess.Exec(cmd.Line); err != nil {
			t.Fatalf("%s: %v", cmd.Line, err)
		}
	}
	tr, err := dataplane.Compute(sys.Production()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
	if err != nil || !tr.Delivered() {
		t.Fatalf("production not fixed: %v %v", tr, err)
	}

	// The trail carries EMERGENCY markers for the whole episode.
	markers := 0
	for _, e := range sys.Enforcer.Trail().Entries() {
		if strings.Contains(e.Detail, "EMERGENCY") {
			markers++
		}
	}
	if markers < 5 {
		t.Fatalf("EMERGENCY audit markers = %d", markers)
	}
	if err := sys.Enforcer.Trail().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestEmergencyPrivilegesStillEnforced(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableEmergency("netadmin")
	sess, err := eng.EmergencyConsole("r3")
	if err != nil {
		t.Fatal(err)
	}
	// An ISP ticket's spec grants no ACL writes — not even in emergencies.
	if _, err := sess.Exec("access-list EVIL 10 permit ip any any"); err == nil {
		t.Fatal("unprivileged emergency write accepted")
	}
	// Parse errors are audited and rejected.
	if _, err := sess.Exec("frobnicate"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEmergencyShadowVerificationBlocksViolations(t *testing.T) {
	sys, issue := newFaultedSystem(t, "isp")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	// Over-broad grant again: ACL writes on r2 (finance guard).
	eng.Spec.Rules = append(eng.Spec.Rules,
		privilegeRule("config.acl.*", "device:r2"),
		privilegeRule("show.*", "device:r2"))
	eng.Slice["r2"] = true
	eng.EnableEmergency("netadmin")

	sess, err := eng.EmergencyConsole("r2")
	if err != nil {
		t.Fatal(err)
	}
	// The command is privileged, but shadow verification catches the
	// policy violation before production changes.
	_, err = sess.Exec("access-list FINANCE-GUARD 15 permit ip any 10.9.0.0 0.0.0.255")
	if err == nil || !strings.Contains(err.Error(), "violate") {
		t.Fatalf("violating emergency write: err = %v", err)
	}
	for _, e := range sys.Production().Device("r2").ACLs["FINANCE-GUARD"].Entries {
		if e.Seq == 15 {
			t.Fatal("violating entry reached production")
		}
	}
	// A refusal entry is on the trail.
	found := false
	for _, e := range sys.Enforcer.Trail().Entries() {
		if e.Kind == audit.KindVerify && strings.Contains(e.Detail, "EMERGENCY write refused") {
			found = true
		}
	}
	if !found {
		t.Fatal("refusal not audited")
	}
}

func TestEmergencyRepairNotBlockedByExistingOutage(t *testing.T) {
	// The incident itself violates reachability policies; the shadow
	// verifier must scope them out so the repair is not deadlocked.
	sys, issue := newFaultedSystem(t, "ospf")
	tk := fileIssue(sys, issue)
	eng, err := sys.StartWork(tk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableEmergency("netadmin")
	sess, err := eng.EmergencyConsole("r7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("router ospf no passive-interface Gi0/0"); err != nil {
		t.Fatalf("repair blocked: %v", err)
	}
	tr, _ := dataplane.Compute(sys.Production()).Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
	if !tr.Delivered() {
		t.Fatalf("production not repaired: %s", tr)
	}
}

func privilegeRule(action, resource string) privilege.Rule {
	return privilege.Rule{Effect: privilege.AllowEffect, Action: action, Resource: resource}
}

// TestEmergencyConsoleSeesCommittedChanges pins that an emergency console
// reads production as it is now: consoles opened before a commit through
// the twin must show the committed routes afterwards, not the RIB they
// computed before it.
func TestEmergencyConsoleSeesCommittedChanges(t *testing.T) {
	for _, name := range []string{"ospf", "isp"} {
		t.Run(name, func(t *testing.T) {
			sys, issue := newFaultedSystem(t, name)
			watcher, err := sys.StartWork(fileIssue(sys, issue).ID, "bob")
			if err != nil {
				t.Fatal(err)
			}
			watcher.EnableEmergency("netadmin")
			sessions := map[string]*EmergencySession{}
			before := map[string]string{}
			for dev := range watcher.Slice {
				if sys.Production().Devices[dev].Kind == netmodel.Host {
					continue
				}
				sess, err := watcher.EmergencyConsole(dev)
				if err != nil {
					t.Fatal(err)
				}
				if before[dev], err = sess.Exec("show ip route"); err != nil {
					t.Fatalf("%s: %v", dev, err)
				}
				sessions[dev] = sess
			}

			fixer, err := sys.StartWork(fileIssue(sys, issue).ID, "alice")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fixer.RunScript(issue.Script); err != nil {
				t.Fatal(err)
			}
			if _, err := fixer.Commit(); err != nil {
				t.Fatal(err)
			}

			changed := 0
			for dev, sess := range sessions {
				got, err := sess.Exec("show ip route")
				if err != nil {
					t.Fatalf("%s: %v", dev, err)
				}
				want, err := console.New(dev, console.NewEnv(sys.Production())).Run("show ip route")
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: emergency console shows a stale RIB after the commit:\n%s\nproduction:\n%s", dev, got, want)
				}
				if want != before[dev] {
					changed++
				}
			}
			if changed == 0 {
				t.Fatal("the commit changed no RIB in the slice; the test checks nothing")
			}
		})
	}
}

// TestEmergencyConsolesConcurrent runs emergency reads from several
// goroutines while production is mutated out of band. Run it under -race:
// the consoles share one production environment and its lazily built
// snapshot, and the mutations retire that environment under them.
func TestEmergencyConsolesConcurrent(t *testing.T) {
	sys, issue := newFaultedSystem(t, "ospf")
	eng, err := sys.StartWork(fileIssue(sys, issue).ID, "bob")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnableEmergency("netadmin")
	var wg sync.WaitGroup
	for _, dev := range []string{"r1", "r2", "r4", "r7"} {
		sess, err := eng.EmergencyConsole(dev)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := sess.Exec("show ip route"); err != nil {
					t.Errorf("%s: %v", sess.Device(), err)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if err := sys.MutateProduction(issue.Fault.Inject); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
