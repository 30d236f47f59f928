package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"heimdall/internal/core"
	"heimdall/internal/scenarios"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
)

func TestRegistryShardDistribution(t *testing.T) {
	const shards, tenants = 8, 200
	r := newRegistry(shards)
	counts := make([]int, shards)
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t-%03d", i)
		if err := r.add(&Tenant{ID: id}); err != nil {
			t.Fatal(err)
		}
		idx := r.shardIndex(id)
		if idx < 0 || idx >= shards {
			t.Fatalf("shardIndex(%s) = %d, out of range", id, idx)
		}
		counts[idx]++
	}
	if r.count() != tenants {
		t.Fatalf("count = %d, want %d", r.count(), tenants)
	}
	// FNV-1a over sequential IDs should land tenants on every shard and
	// keep the spread within a loose bound of the 25-per-shard mean; a
	// degenerate hash (everything on one shard) must fail loudly.
	for i, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no tenants", i)
		}
		if c > tenants/2 {
			t.Errorf("shard %d received %d of %d tenants — degenerate distribution", i, c, tenants)
		}
	}
	// Lookups resolve through the same mapping.
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t-%03d", i)
		got, err := r.get(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != id {
			t.Fatalf("get(%s).ID = %s", id, got.ID)
		}
	}
}

func TestRegistryDuplicateAndMissing(t *testing.T) {
	r := newRegistry(4)
	if err := r.add(&Tenant{ID: "acme"}); err != nil {
		t.Fatal(err)
	}
	if err := r.add(&Tenant{ID: "acme"}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate add = %v, want ErrTenantExists", err)
	}
	if _, err := r.get("ghost"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("missing get = %v, want ErrNoTenant", err)
	}
	all := r.all()
	if len(all) != 1 || all[0].ID != "acme" {
		t.Fatalf("all = %v", all)
	}
}

func TestTenantIsolationNoAliasing(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	for _, id := range []string{"a", "b"} {
		if _, err := svc.CreateTenant(id, "university"); err != nil {
			t.Fatal(err)
		}
	}
	ta, _ := svc.Tenant("a")
	tb, _ := svc.Tenant("b")

	// No device pointer may be visible from two different tenants.
	// Within one tenant production aliases its private scenario copy by
	// design (core.NewSystem adopts the scenario network); only a pointer
	// shared ACROSS tenants is a leak.
	seen := make(map[any]string)
	record := func(owner string, m map[string]any) {
		for name, p := range m {
			if prev, ok := seen[p]; ok && prev != owner {
				t.Fatalf("device %s aliased between %s and %s", name, prev, owner)
			}
			seen[p] = owner
		}
	}
	collect := func(tn *Tenant) map[string]any {
		out := make(map[string]any)
		for name, d := range tn.System().Production().Devices {
			out[name] = d
		}
		for name, d := range tn.ScenarioData().Network.Devices {
			out["scen/"+name] = d
		}
		return out
	}
	record("tenant a", collect(ta))
	record("tenant b", collect(tb))

	// Mutating tenant a's production via an injected fault must leave b
	// untouched.
	if _, err := svc.InjectIssue("a", "acl", "test"); err != nil {
		t.Fatal(err)
	}
	if na, nb := len(ta.System().Tickets.List()), len(tb.System().Tickets.List()); na != 1 || nb != 0 {
		t.Fatalf("ticket leakage: a=%d b=%d", na, nb)
	}
}

// isolationSession is one technician session of TestConcurrentTenantsIsolated.
type isolationSession struct {
	tenant, id, token string
	script            []ticket.FixCommand
	commit            bool
}

// TestConcurrentTenantsIsolated runs 1,000 concurrent technician sessions
// (50 tenants x 20, alternating university and enterprise; 8 x 5 under
// -race or -short) through Exec, Review and Commit. Every session replays
// its tenant's scripted fix inside its own ticket's slice, so the
// reference monitor must deny nothing, and no state, audit entry or
// metric series may leak across tenants.
func TestConcurrentTenantsIsolated(t *testing.T) {
	tenants, per := 50, 20
	if RaceEnabled || testing.Short() {
		tenants, per = 8, 5
	}
	reg := telemetry.NewRegistry()
	svc := New(Config{Meter: reg, VerifyQueue: 4096, PlatformSeed: "isolation"})
	defer svc.Close()

	// Set-up: one injected issue per tenant, one ticket per session.
	sessions := make([]isolationSession, tenants*per)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("t-%03d", ti)
			scenario := []string{"university", "enterprise"}[ti%2]
			if _, err := svc.CreateTenant(id, scenario); err != nil {
				t.Error(err)
				return
			}
			tn, err := svc.Tenant(id)
			if err != nil {
				t.Error(err)
				return
			}
			issues := tn.ScenarioData().Issues
			issue := issues[ti%len(issues)]
			tk, err := svc.InjectIssue(id, issue.Name, "reporter")
			if err != nil {
				t.Error(err)
				return
			}
			for si := 0; si < per; si++ {
				if si > 0 {
					tk, err = svc.CreateTicket(id, ticket.Ticket{
						Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
						SrcHost: issue.SrcHost, DstHost: issue.DstHost,
						Proto: issue.Proto, DstPort: issue.DstPort,
						Suspects:  []string{issue.Fault.RootCause},
						CreatedBy: "reporter",
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
				info, err := svc.CreateSession(id, fmt.Sprintf("tech-%03d-%02d", ti, si), tk.ID)
				if err != nil {
					t.Error(err)
					return
				}
				sessions[ti*per+si] = isolationSession{
					tenant: id, id: info.Session, token: info.Token,
					script: issue.Script, commit: si == 0,
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every session is live before the first command; all scripts replay
	// concurrently.
	var commands, denied, execErrs atomic.Int64
	for i := range sessions {
		ls := &sessions[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, cmd := range ls.script {
				_, err := svc.Exec(ls.tenant, ls.id, ls.token, cmd.Device, cmd.Line)
				commands.Add(1)
				var d *twin.ErrDenied
				switch {
				case errors.As(err, &d):
					denied.Add(1)
				case err != nil:
					execErrs.Add(1)
					t.Errorf("%s/%s exec %q on %s: %v", ls.tenant, ls.id, cmd.Line, cmd.Device, err)
				}
			}
		}()
	}
	wg.Wait()

	// Then every session reviews its change set and one per tenant commits.
	var commits atomic.Int64
	for i := range sessions {
		ls := &sessions[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Review(ls.tenant, ls.id, ls.token); errors.Is(err, ErrQueueFull) {
				t.Errorf("%s/%s review: %v", ls.tenant, ls.id, err)
			}
			if ls.commit {
				if _, err := svc.Commit(ls.tenant, ls.id, ls.token); err != nil {
					t.Errorf("%s/%s commit: %v", ls.tenant, ls.id, err)
				} else {
					commits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range sessions {
		ls := &sessions[i]
		_ = svc.CloseSession(ls.tenant, ls.id, ls.token)
	}

	if commands.Load() == 0 {
		t.Fatal("no commands issued")
	}
	if denied.Load() != 0 || execErrs.Load() != 0 {
		t.Fatalf("denied = %d, other exec errors = %d, want 0 and 0", denied.Load(), execErrs.Load())
	}
	if commits.Load() != int64(tenants) {
		t.Fatalf("commits = %d, want one per tenant (%d)", commits.Load(), tenants)
	}

	// No device pointer is reachable from two tenants.
	owner := make(map[any]string)
	for _, ti := range svc.Tenants() {
		tn, err := svc.Tenant(ti.ID)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range tn.System().Production().Devices {
			if prev, ok := owner[d]; ok && prev != ti.ID {
				t.Fatalf("device %s aliased between tenants %s and %s", name, prev, ti.ID)
			}
			owner[d] = ti.ID
		}
	}

	// Every trail verifies and names only its own tenant's technicians
	// (technicians are globally unique: tech-<tenant>-<session>).
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("t-%03d", i)
		tn, err := svc.Tenant(id)
		if err != nil {
			t.Fatal(err)
		}
		trail := tn.System().Enforcer.Trail()
		if err := trail.Verify(); err != nil {
			t.Fatalf("tenant %s: audit trail broken: %v", id, err)
		}
		prefix := fmt.Sprintf("tech-%03d-", i)
		entries := trail.Entries()
		if len(entries) == 0 {
			t.Fatalf("tenant %s: empty audit trail", id)
		}
		for _, e := range entries {
			if e.Technician != "" && !strings.HasPrefix(e.Technician, prefix) {
				t.Fatalf("tenant %s: audit entry names foreign technician %q", id, e.Technician)
			}
		}
	}

	// Per-tenant metric series stayed separate and account for every
	// mediated command.
	var metered float64
	for i := 0; i < tenants; i++ {
		metered += reg.CounterValue("heimdall_service_commands_total",
			telemetry.L("tenant", fmt.Sprintf("t-%03d", i)))
	}
	if int64(metered) != commands.Load() {
		t.Fatalf("per-tenant command counters sum to %v, want %d", metered, commands.Load())
	}
	if got := reg.GaugeValue("heimdall_service_tenants"); int(got) != tenants {
		t.Fatalf("tenants gauge = %v, want %d", got, tenants)
	}
}

// TestMediationByteIdentical asserts the acceptance criterion that the
// service's mediated Exec path is byte-identical to driving
// twin.Session.Exec directly on an equivalently-seeded single-tenant
// deployment: the service adds lifecycle and metering around mediation
// without altering a single output byte.
func TestMediationByteIdentical(t *testing.T) {
	const seed = "byte-ident"

	// Service-side transcript.
	svc := New(Config{PlatformSeed: seed})
	defer svc.Close()
	if _, err := svc.CreateTenant("solo", "university"); err != nil {
		t.Fatal(err)
	}
	tn, err := svc.Tenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	var issue *scenarios.Issue
	for i := range tn.ScenarioData().Issues {
		if tn.ScenarioData().Issues[i].Name == "acl" {
			issue = &tn.ScenarioData().Issues[i]
		}
	}
	if issue == nil {
		t.Fatal("university scenario lost its acl issue")
	}
	tk, err := svc.InjectIssue("solo", "acl", "reporter")
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.CreateSession("solo", "alice", tk.ID)
	if err != nil {
		t.Fatal(err)
	}
	var viaService []string
	for _, cmd := range issue.Script {
		out, err := svc.Exec("solo", info.Session, info.Token, cmd.Device, cmd.Line)
		if err != nil {
			t.Fatalf("service exec %q on %s: %v", cmd.Line, cmd.Device, err)
		}
		viaService = append(viaService, out)
	}

	// Direct-twin transcript: same scenario constructor, same platform
	// seed derivation, same ticket fields, same technician.
	scen := scenarios.University().Clone()
	sys, err := core.NewSystem(core.Options{
		Network:      scen.Network,
		Policies:     scen.Policies,
		Sensitive:    scen.Sensitive,
		PlatformSeed: seed + "/solo",
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref *scenarios.Issue
	for i := range scen.Issues {
		if scen.Issues[i].Name == "acl" {
			ref = &scen.Issues[i]
		}
	}
	if err := ref.Fault.Inject(sys.Production()); err != nil {
		t.Fatal(err)
	}
	dtk := sys.Tickets.Create(ticket.Ticket{
		Summary: ref.Fault.Description, Kind: ref.Fault.Kind,
		SrcHost: ref.SrcHost, DstHost: ref.DstHost,
		Proto: ref.Proto, DstPort: ref.DstPort,
		Suspects:  []string{ref.Fault.RootCause},
		CreatedBy: "reporter",
	})
	eng, err := sys.StartWork(dtk.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	var viaTwin []string
	for _, cmd := range ref.Script {
		sess, err := eng.Console(cmd.Device)
		if err != nil {
			t.Fatalf("direct console %s: %v", cmd.Device, err)
		}
		out, err := sess.Exec(cmd.Line)
		if err != nil {
			t.Fatalf("direct exec %q on %s: %v", cmd.Line, cmd.Device, err)
		}
		viaTwin = append(viaTwin, out)
	}

	if len(viaService) != len(viaTwin) {
		t.Fatalf("transcript lengths differ: service %d, twin %d", len(viaService), len(viaTwin))
	}
	for i := range viaService {
		if viaService[i] != viaTwin[i] {
			t.Fatalf("output %d differs for %q on %s:\nservice: %q\ntwin:    %q",
				i, issue.Script[i].Line, issue.Script[i].Device, viaService[i], viaTwin[i])
		}
	}
}
