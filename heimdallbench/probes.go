package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/config"
	"heimdall/internal/console"
	"heimdall/internal/core"
	"heimdall/internal/dataplane"
	"heimdall/internal/enforcer"
	"heimdall/internal/netmodel"
	"heimdall/internal/privilege"
	"heimdall/internal/telemetry"
	"heimdall/internal/ticket"
	"heimdall/internal/twin"
	"heimdall/internal/verify"
)

// layerMetrics accumulates the traced run's per-layer metrics.
type layerMetrics struct {
	metrics map[string]Metric
}

func newLayerMetrics() *layerMetrics { return &layerMetrics{metrics: make(map[string]Metric)} }

func (m *layerMetrics) set(name string, v float64, unit string) { m.metrics[name] = Metric{v, unit} }

// spanMetrics maps per-layer metrics onto the spans they are the median
// duration of: span name, an optional attribute filter, and the unit.
var spanMetrics = []struct {
	metric, span, attr, value, unit string
}{
	{"core.start_work_ms", "core/System.StartWork", "", "", "ms"},
	{"core.review_key_us", "core/Engagement.ReviewKey", "", "", "us"},
	{"core.commit_ms", "core/Engagement.Commit", "", "", "ms"},
	{"twin.new_ms", "twin/New", "", "", "ms"},
	{"twin.slice_us", "twin/ComputeSlice", "", "", "us"},
	{"twin.exec_read_us", "twin/Session.Exec", "write", "false", "us"},
	{"twin.exec_write_us", "twin/Session.Exec", "write", "true", "us"},
	{"twin.snapshot_after_write_us", "twin/Twin.Snapshot", "", "", "us"},
	{"twin.changes_us", "twin/Twin.Changes", "", "", "us"},
	{"console.parse_us", "console/Console.Parse", "", "", "us"},
	{"console.execute_show_us", "console/Console.Execute", "class", "show", "us"},
	{"console.execute_ping_us", "console/Console.Execute", "class", "ping", "us"},
	{"privilege.generate_us", "privilege/Generate", "", "", "us"},
	{"dataplane.compute_university_ms", "dataplane/Compute", "scenario", "university", "ms"},
	{"dataplane.compute_enterprise_ms", "dataplane/Compute", "scenario", "enterprise", "ms"},
	{"dataplane.derive_us", "dataplane/Snapshot.Derive", "", "", "us"},
	{"dataplane.reach_us", "dataplane/Snapshot.Reach", "", "", "us"},
	{"verify.check_ms", "verify/Check", "", "", "ms"},
	{"enforcer.review_fresh_ms", "enforcer/Enforcer.ReviewCached", "hit", "false", "ms"},
	{"enforcer.review_hit_us", "enforcer/Enforcer.ReviewCached", "hit", "true", "us"},
	{"enforcer.commit_ms", "enforcer/Enforcer.Commit", "", "", "ms"},
	{"netmodel.clone_us", "netmodel/Network.Clone", "", "", "us"},
	{"config.sanitize_us", "config/Sanitize", "", "", "us"},
	{"config.diff_us", "config/DiffDevice", "", "", "us"},
}

func (m *layerMetrics) fromSpans(spans []*telemetry.Span) {
	for _, sm := range spanMetrics {
		var ds []time.Duration
		for _, s := range spans {
			if s.Name == sm.span && (sm.attr == "" || s.Attrs[sm.attr] == sm.value) {
				ds = append(ds, s.Duration())
			}
		}
		v := us(ds)
		if sm.unit == "ms" {
			v = ms(ds)
		}
		m.set(sm.metric, median(v), sm.unit)
	}
}

// prober times single layers through their public functions on two
// probe tenants (one per scenario) it onboards on the bench's daemon
// after the workload phase, one call at a time.
type prober struct {
	b       *Bench
	x       *tracing
	m       *layerMetrics
	denials int64
	bad     []string

	// samples holds the current probe tenant's timings by call; each
	// network's figures are folded into perNetwork when its probes end.
	samples                  map[string][]float64
	perNetwork               map[string][]float64
	ncommits, journalRecords int
}

// probeRounds is how many times each single-layer probe is repeated.
const probeRounds = 20

// openRounds is how many session opens each way the probes time.
const openRounds = 60

// execRounds is how many times the probes replay the diagnosis mix for
// the HTTP, service and twin exec comparison: the service's own share of
// an exec is a few microseconds, so it needs many samples.
const execRounds = 300

func (p *prober) add(call string, v float64) { p.samples[call] = append(p.samples[call], v) }

// probeMetrics derives the per-layer metrics the probes measure from the
// medians of one network's samples. Differences are taken within a
// network: pooled over both, each median would sit between two modes.
var probeMetrics = []struct {
	name, unit  string
	plus, minus string
}{
	{"service.http_exec_overhead_us", "us", "httpExec", "svcExec"},
	{"service.http_review_overhead_us", "us", "httpReview", "svcReview"},
	{"service.exec_self_us", "us", "svcExec", "twinExec"},
	{"service.session_open_self_us", "us", "svcOpen", "startWork"},
	{"service.exec_resp_bytes", "bytes", "respBytes", ""},
	{"service.allocs_per_exec", "count", "allocs", ""},
	{"audit.records_per_exec", "count", "recs", ""},
	{"audit.heap_bytes_per_exec", "bytes", "hbs", ""},
	{"privilege.allows_ns", "ns", "allows", ""},
	{"audit.append_us", "us", "appends", ""},
}

// fold closes one network's probes.
func (p *prober) fold() {
	for _, pm := range probeMetrics {
		v := median(p.samples[pm.plus])
		if pm.minus != "" {
			v -= median(p.samples[pm.minus])
		}
		p.perNetwork[pm.name] = append(p.perNetwork[pm.name], v)
	}
}

func (p *prober) run() error {
	cl := NewClient(p.b.D.URL)
	defer cl.Close()
	p.perNetwork = make(map[string][]float64)
	for _, scen := range scenarioNames {
		p.samples = make(map[string][]float64)
		if err := p.scenario(cl, scen); err != nil {
			return fmt.Errorf("%s: %w", scen, err)
		}
		p.fold()
	}
	// Each figure is the mean over the two networks.
	for _, pm := range probeMetrics {
		sum := 0.0
		for _, v := range p.perNetwork[pm.name] {
			sum += v
		}
		p.m.set(pm.name, sum/float64(len(scenarioNames)), pm.unit)
	}
	p.m.set("journal.records_per_commit", ratio(float64(p.journalRecords), float64(p.ncommits)), "count")
	return nil
}

func since(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }

func (p *prober) fail(format string, args ...any) {
	p.bad = append(p.bad, fmt.Sprintf("probe: "+format, args...))
}

func (p *prober) scenario(cl *Client, scen string) error {
	svc := p.b.D.Svc
	id := "probe-" + scen
	if err := cl.Onboard(id, scen); err != nil {
		return err
	}
	ten, err := svc.Tenant(id)
	if err != nil {
		return err
	}
	sys := ten.System()
	is := splitScript(ten.ScenarioData().Issues[0])
	ref, err := buildReference(scen, is.Issue)
	if err != nil {
		return err
	}
	if _, err := cl.Inject(id, is.Issue.Name); err != nil {
		return err
	}

	// Session open: Service.CreateSession against core.System.StartWork,
	// alternating which goes first. The service's own share is tens of
	// microseconds beside a twin build of milliseconds, so this takes
	// openRounds pairs.
	var sess *Session
	var eng *core.Engagement
	for r := 0; r < openRounds; r++ {
		for k := 0; k < 2; k++ {
			tk, err := fileTicket(svc, id, is.Issue)
			if err != nil {
				return err
			}
			if (r+k)%2 == 0 {
				t0 := time.Now()
				info, err := svc.CreateSession(id, fmt.Sprintf("probe-svc-%d", r), tk.ID)
				p.add("svcOpen", since(t0))
				if err != nil {
					return err
				}
				if sess == nil {
					sess = &Session{Tenant: id, ID: info.Session, Token: info.Token, Ticket: tk.ID}
				} else if err := svc.CloseSession(id, info.Session, info.Token); err != nil {
					return err
				}
				continue
			}
			var e *core.Engagement
			sp := p.x.probe("core/System.StartWork", func(*telemetry.Span) { e, err = sys.StartWork(tk.ID, fmt.Sprintf("probe-core-%d", r)) })
			if err != nil {
				return err
			}
			p.add("startWork", float64(sp.Duration())/float64(time.Microsecond))
			if eng == nil {
				eng = e
			}
		}
	}
	shadowSess := &shadow{eng: eng, consoles: make(map[string]*twin.Session)}

	// The diagnosis mix three ways: HTTP, Service.Exec, twin.Session.Exec,
	// on sessions warmed by one untimed pass. The three calls rotate
	// through first, second and third place, so no one of them always
	// runs right after the slow HTTP round trip.
	for r := 0; r <= execRounds; r++ {
		for k, cmd := range is.Diagnose {
			con, err := shadowSess.console(p.x, nil, cmd.Device)
			if err != nil {
				return err
			}
			for j := 0; j < 3; j++ {
				var out string
				var err error
				t0 := time.Now()
				switch (r + k + j) % 3 {
				case 0:
					var resp Response
					resp, out, err = cl.Exec(sess, cmd.Device, cmd.Line)
					if err == nil && !resp.OK() {
						err = fmt.Errorf("HTTP %d", resp.Status)
					}
					if r > 0 {
						p.add("httpExec", since(t0))
						p.add("respBytes", float64(len(resp.Body)))
					}
				case 1:
					out, err = svc.Exec(id, sess.ID, sess.Token, cmd.Device, cmd.Line)
					if r > 0 {
						p.add("svcExec", since(t0))
					}
				case 2:
					p.x.probe("twin/Session.Exec", func(sp *telemetry.Span) {
						sp.SetAttr("write", "false")
						t0 = time.Now()
						out, err = con.Exec(cmd.Line)
						if r > 0 {
							p.add("twinExec", since(t0))
						}
					})
				}
				if err != nil || out != ref.Outputs[k] {
					p.fail("%s exec %q (call %d): output differs from the reference or %v", id, cmd.Line, (r+k+j)%3, err)
				}
			}
		}
		probe := probeForms[r%len(probeForms)]
		_, err := svc.Exec(id, sess.ID, sess.Token, is.Issue.SrcHost, probe)
		var denied *twin.ErrDenied
		if !errors.As(err, &denied) {
			p.fail("%s: probe %q not denied: %v", id, probe, err)
		} else {
			p.denials++
		}
	}

	// Allocations, audit records and retained heap per Service.Exec.
	trail := sys.Enforcer.Trail()
	for r := 0; r < 3; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		len0 := trail.Len()
		n := 0
		for i := 0; i < 5; i++ {
			for _, cmd := range is.Diagnose {
				if _, err := svc.Exec(id, sess.ID, sess.Token, cmd.Device, cmd.Line); err != nil {
					return err
				}
				n++
			}
		}
		runtime.ReadMemStats(&m1)
		p.add("allocs", float64(m1.Mallocs-m0.Mallocs)/float64(n))
		p.add("recs", float64(trail.Len()-len0)/float64(n))
		h1 := liveHeap()
		p.add("hbs", (float64(h1)-float64(m0.HeapAlloc))/float64(n))
	}

	// The fix: over HTTP on the service session, mediated writes on the
	// probe's own twin, each followed by the first snapshot after it.
	for _, cmd := range is.Fix {
		resp, _, err := cl.Exec(sess, cmd.Device, cmd.Line)
		if err := expect(resp, err, "fix "+cmd.Line); err != nil {
			return err
		}
		con, err := shadowSess.console(p.x, nil, cmd.Device)
		if err != nil {
			return err
		}
		p.x.probe("twin/Session.Exec", func(sp *telemetry.Span) {
			sp.SetAttr("write", "true")
			_, err = con.Exec(cmd.Line)
		})
		if err != nil {
			return fmt.Errorf("fix %q: %w", cmd.Line, err)
		}
		p.x.probe("twin/Twin.Snapshot", func(*telemetry.Span) { eng.Twin.Snapshot() })
	}

	// Reviews: HTTP against Service.Review, alternating which goes first;
	// the first round fills the verdict cache and is not counted, so both
	// sides time cache hits.
	for r := 0; r <= probeRounds; r++ {
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if (r+k)%2 == 0 {
				resp, dec, err := cl.Review(sess)
				if r > 0 {
					p.add("httpReview", since(t0))
				}
				if err != nil || !resp.OK() || !dec.Accepted {
					p.fail("%s HTTP review: status %d err %v", id, resp.Status, err)
				}
				continue
			}
			res, err := svc.Review(id, sess.ID, sess.Token)
			if r > 0 {
				p.add("svcReview", since(t0))
			}
			if err != nil || !res.Accepted {
				p.fail("%s Service.Review: %v", id, err)
			}
		}
	}
	// The layers below a review on their own; invalidating the verdict
	// cache makes every other enforcer review a fresh one.
	for r := 0; r < probeRounds; r++ {
		p.x.probe("core/Engagement.ReviewKey", func(*telemetry.Span) { eng.ReviewKey() })
		var changes []config.Change
		p.x.probe("twin/Twin.Changes", func(*telemetry.Span) { changes = eng.Twin.Changes() })
		sys.Enforcer.InvalidateReviews()
		for _, want := range []bool{false, true} {
			var d *enforcer.Decision
			var hit bool
			p.x.probe("enforcer/Enforcer.ReviewCached", func(sp *telemetry.Span) {
				d, hit = sys.Enforcer.ReviewCached(sys.Production(), changes, eng.Spec)
				sp.SetAttr("hit", fmt.Sprint(hit))
			})
			if !d.Accepted || hit != want {
				p.fail("%s Enforcer.ReviewCached: accepted=%v hit=%v, want hit=%v", id, d.Accepted, hit, want)
			}
		}
	}

	if err := p.isolated(scen, sys, eng, is); err != nil {
		return err
	}
	return p.commits(id, sys, eng, is, ref)
}

// isolated times the layers below the twin directly, on copies of the
// probe tenant's production network.
func (p *prober) isolated(scen string, sys *core.System, eng *core.Engagement, is issueScript) error {
	prod := sys.Production()
	issue := is.Issue
	x := p.x
	for r := 0; r < probeRounds; r++ {
		var clone *netmodel.Network
		x.probe("netmodel/Network.Clone", func(*telemetry.Span) { clone = prod.Clone() })
		x.probe("config/Sanitize", func(*telemetry.Span) {
			for name, d := range clone.Devices {
				clone.Devices[name] = config.Sanitize(d)
			}
		})
		var snap *dataplane.Snapshot
		x.probe("dataplane/Compute", func(sp *telemetry.Span) {
			sp.SetAttr("scenario", scen)
			snap = dataplane.Compute(prod)
		})
		x.probe("dataplane/Snapshot.Reach", func(*telemetry.Span) {
			_, _ = snap.Reach(issue.SrcHost, issue.DstHost, issue.Proto, issue.DstPort)
		})
		fresh := dataplane.Compute(prod)
		var res *verify.Result
		x.probe("verify/Check", func(*telemetry.Span) { res = verify.Check(fresh, sys.Policies()) })
		p.m.set("verify.policies_checked", float64(res.Checked), "count")
		var slice map[string]bool
		x.probe("twin/ComputeSlice", func(*telemetry.Span) {
			slice = twin.ComputeSlice(prod, snap, twin.SliceTaskDriven, issue.SrcHost, issue.DstHost,
				[]string{issue.Fault.RootCause})
		})
		var scope, suspects []string
		for dev := range slice {
			scope = append(scope, dev)
			if prod.Devices[dev] != nil && prod.Devices[dev].Kind != netmodel.Host {
				suspects = append(suspects, dev)
			}
		}
		var err error
		x.probe("privilege/Generate", func(*telemetry.Span) {
			_, err = privilege.Generate(privilege.TemplateInput{
				Ticket: "probe", Technician: "probe", Kind: issue.Fault.Kind,
				Scope: scope, Suspects: suspects,
			})
		})
		if err != nil {
			return err
		}
		base, cur := eng.Twin.Baseline(), eng.Twin.Network()
		x.probe("config/DiffDevice", func(*telemetry.Span) {
			for _, name := range base.DeviceNames() {
				config.DiffDevice(base.Devices[name], cur.Devices[name])
			}
		})
	}

	// Derive: the snapshot of a copy with the fix applied, from the
	// snapshot of the copy before it.
	base := prod.Clone()
	snap := dataplane.Compute(base)
	for r := 0; r < probeRounds; r++ {
		n2 := base.Clone()
		env := console.NewEnv(n2)
		var cs dataplane.ChangeSet
		for _, cmd := range is.Fix {
			con := console.New(cmd.Device, env)
			c, err := con.Parse(cmd.Line)
			if err != nil {
				return err
			}
			if _, err := con.Execute(c); err != nil {
				return err
			}
			cs = append(cs, dataplane.Change{Device: cmd.Device, Kind: changeKind(c.Action)})
		}
		x.probe("dataplane/Snapshot.Derive", func(*telemetry.Span) { snap.Derive(n2, cs) })
	}

	// Console parse and execute on a private environment, warmed once.
	env := console.NewEnv(eng.Twin.Baseline().Clone())
	for r := 0; r <= probeRounds; r++ {
		for _, cmd := range is.Diagnose {
			con := console.New(cmd.Device, env)
			var c console.Command
			var err error
			x.probe("console/Console.Parse", func(*telemetry.Span) { c, err = con.Parse(cmd.Line) })
			if err != nil {
				return err
			}
			class, _, _ := strings.Cut(cmd.Line, " ")
			x.probe("console/Console.Execute", func(sp *telemetry.Span) {
				if r > 0 {
					sp.SetAttr("class", class)
				}
				_, err = con.Execute(c)
			})
			if err != nil {
				return err
			}
		}
	}

	// CompiledSpec.Allows and Trail.Append are too fast to time one call
	// at a time; time batches and report the mean call.
	cs := eng.Spec.Compile()
	var pairs [][2]string
	for _, cmd := range append(append([]ticket.FixCommand(nil), is.Diagnose...), ticket.FixCommand{Device: issue.SrcHost, Line: probeForms[0]}) {
		c, err := console.New(cmd.Device, env).Parse(cmd.Line)
		if err != nil {
			return err
		}
		pairs = append(pairs, [2]string{c.Action, c.Resource})
	}
	trail := audit.NewTrail([]byte("heimdallbench-probe"))
	const batch = 2000
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			pr := pairs[i%len(pairs)]
			cs.Allows(pr[0], pr[1])
		}
		p.add("allows", float64(time.Since(t0))/batch)
		x.probe("audit/Trail.Append", func(*telemetry.Span) {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				trail.Append("probe", "probe", audit.KindCommand, "[r1] show ip route", true)
			}
			p.add("appends", since(t0)/batch)
		})
	}

	// twin.New and the live heap each twin adds.
	const twins = 8
	held := make([]*twin.Twin, 0, twins)
	h0 := liveHeap()
	for i := 0; i < twins; i++ {
		var tw *twin.Twin
		var err error
		x.probe("twin/New", func(*telemetry.Span) {
			tw, err = twin.New(twin.Config{
				Ticket: "probe", Technician: "probe", Production: prod,
				Spec: eng.Spec, Slice: eng.Slice, Trail: trail,
			})
		})
		if err != nil {
			return err
		}
		held = append(held, tw)
	}
	h1 := liveHeap()
	p.m.set("twin.heap_kib", (float64(h1)-float64(h0))/twins/1024, "KiB")
	runtime.KeepAlive(held)
	return nil
}

// changeKind classes a console write action the way the twin's console
// does for incremental derivation.
func changeKind(action string) dataplane.ChangeKind {
	switch {
	case strings.HasPrefix(action, "config.acl."):
		return dataplane.ChangeACL
	case strings.HasPrefix(action, "config.route."), action == "config.gateway.set":
		return dataplane.ChangeStatic
	case action == "config.ospf.set":
		return dataplane.ChangeOSPF
	case action == "config.bgp.set":
		return dataplane.ChangeBGP
	case strings.HasPrefix(action, "config.vlan."):
		return dataplane.ChangeL2
	}
	return dataplane.ChangeL3Topology
}

// commits lands the probe tenant's fix three times: through the core
// engagement on the shared pool, then re-injected and committed straight
// through the enforcer, then re-injected and committed through core once
// more. It checks each commit and, at the end, the probe tenant's journal,
// trail and production.
func (p *prober) commits(id string, sys *core.System, eng *core.Engagement, is issueScript, ref *Reference) error {
	svc := p.b.D.Svc
	journal := sys.Enforcer.Journal()
	for c := 0; c < 3; c++ {
		if c > 0 {
			tk, err := svc.InjectIssue(id, is.Issue.Name, "heimdallbench")
			if err != nil {
				return err
			}
			if eng, err = sys.StartWork(tk.ID, fmt.Sprintf("probe-commit-%d", c)); err != nil {
				return err
			}
			if _, err := eng.RunScript(is.Fix); err != nil {
				return err
			}
		}
		before := len(journal.Records())
		var accepted bool
		var err error
		if c == 1 {
			changes := eng.Twin.Changes()
			p.x.probe("enforcer/Enforcer.Commit", func(*telemetry.Span) {
				var d *enforcer.Decision
				d, err = sys.Enforcer.Commit(sys.Production(), changes, eng.Spec)
				accepted = d != nil && d.Accepted
			})
		} else {
			p.x.probe("pool/Pool.Do", func(sp *telemetry.Span) {
				err = svc.Pool().Do(id, func() {
					p.x.call(sp, "core/Engagement.Commit", func(*telemetry.Span) {
						d, cerr := eng.Commit()
						accepted = cerr == nil && d != nil && d.Accepted
					})
				})
			})
			if sys.Tickets.Get(eng.Ticket.ID).Status != ticket.Resolved {
				p.fail("%s commit: ticket %s not resolved", id, eng.Ticket.ID)
			}
		}
		if err != nil || !accepted {
			p.fail("%s commit %d: accepted %v, err %v", id, c, accepted, err)
		}
		p.ncommits++
		p.journalRecords += len(journal.Records()) - before
	}
	if err := journal.Verify(); err != nil {
		p.fail("%s journal: %v", id, err)
	}
	if err := sys.Enforcer.Trail().Verify(); err != nil {
		p.fail("%s trail: %v", id, err)
	}
	if got := violations(sys); strings.Join(got, "\n") != strings.Join(ref.Fixed, "\n") {
		p.fail("%s production violates %v after the commits, want %v", id, got, ref.Fixed)
	}
	return nil
}
