package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heimdall/internal/audit"
	"heimdall/internal/dataplane"
	"heimdall/internal/ticket"
	"heimdall/internal/verify"
)

// The three workloads.
const (
	Diagnose    = "diagnose"
	ReviewStorm = "review_storm"
	TicketChurn = "ticket_churn"
)

var workloads = []string{Diagnose, ReviewStorm, TicketChurn}

// Bench is one built service under load: the daemon, the plan it was
// built from, the oracle, and the sessions set-up opened.
type Bench struct {
	Workload string
	Plan     *Plan
	Refs     References
	Clients  int
	D        *Daemon
	// Sessions is indexed like Plan.Sessions (diagnose, review_storm).
	Sessions []*Session
	// probes counts, per tenant, probe commands answered 403; the audit
	// trail must hold exactly as many deny decisions.
	probes []atomic.Int64
	churn  *churnQueue
}

// churnQueue hands ticket_churn clients their next tenant from the
// seeded order, holding each tenant's lock until its lifecycle is done so
// no two clients ever work on one tenant at a time.
type churnQueue struct {
	order []int
	locks []sync.Mutex
}

func newChurnQueue(p *Plan) *churnQueue {
	return &churnQueue{order: p.ChurnOrder(), locks: make([]sync.Mutex, len(p.Tenants))}
}

// next returns the tenant at the next position, locked, and the position.
func (q *churnQueue) next(pos *atomic.Int64) (int, int) {
	i := int(pos.Add(1) - 1)
	t := q.order[i%len(q.order)]
	q.locks[t].Lock()
	return t, i
}

func (q *churnQueue) done(t int) { q.locks[t].Unlock() }

// Recorder collects one client's samples and failures; clients merge
// theirs when the phase ends.
type Recorder struct {
	Lat       map[string][]time.Duration
	Attempted int64
	Failed    int64
	// Breaches are allowed probes: mediation failed, so the run is wrong.
	Breaches []string
	Reasons  []string
}

func newRecorder() *Recorder { return &Recorder{Lat: make(map[string][]time.Duration)} }

// observe records one round trip under its kind and under kind.scenario.
func (r *Recorder) observe(kind, scenario string, d time.Duration) {
	r.Lat[kind] = append(r.Lat[kind], d)
	r.Lat[kind+"."+scenario] = append(r.Lat[kind+"."+scenario], d)
}

// failf counts one failed operation and keeps the first reasons.
func (r *Recorder) failf(format string, args ...any) {
	r.Failed++
	if len(r.Reasons) < 5 {
		r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
	}
}

func (r *Recorder) merge(o *Recorder) {
	for k, v := range o.Lat {
		r.Lat[k] = append(r.Lat[k], v...)
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Breaches = append(r.Breaches, o.Breaches...)
	for _, s := range o.Reasons {
		if len(r.Reasons) < 5 {
			r.Reasons = append(r.Reasons, s)
		}
	}
}

// Build starts a daemon and performs the workload's set-up over HTTP:
// onboarding, issue injection, session opens and then, for diagnose, one
// pass over each session's diagnosis or, for review_storm, every session's
// scripted fix. It returns once the first timed request may be
// sent.
func Build(workload string, p *Plan, refs References, clients int) (*Bench, error) {
	d, err := StartDaemon()
	if err != nil {
		return nil, err
	}
	b := &Bench{Workload: workload, Plan: p, Refs: refs, Clients: clients, D: d,
		Sessions: make([]*Session, len(p.Sessions)),
		probes:   make([]atomic.Int64, len(p.Tenants)),
		churn:    newChurnQueue(p),
	}
	// Clients take the next tenant to set up from a shared counter, so
	// both networks' set-up spreads over every client.
	errs := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(d.URL)
			defer cl.Close()
			for t := int(next.Add(1) - 1); t < len(p.Tenants); t = int(next.Add(1) - 1) {
				if err := b.setupTenant(cl, t); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.Stop()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return b, nil
}

func (b *Bench) setupTenant(cl *Client, t int) error {
	tp := b.Plan.Tenants[t]
	if err := cl.Onboard(tp.ID, tp.Scenario); err != nil {
		return err
	}
	if b.Workload == TicketChurn {
		return nil
	}
	first, err := cl.Inject(tp.ID, tp.Script.Issue.Name)
	if err != nil {
		return err
	}
	issue := tp.Script.Issue
	per := b.Plan.Size.SessionsPerTenant
	for s := t * per; s < (t+1)*per; s++ {
		tk := first
		if s > t*per {
			filed, err := fileTicket(b.D.Svc, tp.ID, issue)
			if err != nil {
				return err
			}
			tk = filed.ID
		}
		sess, err := cl.OpenSession(tp.ID, b.Plan.Sessions[s].Technician, tk)
		if err != nil {
			return err
		}
		b.Sessions[s] = sess
		if b.Workload == Diagnose {
			// One pass over the diagnosis warms the session: its twin's
			// first snapshot is computed here, not in the timed phase,
			// where 1,000 one-off computes would sit right at the p99.
			ref := b.Refs[refKey(tp.Scenario, issue.Name)]
			for k, cmd := range tp.Script.Diagnose {
				r, out, err := cl.Exec(sess, cmd.Device, cmd.Line)
				if err := expect(r, err, "diagnose "+cmd.Line); err != nil {
					return err
				}
				if out != ref.Outputs[k] {
					return fmt.Errorf("diagnose %q on %s: output differs from the reference", cmd.Line, tp.ID)
				}
			}
		}
		if b.Workload != ReviewStorm {
			continue
		}
		for _, cmd := range tp.Script.Fix {
			r, out, err := cl.Exec(sess, cmd.Device, cmd.Line)
			if err := expect(r, err, "fix "+cmd.Line); err != nil {
				return err
			}
			if out != "" {
				return fmt.Errorf("fix %q on %s: unexpected output %q", cmd.Line, tp.ID, out)
			}
		}
	}
	return nil
}

// Stop shuts the daemon down.
func (b *Bench) Stop() { b.D.Stop() }

// Run drives the workload's timed phase with the bench's closed loop of
// clients until the deadline, then merges their recorders. A ticket_churn
// client finishes the lifecycle it is in when the deadline passes, so
// every tenant's production ends with its fix committed.
func (b *Bench) Run(d time.Duration) *Recorder {
	deadline := time.Now().Add(d)
	var next atomic.Int64
	recs := make([]*Recorder, b.Clients)
	var wg sync.WaitGroup
	for c := 0; c < b.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(b.D.URL)
			defer cl.Close()
			rec := newRecorder()
			recs[c] = rec
			switch b.Workload {
			case Diagnose:
				for time.Now().Before(deadline) {
					b.diagnoseOp(cl, rec, b.Plan.DiagnoseOp(int(next.Add(1)-1)))
				}
			case ReviewStorm:
				for time.Now().Before(deadline) {
					b.reviewOp(cl, rec, b.Plan.ReviewOp(int(next.Add(1)-1)))
				}
			case TicketChurn:
				for time.Now().Before(deadline) {
					t, _ := b.churn.next(&next)
					b.ticketCycle(cl, rec, t)
					b.churn.done(t)
				}
			}
		}()
	}
	wg.Wait()
	all := newRecorder()
	for _, r := range recs {
		all.merge(r)
	}
	return all
}

func (b *Bench) diagnoseOp(cl *Client, rec *Recorder, op Op) {
	sess := b.Sessions[op.Session]
	t0 := time.Now()
	r, out, err := cl.Exec(sess, op.Device, op.Line)
	t := b.Plan.Sessions[op.Session].Tenant
	rec.observe("exec", b.Plan.Tenants[t].Scenario, time.Since(t0))
	rec.Attempted++
	b.checkExec(rec, t, op, r, out, err)
}

// checkExec applies the exec part of the correctness gate: a probe must
// come back 403 (a 2xx is a mediation breach), a scripted command must
// come back 2xx with the reference output.
func (b *Bench) checkExec(rec *Recorder, t int, op Op, r Response, out string, err error) {
	tp := b.Plan.Tenants[t]
	switch {
	case err != nil:
		rec.failf("%s %q: %v", tp.ID, op.Line, err)
	case op.Probe != "":
		switch {
		case r.OK():
			rec.Breaches = append(rec.Breaches, fmt.Sprintf("%s: probe %q on %s was allowed", tp.ID, op.Line, op.Device))
		case r.Status != 403:
			rec.failf("%s: probe %q: HTTP %d, want 403", tp.ID, op.Line, r.Status)
		default:
			b.probes[t].Add(1)
		}
	case !r.OK():
		rec.failf("%s %q: HTTP %d: %s", tp.ID, op.Line, r.Status, strings.TrimSpace(string(r.Body)))
	case out != b.Refs[refKey(tp.Scenario, tp.Script.Issue.Name)].Outputs[op.Command]:
		rec.failf("%s %q: output differs from the reference", tp.ID, op.Line)
	}
}

func (b *Bench) reviewOp(cl *Client, rec *Recorder, op Op) {
	sess := b.Sessions[op.Session]
	t0 := time.Now()
	r, dec, err := cl.Review(sess)
	rec.observe("review", b.Plan.Tenants[b.Plan.Sessions[op.Session].Tenant].Scenario, time.Since(t0))
	rec.Attempted++
	checkDecision(rec, sess, "review", r, dec, err)
}

// checkDecision requires a reviewed correct fix to be accepted, and a
// committed one to be committed with its ticket resolved.
func checkDecision(rec *Recorder, sess *Session, verb string, r Response, dec Decision, err error) bool {
	switch {
	case err != nil:
		rec.failf("%s %s: %v", verb, sess.Ticket, err)
	case !r.OK():
		rec.failf("%s %s: HTTP %d: %s", verb, sess.Ticket, r.Status, strings.TrimSpace(string(r.Body)))
	case !dec.Accepted:
		rec.failf("%s %s: correct fix rejected: %s", verb, sess.Ticket, dec.Reason)
	case verb == "commit" && (!dec.Committed || dec.Status != ticket.Resolved.String()):
		rec.failf("commit %s: committed=%v status=%q", sess.Ticket, dec.Committed, dec.Status)
	default:
		return true
	}
	return false
}

// ticketCycle runs one full ticket lifecycle on a tenant: inject, open a
// session, run the whole script, review, commit, close.
func (b *Bench) ticketCycle(cl *Client, rec *Recorder, t int) {
	tp := b.Plan.Tenants[t]
	start := time.Now()
	rec.Attempted++
	tk, err := cl.Inject(tp.ID, tp.Script.Issue.Name)
	if err != nil {
		rec.failf("%v", err)
		return
	}
	t0 := time.Now()
	rec.Attempted++
	sess, err := cl.OpenSession(tp.ID, fmt.Sprintf("churn-%s", tk), tk)
	rec.observe("session_open", tp.Scenario, time.Since(t0))
	if err != nil {
		rec.failf("%v", err)
		return
	}
	for i, cmd := range tp.Script.Issue.Script {
		t0 := time.Now()
		r, out, err := cl.Exec(sess, cmd.Device, cmd.Line)
		rec.observe("exec", tp.Scenario, time.Since(t0))
		rec.Attempted++
		failed := rec.Failed
		b.checkExec(rec, t, Op{Command: i, Device: cmd.Device, Line: cmd.Line}, r, out, err)
		if rec.Failed != failed {
			return
		}
		if i == len(tp.Script.Issue.Script)-1 && !strings.HasPrefix(out, "!!!!! success") {
			rec.failf("%s: closing ping %q did not deliver: %s", tp.ID, cmd.Line, out)
			return
		}
	}
	t0 = time.Now()
	r, dec, err := cl.Review(sess)
	rec.observe("review", tp.Scenario, time.Since(t0))
	rec.Attempted++
	if !checkDecision(rec, sess, "review", r, dec, err) {
		return
	}
	t0 = time.Now()
	r, dec, err = cl.Commit(sess)
	now := time.Now()
	rec.observe("commit", tp.Scenario, now.Sub(t0))
	rec.Attempted++
	if !checkDecision(rec, sess, "commit", r, dec, err) {
		return
	}
	rec.observe("ticket", tp.Scenario, now.Sub(start))
	rec.Attempted++
	if r, err := cl.CloseSession(sess); expect(r, err, "close "+sess.ID) != nil {
		rec.failf("%v", expect(r, err, "close "+sess.ID))
	}
}

// Audit is the end-of-run part of the correctness gate, run once the
// clients have stopped: every tenant's commit journal and audit trail
// verify, production breaks exactly the policies the reference says it
// should (none once a ticket_churn fix is committed, the open issue's
// otherwise), and the trail holds one deny decision per probe answered
// 403.
func (b *Bench) Audit() []string {
	var bad []string
	for i, tp := range b.Plan.Tenants {
		t, err := b.D.Svc.Tenant(tp.ID)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		sys := t.System()
		if err := sys.Enforcer.Journal().Verify(); err != nil {
			bad = append(bad, fmt.Sprintf("%s: journal: %v", tp.ID, err))
		}
		trail := sys.Enforcer.Trail()
		if err := trail.Verify(); err != nil {
			bad = append(bad, fmt.Sprintf("%s: audit trail: %v", tp.ID, err))
		}
		ref := b.Refs[refKey(tp.Scenario, tp.Script.Issue.Name)]
		want := ref.Broken
		if b.Workload == TicketChurn {
			want = ref.Fixed
		}
		got := violationNames(verify.Check(dataplane.Compute(sys.Production()), sys.Policies()))
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			bad = append(bad, fmt.Sprintf("%s: production violates %v, want %v", tp.ID, got, want))
		}
		denies := int64(0)
		for _, e := range trail.Entries() {
			if e.Kind == audit.KindDecision && !e.Allowed && strings.HasPrefix(e.Detail, "deny ") {
				denies++
			}
		}
		if n := b.probes[i].Load(); denies != n {
			bad = append(bad, fmt.Sprintf("%s: %d deny decisions audited for %d denied probes", tp.ID, denies, n))
		}
	}
	return bad
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
