package main

import (
	"fmt"
	"math/rand"

	"heimdall/internal/scenarios"
	"heimdall/internal/service"
	"heimdall/internal/ticket"
)

// fileTicket files a ticket for the issue's symptom in-process. The HTTP
// ticket endpoint carries no task kind, which the privilege template
// needs, so tickets beyond the one issue injection files are filed this
// way, as the service's own load generator files them.
func fileTicket(svc *service.Service, tenant string, issue scenarios.Issue) (*ticket.Ticket, error) {
	return svc.CreateTicket(tenant, ticket.Ticket{
		Summary: issue.Fault.Description, Kind: issue.Fault.Kind,
		SrcHost: issue.SrcHost, DstHost: issue.DstHost,
		Proto: issue.Proto, DstPort: issue.DstPort,
		Suspects: []string{issue.Fault.RootCause}, CreatedBy: "heimdallbench",
	})
}

// Size fixes how much a run builds; the benchmark itself always runs at
// defaultSize, tests shrink it.
type Size struct {
	Tenants           int
	SessionsPerTenant int
}

// defaultSize is the ROADMAP's acceptance scale: 50 tenants × 20 live
// sessions.
var defaultSize = Size{Tenants: 50, SessionsPerTenant: 20}

// scenarioNames alternates tenants between the two Table 1 networks.
var scenarioNames = []string{"university", "enterprise"}

// probeEvery is the share of diagnose commands replaced by a probe the
// ticket's Privilegemsp must deny (one in probeEvery).
const probeEvery = 20

// probeForms are writes aimed at the ticket's source host. Hosts sit in
// every ticket's slice with read rights only, so the reference monitor
// must refuse each of them with 403 before anything executes.
var probeForms = []string{
	"interface eth0 shutdown",
	"vlan 4000 name probe",
	"ip default-gateway 10.99.99.1",
	"ip route 0.0.0.0 0.0.0.0 10.99.99.1",
	"access-list PROBE 10 permit ip any any",
}

// issueScript splits a scenario issue's prepared script into the parts
// the workloads replay: the read-only diagnosis that precedes the fix and
// the fix itself. The script's last command is the closing ping, which
// must report the symptom flow delivered.
type issueScript struct {
	Issue    scenarios.Issue
	Diagnose []ticket.FixCommand
	Fix      []ticket.FixCommand
}

func splitScript(is scenarios.Issue) issueScript {
	n := len(is.Script)
	nfix := len(is.Fault.Fix)
	return issueScript{
		Issue:    is,
		Diagnose: is.Script[:n-nfix-1],
		Fix:      is.Script[n-nfix-1 : n-1],
	}
}

// catalog returns every scripted issue of the benchmark's scenarios,
// keyed by scenario then issue name, in script order.
func catalog() map[string][]issueScript {
	out := make(map[string][]issueScript)
	for _, name := range scenarioNames {
		for _, is := range service.BuiltinCatalog()[name]().Issues {
			out[name] = append(out[name], splitScript(is))
		}
	}
	return out
}

// TenantPlan is one customer network of the run.
type TenantPlan struct {
	ID       string
	Scenario string
	Script   issueScript
}

// SessionPlan is one technician session: its tenant and technician name.
type SessionPlan struct {
	Tenant     int
	Technician string
}

// Op is one timed request of the diagnose or review_storm workloads.
type Op struct {
	Session int
	// Command indexes the session's diagnosis script (diagnose only).
	Command int
	// Probe, when non-empty, replaces the scripted command with a write
	// the Privilegemsp must deny; Device is then the ticket's source host.
	Probe  string
	Device string
	Line   string
}

// Plan is everything the seed decides: each tenant's issue, the order in
// which sessions are visited and, for ticket_churn, the order in which
// each client cycles over its tenants. The program only ever sees the
// requests generated from it.
type Plan struct {
	Size     Size
	Tenants  []TenantPlan
	Sessions []SessionPlan
	// order is the seeded round-robin order over sessions.
	order []int
	// probeSalt decorrelates probe positions from the session order.
	probeSalt uint64
}

// NewPlan derives the run's schedule from the seed.
func NewPlan(seed int64, size Size) *Plan {
	rng := rand.New(rand.NewSource(seed))
	cat := catalog()
	// Each scenario's issues are dealt out in equal shares (within one)
	// and the seed shuffles which tenant gets which, so the command mix,
	// and with it the latency distribution, does not drift with the seed.
	deal := make(map[string][]issueScript)
	for i := 0; i < size.Tenants; i++ {
		scen := scenarioNames[i%len(scenarioNames)]
		deal[scen] = append(deal[scen], cat[scen][len(deal[scen])%len(cat[scen])])
	}
	for _, scen := range scenarioNames {
		d := deal[scen]
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	p := &Plan{Size: size}
	for i := 0; i < size.Tenants; i++ {
		scen := scenarioNames[i%len(scenarioNames)]
		p.Tenants = append(p.Tenants, TenantPlan{
			ID:       fmt.Sprintf("t-%03d", i),
			Scenario: scen,
			Script:   deal[scen][i/len(scenarioNames)],
		})
		for s := 0; s < size.SessionsPerTenant; s++ {
			p.Sessions = append(p.Sessions, SessionPlan{
				Tenant:     i,
				Technician: fmt.Sprintf("tech-%03d-%02d", i, s),
			})
		}
	}
	p.order = interleave(p, rng.Perm(len(p.Sessions)))
	p.probeSalt = rng.Uint64()
	return p
}

// mix is a splitmix64 step, used to place probes as a pure function of
// (seed, op index) so any client can compute op i on its own.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DiagnoseOp returns the i-th request of the diagnose workload: sessions
// are visited round-robin in the seeded order, each visit replaying the
// session's next diagnosis command, and a seeded one in probeEvery of
// them is a probe instead.
func (p *Plan) DiagnoseOp(i int) Op {
	n := len(p.order)
	sess := p.order[i%n]
	script := p.Tenants[p.Sessions[sess].Tenant].Script
	cmd := (i / n) % len(script.Diagnose)
	op := Op{Session: sess, Command: cmd,
		Device: script.Diagnose[cmd].Device, Line: script.Diagnose[cmd].Line}
	h := mix(p.probeSalt ^ uint64(i))
	if h%probeEvery == 0 {
		op.Probe = probeForms[(h/probeEvery)%uint64(len(probeForms))]
		op.Device = script.Issue.SrcHost
		op.Line = op.Probe
	}
	return op
}

// ReviewOp returns the i-th request of the review_storm workload: the
// session whose pending change set is submitted for review.
func (p *Plan) ReviewOp(i int) Op {
	return Op{Session: p.order[i%len(p.order)]}
}

// interleave reorders sessions (or tenants, by their first session) so
// the networks alternate, keeping the seeded order within each network.
// Two clients then run, seed after seed, one request of each network side
// by side; a seed that happened to line up university requests together
// would otherwise shift throughput by a tenth.
func interleave(p *Plan, perm []int) []int {
	byScenario := make([][]int, len(scenarioNames))
	for _, s := range perm {
		k := p.Sessions[s].Tenant % len(scenarioNames)
		byScenario[k] = append(byScenario[k], s)
	}
	out := make([]int, 0, len(perm))
	for i := 0; len(out) < len(perm); i++ {
		for _, ss := range byScenario {
			if i < len(ss) {
				out = append(out, ss[i])
			}
		}
	}
	return out
}

// ChurnOrder is the seeded order in which ticket_churn cycles over the
// tenants, alternating networks. Clients share one position in it, so
// every client sees the same mix of networks and issues.
func (p *Plan) ChurnOrder() []int {
	var firsts []int
	for _, s := range p.order {
		if s%p.Size.SessionsPerTenant == 0 {
			firsts = append(firsts, s)
		}
	}
	order := interleave(p, firsts)
	for i, s := range order {
		order[i] = p.Sessions[s].Tenant
	}
	return order
}
