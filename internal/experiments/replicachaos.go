package experiments

// The replication chaos suite: a Jepsen-style sweep of seeded schedules
// thrown at the replicated enforcer — message drops at every journal
// boundary on every replica, link partitions, quorum loss before and
// during the push, and one Byzantine replica per lying schedule. Every
// schedule must terminate in a consistent group: the change committed
// everywhere or rolled back everywhere, honest replica journals
// bit-identical to the coordinator's, and the liar detected and
// quarantined by majority cross-audit.

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"heimdall/internal/config"
	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/enforcer"
	"heimdall/internal/faultinject"
	"heimdall/internal/journal"
	"heimdall/internal/replica"
	"heimdall/internal/spec"
	"heimdall/internal/telemetry"
)

// replicaNames is the fixed three-replica deployment every schedule runs.
var replicaNames = []string{"rep-a", "rep-b", "rep-c"}

// ReplicaSchedule is one deterministic fault schedule for the group.
type ReplicaSchedule struct {
	Name string
	// Rules arm the injector for the commit phase. Link-scoped rules drop
	// replication messages; the sweep keeps device scopes clean so every
	// outcome is decided by replication faults alone.
	Rules []faultinject.Rule
	// Liar, when set, turns that replica Byzantine (with Lie) after the
	// commit settles, so the cross-audit must catch it.
	Liar string
	Lie  replica.Lie
}

// ReplicaSchedules builds the full deck: the exhaustive drop-at-boundary
// matrix (every replica x every replication message), quorum-loss pairs,
// partitions, all nine liar/lie combinations, and seeded random schedules
// from the shared faultinject generator.
func ReplicaSchedules() []ReplicaSchedule {
	var deck []ReplicaSchedule
	link := func(r string) string { return faultinject.LinkScope("coord", r) }

	// 1. Exhaustive single-replica drop at every journal boundary: the
	// propose (intent) message, each of the first two apply messages, and
	// the terminal-record (finish) message. One lost replica never costs
	// quorum, so these must all commit and then heal.
	for _, r := range replicaNames {
		for _, b := range []struct {
			op  string
			nth int
		}{{"propose", 1}, {"apply", 1}, {"apply", 2}, {"finish", 1}} {
			deck = append(deck, ReplicaSchedule{
				Name: fmt.Sprintf("drop-%s-%s-%d", r, b.op, b.nth),
				Rules: []faultinject.Rule{{
					Scope: link(r), Op: b.op, FailNth: b.nth, Class: faultinject.Transient,
				}},
			})
		}
	}
	// 2. Two replicas lost at the same boundary: quorum gone, the commit
	// must abort (propose) or roll back everywhere (apply).
	pairs := [][2]string{{"rep-a", "rep-b"}, {"rep-a", "rep-c"}, {"rep-b", "rep-c"}}
	for _, p := range pairs {
		for _, op := range []string{"propose", "apply"} {
			deck = append(deck, ReplicaSchedule{
				Name: fmt.Sprintf("quorum-loss-%s+%s-%s", p[0], p[1], op),
				Rules: []faultinject.Rule{
					{Scope: link(p[0]), Op: op, Outage: true, Class: faultinject.Transient},
					{Scope: link(p[1]), Op: op, Outage: true, Class: faultinject.Transient},
				},
			})
		}
	}
	// 3. Mid-push quorum loss with the survivor also dropping a restore
	// message: the rollback itself is exercised across a flaky link.
	for i, p := range pairs {
		survivor := replicaNames[2-i] // the replica not in the pair
		deck = append(deck, ReplicaSchedule{
			Name: fmt.Sprintf("rollback-under-drop-%s", survivor),
			Rules: []faultinject.Rule{
				{Scope: link(p[0]), Op: "apply", Outage: true, Class: faultinject.Transient},
				{Scope: link(p[1]), Op: "apply", Outage: true, Class: faultinject.Transient},
				{Scope: link(survivor), Op: "restore", FailNth: 1, Class: faultinject.Transient},
			},
		})
	}
	// 4. Full link partitions: each single link, then each pair of links.
	for _, r := range replicaNames {
		deck = append(deck, ReplicaSchedule{
			Name:  "partition-" + r,
			Rules: []faultinject.Rule{faultinject.PartitionRule("coord", r)},
		})
	}
	for _, p := range pairs {
		deck = append(deck, ReplicaSchedule{
			Name: fmt.Sprintf("partition-%s+%s", p[0], p[1]),
			Rules: []faultinject.Rule{
				faultinject.PartitionRule("coord", p[0]),
				faultinject.PartitionRule("coord", p[1]),
			},
		})
	}
	// 5. Byzantine: every replica tries every lie against a clean commit.
	for _, r := range replicaNames {
		for _, lie := range []replica.Lie{replica.LieForge, replica.LieTruncate, replica.LieEquivocate} {
			deck = append(deck, ReplicaSchedule{
				Name: fmt.Sprintf("byzantine-%s-%s", r, lie),
				Liar: r, Lie: lie,
			})
		}
	}
	// 6. Seeded random schedules over the replication links, reusing the
	// shared fault-plan generator; odd seeds also pick a liar.
	for seed := int64(1); seed <= 30; seed++ {
		links := []string{link("rep-a"), link("rep-b"), link("rep-c")}
		s := ReplicaSchedule{
			Name:  fmt.Sprintf("random-%d", seed),
			Rules: faultinject.RandomPlan(seed, links, []string{"propose", "apply", "finish"}).Rules,
		}
		if seed%2 == 1 {
			s.Liar = replicaNames[int(seed/2)%3]
			s.Lie = replica.Lie(1 + int(seed/3)%3)
		}
		deck = append(deck, s)
	}
	return deck
}

// ReplicaChaosResult is the audited outcome of one schedule.
type ReplicaChaosResult struct {
	Name    string
	Outcome string // "committed" or "rolled-back"
	// Dropouts is how many replicas fell Lagging during the commit;
	// Healed how many the audit brought back; Lied/Detected track the
	// Byzantine half of the schedule.
	Dropouts int
	Healed   int
	Lied     bool
	Detected bool
}

var lieVerdicts = map[replica.Lie]string{
	replica.LieForge:      replica.VerdictForged,
	replica.LieTruncate:   replica.VerdictTruncated,
	replica.LieEquivocate: replica.VerdictEquivocated,
}

// RunReplicaSchedule executes one schedule against a fresh group and
// audits the replication invariants: a single terminal outcome applied
// all-or-nothing, coordinator journal verifiable, every honest replica
// bit-identical to the coordinator after one cross-audit, liars detected
// and quarantined, and no false positives on honest replicas.
func RunReplicaSchedule(s ReplicaSchedule) (*ReplicaChaosResult, error) {
	fail := func(format string, args ...any) (*ReplicaChaosResult, error) {
		return nil, fmt.Errorf("schedule %s: %s", s.Name, fmt.Sprintf(format, args...))
	}
	n := ChaosNetwork()
	pre := n.Clone()

	platform := enclave.NewPlatformFromSeed("replica-chaos")
	encl := platform.Load("heimdall-enforcer-v1")
	policies := spec.Mine(dataplane.Compute(n), n, spec.Options{Sensitive: map[string]bool{"h3": true}})
	e := enforcer.New(encl, policies)
	reg := telemetry.NewRegistry()
	e.SetMeter(reg)
	e.Retry = enforcer.RetryPolicy{Sleep: func(time.Duration) {}}

	var inj *faultinject.Injector
	if len(s.Rules) > 0 {
		inj = faultinject.New(faultinject.Plan{Rules: s.Rules})
		inj.SetMeter(reg)
	}
	g, err := replica.NewGroup(n, e.Journal(), replica.Config{
		Replicas: replicaNames,
		Key:      e.JournalKey(),
		Injector: inj,
		Meter:    reg,
	})
	if err != nil {
		return fail("NewGroup: %v", err)
	}
	e.SetTarget(g)

	res := &ReplicaChaosResult{Name: s.Name}
	_, cerr := e.Commit(n, chaosChanges(), chaosSpec())
	if q, why := e.Quarantined(); q {
		return fail("link faults must never quarantine production: %s", why)
	}
	if cerr == nil {
		res.Outcome = "committed"
	} else {
		res.Outcome = "rolled-back"
	}
	for _, r := range g.Replicas() {
		if r.State() == replica.Lagging {
			res.Dropouts++
		}
	}

	// The coordinator's journal must verify and close with the terminal
	// record the outcome claims.
	if err := e.Journal().Verify(); err != nil {
		return fail("coordinator journal: %v", err)
	}
	records := e.Journal().Records()
	if len(records) == 0 {
		return fail("no journal records")
	}
	wantKind := journal.KindCommitted
	if res.Outcome == "rolled-back" {
		wantKind = journal.KindRolledBack
	}
	if last := records[len(records)-1]; last.Kind != wantKind {
		return fail("terminal record %s, outcome %s", last.Kind, res.Outcome)
	}

	// All-or-nothing on production.
	committedState := pre.Clone()
	if err := config.ApplyChanges(committedState, records[0].Changes); err != nil {
		return fail("applying scheduled set to pre-state: %v", err)
	}
	gotFP := chaosFingerprint(n)
	switch res.Outcome {
	case "committed":
		if gotFP != chaosFingerprint(committedState) {
			return fail("committed run does not match pre-state + changes")
		}
	case "rolled-back":
		if gotFP != chaosFingerprint(pre) {
			return fail("rolled-back run does not match pre-state")
		}
	}

	// Inject the lie (only a live replica can lie convincingly; a laggard
	// is healed by state transfer before its chain is believed).
	if s.Liar != "" && g.Replica(s.Liar).State() == replica.Live {
		g.MakeByzantine(s.Liar, s.Lie)
		res.Lied = true
	}

	// Heal the network and audit.
	g.SetInjector(nil)
	rep := g.CrossAudit()
	if !rep.Conclusive {
		return fail("cross-audit inconclusive (suspect coordinator: %v)", rep.CoordinatorSuspect)
	}
	res.Healed = len(rep.Healed)
	if res.Lied {
		want := lieVerdicts[s.Lie]
		if got := rep.Verdicts[s.Liar]; got != want {
			return fail("liar %s verdict %q, want %q", s.Liar, got, want)
		}
		if g.Replica(s.Liar).State() != replica.Quarantined {
			return fail("liar %s not quarantined", s.Liar)
		}
		res.Detected = true
	}
	for _, r := range g.Replicas() {
		if r.Name != s.Liar && r.State() == replica.Quarantined {
			return fail("honest replica %s quarantined (%s): false positive", r.Name, r.Verdict())
		}
	}

	// Every non-quarantined replica ends bit-identical to the coordinator,
	// journal and network both — committed everywhere or rolled back
	// everywhere, never mixed.
	coordExport, err := e.Journal().Export()
	if err != nil {
		return fail("export: %v", err)
	}
	for _, r := range g.Replicas() {
		if r.State() == replica.Quarantined {
			continue
		}
		if r.State() != replica.Live {
			return fail("replica %s still %s after audit", r.Name, r.State())
		}
		got, err := r.Journal().Export()
		if err != nil {
			return fail("replica %s export: %v", r.Name, err)
		}
		if !bytes.Equal(got, coordExport) {
			return fail("replica %s journal differs from coordinator after audit", r.Name)
		}
		if chaosFingerprint(r.Net()) != gotFP {
			return fail("replica %s network differs from production after audit", r.Name)
		}
	}
	// Audits are idempotent: a second pass finds nothing new.
	rep2 := g.CrossAudit()
	if len(rep2.NewlyQuarantined) != 0 || len(rep2.Healed) != 0 {
		return fail("second audit not clean: quarantined %v healed %v", rep2.NewlyQuarantined, rep2.Healed)
	}
	return res, nil
}

// ReplicaChaosSummary aggregates a replication sweep.
type ReplicaChaosSummary struct {
	Results           []ReplicaChaosResult
	Committed         int
	RolledBack        int
	Dropouts          int
	Healed            int
	LyingSchedules    int
	ByzantineDetected int
}

// ReplicaChaos runs the full schedule deck and fails on the first
// invariant violation. The deck is deterministic: the same binary always
// runs the same schedules with the same outcomes.
func ReplicaChaos() (*ReplicaChaosSummary, error) {
	s := &ReplicaChaosSummary{}
	for _, sched := range ReplicaSchedules() {
		r, err := RunReplicaSchedule(sched)
		if err != nil {
			return nil, err
		}
		s.Add(*r)
	}
	if s.LyingSchedules == 0 {
		return nil, fmt.Errorf("replica chaos: deck contains no lying schedules")
	}
	if s.ByzantineDetected != s.LyingSchedules {
		return nil, fmt.Errorf("replica chaos: %d/%d lies detected", s.ByzantineDetected, s.LyingSchedules)
	}
	return s, nil
}

// Add folds one schedule result into the summary.
func (s *ReplicaChaosSummary) Add(r ReplicaChaosResult) {
	s.Results = append(s.Results, r)
	if r.Outcome == "committed" {
		s.Committed++
	} else {
		s.RolledBack++
	}
	s.Dropouts += r.Dropouts
	s.Healed += r.Healed
	if r.Lied {
		s.LyingSchedules++
	}
	if r.Detected {
		s.ByzantineDetected++
	}
}

// FormatReplicaChaos renders a replication sweep for the CLI.
func FormatReplicaChaos(s *ReplicaChaosSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replication chaos suite: %d schedules against the replicated enforcer\n", len(s.Results))
	fmt.Fprintf(&b, "%-28s %-12s %9s %7s %10s\n", "schedule", "outcome", "dropouts", "healed", "byzantine")
	for _, r := range s.Results {
		byz := "-"
		if r.Lied {
			byz = "detected"
		}
		fmt.Fprintf(&b, "%-28s %-12s %9d %7d %10s\n", r.Name, r.Outcome, r.Dropouts, r.Healed, byz)
	}
	fmt.Fprintf(&b, "\n%d committed, %d rolled back; %d dropouts, %d heals; %d/%d lying replicas detected\n",
		s.Committed, s.RolledBack, s.Dropouts, s.Healed, s.ByzantineDetected, s.LyingSchedules)
	b.WriteString("Invariant held on every schedule: committed everywhere or rolled back everywhere,\n")
	b.WriteString("honest replicas bit-identical to the coordinator, every liar quarantined.\n")
	return b.String()
}
