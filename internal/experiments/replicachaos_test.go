package experiments

import (
	"strings"
	"testing"
	"time"

	"heimdall/internal/dataplane"
	"heimdall/internal/enclave"
	"heimdall/internal/enforcer"
	"heimdall/internal/replica"
	"heimdall/internal/spec"
)

// TestReplicaChaosSuite runs the full Jepsen-style deck — the exhaustive
// drop-at-boundary matrix, quorum-loss pairs, partitions, all nine
// liar/lie combinations and the seeded random schedules — as parallel
// subtests, so the race detector sweeps the replication path too.
func TestReplicaChaosSuite(t *testing.T) {
	deck := ReplicaSchedules()
	if len(deck) < 60 {
		t.Fatalf("deck has %d schedules, acceptance floor is 60", len(deck))
	}
	results := make([]*ReplicaChaosResult, len(deck))
	t.Run("schedules", func(t *testing.T) {
		for i, sched := range deck {
			i, sched := i, sched
			t.Run(sched.Name, func(t *testing.T) {
				t.Parallel()
				r, err := RunReplicaSchedule(sched)
				if err != nil {
					t.Fatal(err)
				}
				results[i] = r
			})
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	var s ReplicaChaosSummary
	for _, r := range results {
		s.Add(*r)
	}
	// Coverage: the deck must commit, roll back, drop replicas, heal them,
	// and catch every lie — a sweep that misses an outcome proves nothing.
	if s.Committed == 0 || s.RolledBack == 0 {
		t.Fatalf("outcome coverage too thin: %d committed, %d rolled back", s.Committed, s.RolledBack)
	}
	if s.Dropouts == 0 || s.Healed == 0 {
		t.Fatalf("no dropouts (%d) or heals (%d) across the deck", s.Dropouts, s.Healed)
	}
	if s.LyingSchedules < 9 {
		t.Fatalf("only %d lying schedules ran (want the full 9-liar matrix and more)", s.LyingSchedules)
	}
	if s.ByzantineDetected != s.LyingSchedules {
		t.Fatalf("byzantine detection %d/%d — the guarantee is 100%%", s.ByzantineDetected, s.LyingSchedules)
	}
	t.Logf("%d schedules: %d committed, %d rolled back; %d dropouts, %d heals; %d/%d lies detected",
		len(deck), s.Committed, s.RolledBack, s.Dropouts, s.Healed, s.ByzantineDetected, s.LyingSchedules)
}

// TestReplicaChaosDeterministic: the same schedule must reproduce the
// same outcome and bookkeeping, run to run.
func TestReplicaChaosDeterministic(t *testing.T) {
	deck := ReplicaSchedules()
	for _, i := range []int{0, 13, 25, 40, len(deck) - 1} {
		a, err := RunReplicaSchedule(deck[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunReplicaSchedule(deck[i])
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Fatalf("schedule %s not deterministic: %+v vs %+v", deck[i].Name, a, b)
		}
	}
}

// TestReplicaChaosSweep exercises the aggregate entry point the CLI uses.
func TestReplicaChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full deck in -short mode")
	}
	s, err := ReplicaChaos()
	if err != nil {
		t.Fatal(err)
	}
	out := FormatReplicaChaos(s)
	if !strings.Contains(out, "lying replicas detected") {
		t.Fatalf("report missing detection summary:\n%s", out)
	}
}

// BenchmarkQuorumCommit times one fault-free quorum commit: intent
// proposal, three replica votes, per-change fan-out and the terminal
// mirror. Each commit gets a fresh three-replica group, built outside the
// timer, so only Commit is measured.
func BenchmarkQuorumCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := ChaosNetwork()
		encl := enclave.NewPlatformFromSeed("replica-bench").Load("heimdall-enforcer-v1")
		policies := spec.Mine(dataplane.Compute(n), n, spec.Options{Sensitive: map[string]bool{"h3": true}})
		e := enforcer.New(encl, policies)
		e.Retry = enforcer.RetryPolicy{Sleep: func(time.Duration) {}}
		g, err := replica.NewGroup(n, e.Journal(), replica.Config{Replicas: replicaNames, Key: e.JournalKey()})
		if err != nil {
			b.Fatal(err)
		}
		e.SetTarget(g)
		changes, sp := chaosChanges(), chaosSpec()
		b.StartTimer()
		if _, err := e.Commit(n, changes, sp); err != nil {
			b.Fatalf("commit %d: %v", i, err)
		}
	}
}
